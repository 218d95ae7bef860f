"""Truncated formal power series in non-commuting letters.

Series live over a finite alphabet of letters (0 -> A, 1 -> B, ...) with
polynomial coefficients from :mod:`splitcond.poly`.  A word's length is its
degree, and the grading doubles as the power of the step size t: in a
splitting product every exponent is (scalar) * (letter) * t, so a word of
length j always carries exactly t^j.  "Vanishes through degree p" therefore
means the same thing as O(t^{p+1}).

The truncation degree is fixed at construction and preserved by every
operation; combining series with different truncations or alphabets raises
instead of silently re-truncating.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

from .poly import Poly, Scalar, _signed_join, _whole, as_poly, sum_of_products

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

_LETTER_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class TruncationMismatch(ValueError):
    """Operands carry different truncation degrees."""


class AlphabetMismatch(ValueError):
    """Operands carry different alphabet sizes."""


class NonzeroConstantTerm(ValueError):
    """exp() needs a series with zero constant term."""


class ConstantTermNotOne(ValueError):
    """log() needs a series with constant term exactly 1."""


class DegreeBeyondTruncation(ValueError):
    """Requested homogeneous degree exceeds the truncation degree."""


def add_terms(left: Mapping, right: Mapping) -> dict:
    """Term map of left + right, dropping the terms that cancel."""
    out = dict(left)
    for key, value in right.items():
        if key in out:
            value = out.pop(key) + value
        if value:
            out[key] = value
    return out


def word_str(word: Word) -> str:
    """Render a word as a letter string, e.g. (0, 0, 1) -> "AAB"; letters are 0-25."""
    if not word:
        return "1"
    if bad := [i for i in word if not 0 <= i < len(_LETTER_NAMES)]:
        raise ValueError(f"letter index {bad[0]} outside 0-25")
    return "".join(_LETTER_NAMES[i] for i in word)


class NCSeries:
    """Truncated series: map word -> Poly, all words of length <= truncation."""

    __slots__ = ("truncation", "alphabet_size", "terms")

    def __init__(
        self,
        truncation: int,
        alphabet_size: int = 2,
        terms: Mapping[Word, Union[Poly, Scalar]] | None = None,
    ):
        if (truncation := _whole(truncation, "truncation degree")) < 0:
            raise ValueError(f"truncation degree must be >= 0, got {truncation}")
        if not 1 <= (alphabet_size := _whole(alphabet_size, "alphabet size")) <= len(_LETTER_NAMES):
            raise ValueError(f"alphabet size must be between 1 and 26, got {alphabet_size}")
        self.truncation = truncation
        self.alphabet_size = alphabet_size
        canonical: dict[Word, Poly] = {}
        if terms:
            for word, coeff in terms.items():
                word = tuple(word)
                if not all(isinstance(i, int) and 0 <= i < alphabet_size for i in word):
                    raise ValueError(f"word {word!r} uses letters outside the alphabet")
                if len(word) > truncation:
                    raise DegreeBeyondTruncation(
                        f"word {word_str(word)} exceeds truncation degree {truncation}"
                    )
                poly = as_poly(coeff)
                if not poly.is_zero:
                    canonical[word] = poly
        self.terms = canonical

    # -- constructors --------------------------------------------------------

    @classmethod
    def _of(cls, truncation: int, alphabet_size: int, terms: dict[Word, Poly]) -> "NCSeries":
        # wraps an already canonical term map without copying or checking it
        series = object.__new__(cls)
        series.truncation, series.alphabet_size = truncation, alphabet_size
        series.terms = terms
        return series

    @classmethod
    def zero(cls, truncation: int, alphabet_size: int = 2) -> "NCSeries":
        return cls(truncation, alphabet_size)

    @classmethod
    def unit(cls, truncation: int, alphabet_size: int = 2) -> "NCSeries":
        return cls(truncation, alphabet_size, {EMPTY_WORD: 1})

    @classmethod
    def letter(
        cls,
        index: int,
        truncation: int,
        alphabet_size: int = 2,
        coeff: Union[Poly, Scalar] = 1,
    ) -> "NCSeries":
        return cls(truncation, alphabet_size, {(_whole(index, "letter index"),): coeff})

    # -- structure -----------------------------------------------------------

    def coefficient(self, word: Word) -> Poly:
        """Coefficient of a word; zero polynomial if the word is absent."""
        word = tuple(word)
        if len(word) > self.truncation:
            raise DegreeBeyondTruncation(
                f"word {word_str(word)} exceeds truncation degree {self.truncation}"
            )
        return self.terms.get(word, Poly())

    @property
    def constant_term(self) -> Poly:
        return self.terms.get(EMPTY_WORD, Poly())

    def homogeneous_part(self, degree: int) -> "NCSeries":
        """The degree-j component, as a series with the same truncation."""
        if (degree := _whole(degree, "degree")) < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        if degree > self.truncation:
            raise DegreeBeyondTruncation(
                f"degree {degree} exceeds truncation degree {self.truncation}"
            )
        picked = {w: c for w, c in self.terms.items() if len(w) == degree}
        return NCSeries(self.truncation, self.alphabet_size, picked)

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "NCSeries") -> None:
        if self.truncation != other.truncation:
            raise TruncationMismatch(
                f"truncation degrees differ: {self.truncation} vs {other.truncation}"
            )
        if self.alphabet_size != other.alphabet_size:
            raise AlphabetMismatch(
                f"alphabet sizes differ: {self.alphabet_size} vs {other.alphabet_size}"
            )

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "NCSeries") -> "NCSeries":
        if not isinstance(other, NCSeries):
            return NotImplemented
        self._check_compatible(other)
        terms = add_terms(self.terms, other.terms)
        return NCSeries._of(self.truncation, self.alphabet_size, terms)

    def __neg__(self) -> "NCSeries":
        return NCSeries._of(
            self.truncation, self.alphabet_size, {w: -c for w, c in self.terms.items()}
        )

    def __sub__(self, other: "NCSeries") -> "NCSeries":
        if not isinstance(other, NCSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: Union[Poly, Scalar]) -> "NCSeries":
        if not isinstance(factor, (int, Fraction)):
            factor = as_poly(factor)
        # a nonzero factor keeps every (nonzero) coefficient nonzero
        scaled = {w: c * factor for w, c in self.terms.items()} if factor else {}
        return NCSeries._of(self.truncation, self.alphabet_size, scaled)

    def __mul__(self, other: Union["NCSeries", Poly, Scalar]) -> "NCSeries":
        """Concatenation product with a series, or coefficient-wise scaling."""
        if isinstance(other, NCSeries):
            return _product(self, other, self.truncation)
        if isinstance(other, (Poly, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # scalars commute with words, so a scalar on the left scales the same way
    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCSeries):
            return NotImplemented
        return (
            self.truncation == other.truncation
            and self.alphabet_size == other.alphabet_size
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.truncation, self.alphabet_size, frozenset(self.terms.items())))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        pieces = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            poly = self.terms[word]
            nums = list(poly._nums.values())
            sign = "+ "
            if len(nums) == 1 and nums[0] < 0:  # pull the sign out of single-term coefficients
                sign, poly = "- ", -poly
            wrapped = str(poly) if len(nums) == 1 else f"({poly})"
            if word:
                wrapped = word_str(word) if poly == 1 else f"{wrapped}*{word_str(word)}"
            pieces.append(sign + wrapped)
        return _signed_join(pieces)

    def __repr__(self) -> str:
        return f"NCSeries(N={self.truncation}, {self})"


def _product(f: NCSeries, g: NCSeries, cap: int) -> NCSeries:
    """Concatenation product f * g at the words of length <= cap."""
    f._check_compatible(g)
    right = sorted(g.terms.items(), key=lambda item: len(item[0]))
    terms: dict[Word, list[tuple[int, Poly, Poly]]] = {}
    for u, cu in f.terms.items():
        for v, cv in right:
            if len(u) + len(v) > cap:
                break
            terms.setdefault(u + v, []).append((1, cu, cv))
    out = {w: c for w, t in terms.items() if (c := sum_of_products(t))}
    return NCSeries._of(f.truncation, f.alphabet_size, out)


def _horner(x: NCSeries, coefficients: list) -> NCSeries:
    """c_0 + x(c_1 + x(c_2 + ...)) through the truncation N, for x with zero constant term."""
    unit = NCSeries.unit(x.truncation, x.alphabet_size)
    acc = NCSeries.zero(x.truncation, x.alphabet_size)
    for k in range(x.truncation, -1, -1):
        # c_k + x(...) meets k more factors of x, so only its words to length N - k count
        acc = unit.scale(coefficients[k]) + _product(x, acc, x.truncation - k)
    return acc


def exp(g: NCSeries) -> NCSeries:
    """Truncated exponential sum_{k<=N} g^k / k!; g needs a zero constant term."""
    if not g.constant_term.is_zero:
        raise NonzeroConstantTerm("exp() requires a series with zero constant term")
    return _horner(g, [Fraction(1, math.factorial(k)) for k in range(g.truncation + 1)])


def log(f: NCSeries) -> NCSeries:
    """Truncated logarithm sum_{k>=1} (-1)^(k+1) (f-1)^k / k; f needs constant term 1."""
    if f.constant_term != 1:
        raise ConstantTermNotOne("log() requires a series with constant term 1")
    mercator = [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, f.truncation + 1)]
    return _horner(f - NCSeries.unit(f.truncation, f.alphabet_size), mercator)
