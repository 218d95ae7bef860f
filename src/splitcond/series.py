"""The series layer: truncated formal power series in non-commuting letters.

Series live over a finite alphabet of letters (0 -> A, 1 -> B, ...) with
polynomial coefficients from :mod:`splitcond.poly`.  A word's length is its
degree, and the grading doubles as the power of the step size t: in a
splitting product every exponent is (scalar) * (letter) * t, so a word of
length j always carries exactly t^j.  "Vanishes through degree p" therefore
means the same thing as O(t^{p+1}).

The truncation degree is fixed at construction and preserved by every
operation; combining series with different truncations or alphabets raises
instead of silently re-truncating.

Every function that takes or returns a series lives here (LieDecomposition.reconstruct imports it
on its call): exp and log, expand, lie_decompose, and the splitting product and e^{A+B} as series.
The engine (both routes, verify_scheme, leading_error_term and the CLI) imports nothing from this
module, so ``import splitcond`` loads it on first use of one of its names.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import math
from fractions import Fraction
from typing import Mapping, Union

from .conditions import _INTS, SymbolicScheme, _divided_product
from .lyndon import _LETTER_NAMES, BracketTree, LieDecomposition, Word, _bits, _bracket, _budget
from .lyndon import _commutator, _is_letter, _lyndon_key, _numbered, _pack
from .lyndon import _product_steps, _unpack, _word, add_terms, foliage, lyndon_count, word_str
from .poly import _ONE, _ZERO, Poly, Scalar, _signed_join, _whole, as_poly, sum_of_products

EMPTY_WORD: Word = ()


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


class NotALieElement(ValueError):
    """Input series is not in the free Lie algebra; carries the residual."""

    def __init__(self, residual: NCSeries):
        super().__init__(f"not a Lie element, residual {residual}")
        self.residual = residual


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
                word = _word(word, alphabet_size)
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
        word = _word(word, self.alphabet_size)
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


def _check_words(x: NCSeries, passes: int = 1) -> None:
    # passes times the words through degree N that powers of x may form, by lyndon._budget: at
    # most sum_{n<=N} k^n over x's k letters (k^64 caps it), and, counted only past that, the
    # concatenations c[n] of x's words: c[0] = 1, c[n] = sum_l m_l c[n - l], m_l of length l
    n, lengths, c = x.truncation, collections.Counter(map(len, x.terms)), []  # every length >= 1

    def concatenations():
        for q in range(n + 1):
            c.append(sum(m * c[q - size] for size, m in lengths.items() if size <= q) if q else 1)
            yield passes * c[q]

    k = len({a for w in x.terms for a in w})
    letters = n + 1 if k == 1 else (k ** min(n + 1, 64) - 1) // (k - 1) if k else 1
    _budget(f"truncation degree {n}", (passes * letters,), concatenations())


def _horner(x: NCSeries, coefficient) -> NCSeries:
    """c_0 + x(c_1 + x(c_2 + ...)) through the truncation N, for x with zero constant term, to
    k = N // m, m the least length of x's words (0 for x = 0): x^k past it has no word to N.
    Its passes are budgeted by _check_words: exp(A + B) is refused from N = 15 on, exp(A) 1000."""
    n = x.truncation
    _check_words(x, passes := n // min(map(len, x.terms)) + 1 if x.terms else 1)
    unit, acc = NCSeries.unit(n, x.alphabet_size), NCSeries.zero(n, x.alphabet_size)
    for k in range(passes - 1, -1, -1):
        # c_k + x(...) meets k more factors of x, so only its words to length N - k count
        acc = unit.scale(coefficient(k)) + _product(x, acc, n - k)
    return acc


def exp(g: NCSeries) -> NCSeries:
    """Truncated exponential sum_{k<=N} g^k / k!; g needs a zero constant term (see _horner)."""
    if not g.constant_term.is_zero:
        raise NonzeroConstantTerm("exp() requires a series with zero constant term")
    return _horner(g, lambda k: Fraction(1, math.factorial(k)))


def log(f: NCSeries) -> NCSeries:
    """Truncated logarithm sum_{k>=1} (-1)^(k+1) (f-1)^k / k, f of constant term 1 (see _horner)."""
    if f.constant_term != 1:
        raise ConstantTermNotOne("log() requires a series with constant term 1")
    x = f - NCSeries.unit(f.truncation, f.alphabet_size)
    return _horner(x, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)


def _check_tree(leaves: Word) -> None:
    # a bracket tree over these leaves expands to at most 2^(d-1) and at most d!/prod c_x! words,
    # d its degree and c_x its letter counts: refused by lyndon._budget past both, listing none
    d, counts = len(leaves), map(leaves.count, set(leaves))
    multinomial = math.factorial(d) // math.prod(map(math.factorial, counts))
    _budget(f"bracket tree of degree {d}", (2 ** (d - 1),), (multinomial,))


def expand(tree: BracketTree, truncation: int, alphabet_size: int = 2) -> NCSeries:
    """Expand nested commutators into a homogeneous word series, [x,y] = xy - yx; refused,
    listing no word, where the tree may expand past the word budget (see _check_tree)."""
    leaves = foliage(tree)
    if (n := len(leaves)) > (truncation := _whole(truncation, "truncation degree")):
        raise DegreeBeyondTruncation(f"bracket tree of degree {n} exceeds truncation {truncation}")
    k = NCSeries.zero(truncation, alphabet_size).alphabet_size  # checked as a series' alphabet
    _check_tree(leaves)
    terms = _expand(tree, k, bits := _bits(k))
    return NCSeries._of(truncation, k, {_unpack(w, bits): Poly.const(c) for w, c in terms.items()})


def _expand(tree: BracketTree, alphabet_size: int, bits: int) -> dict[int, int]:
    # expand's int term map over words packed at bits a letter, each leaf checked, left to right
    if _is_letter(tree):
        return {_pack(_word((tree,), alphabet_size), bits): 1}
    return _commutator(*(_expand(t, alphabet_size, bits) for t in tree))


def _dynkin(terms: dict[int, Poly], degree: int, bits: int) -> dict[int, Poly]:
    # theta, the right-nested bracketing, by left quotients of a homogeneous term map over words
    # packed at bits a letter: theta(a) = a, theta(a·u) = [a, theta(u)], a·u = (a - 1 << |u|) + u
    if degree == 1:
        return terms
    out, shift = {}, bits * (degree - 1)
    for a in {w >> shift for w in terms}:
        u = {w - (a - 1 << shift): c for w, c in terms.items() if w >> shift == a}
        out = add_terms(out, _commutator({a: 1}, _dynkin(u, degree - 1, bits)))
    return out


def lie_decompose(f: NCSeries, degree: int) -> LieDecomposition:
    """Write a homogeneous degree-q series as a Lyndon-basis combination.

    Refused by lyndon._budget, before any other work, where the Lyndon words over one word's
    letters pass the word budget (two letters fit through degree 23, seven through degree 8, eight
    at degree 8 do not): no element of degree 7 or less is refused, and one over it is.
    The Dynkin-Specht-Wever projection theta(f)/q, theta the right-nested bracketing, fixes the Lie
    elements of degree q and annihilates a complement.  Raises NotALieElement, carrying the
    residual f - theta(f)/q, when that residual is nonzero; for degree 2 the word AB alone leaves
    the symmetric residual (AB + BA)/2.  Otherwise solves forward over f's Lyndon words: the least
    one left holds its coordinate c, and c E_w leaves the Lyndon words E_w holds, a word first met
    there included, since its coordinate may be nonzero where f's coefficient is 0.  Projection and
    solve run on f's words packed once, ceil(log2 k) bits a letter by rank over its k letters.
    """
    if (degree := _whole(degree, "decomposition degree")) < 1:
        raise ValueError("decomposition degree must be >= 1")
    if any(len(w) != degree for w in f.terms):
        raise ValueError(f"input is not homogeneous of degree {degree}")
    if degree > f.truncation:
        raise DegreeBeyondTruncation(f"degree {degree} exceeds truncation degree {f.truncation}")
    _budget(f"order {degree}", (lyndon_count(max(map(len, map(set, f.terms)), default=1), degree),))
    letters = sorted({x for w in f.terms for x in w})  # packed by rank, in order
    rank, bits = {x: i for i, x in enumerate(letters)}, _bits(len(letters))

    def unpacked(terms: dict) -> dict[Word, Poly]:
        return {tuple(letters[x] for x in _unpack(w, bits)): c for w, c in terms.items()}

    packed = {_pack(map(rank.get, u), bits): c for u, c in f.terms.items()}
    theta = _dynkin(packed, degree, bits)
    if residual := add_terms(packed, {w: c * Fraction(-1, degree) for w, c in theta.items()}):
        raise NotALieElement(NCSeries._of(f.truncation, f.alphabet_size, unpacked(residual)))
    lyndonian, memo, coefficients = functools.cache(lambda w: _lyndon_key(w, bits)), {}, {}
    values = {w: c for w, c in packed.items() if lyndonian(w)}
    heap = sorted(values)  # a sorted list is a heap
    while heap:  # the least Lyndon word left holds its coordinate
        w = heapq.heappop(heap)
        if c := values.pop(w):
            coefficients[w] = c
            bracket = _bracket(memo, _unpack(w, bits), degree, bits)  # of the top degree: not kept
            del bracket[w]
            for u, e in bracket.items():
                if lyndonian(u):
                    if u not in values:
                        heapq.heappush(heap, u)
                    values[u] = sum_of_products([(-e, c, _ONE)], values.get(u, _ZERO))
    return LieDecomposition(degree, unpacked(coefficients))


def _truncation(truncation: int) -> int:
    # the truncation degree n as a series checks it, refused before any word is listed where the
    # words through degree n over A and B, as _check_words counts them, pass the budget (n >= 19)
    n = NCSeries.zero(truncation).truncation
    _check_words(NCSeries._of(n, 2, {(0,): _ONE, (1,): _ONE}))
    return n


def splitting_product(scheme: SymbolicScheme, truncation: int) -> NCSeries:
    """e^{a_1 A} e^{b_1 B} ... e^{a_s A} e^{b_s B}, by the divided-power recurrence; refused,
    listing no word, past the word budget (truncation 19 on), as exp_of_sum is."""
    truncation = _truncation(truncation)
    if len(scheme.a) != len(scheme.b):
        raise ValueError("coefficient lists a and b must have equal length")
    words = _numbered(w for n in range(truncation + 1) for w in itertools.product((0, 1), repeat=n))
    factors = [(i % 2, n) for i, n in enumerate(itertools.chain(*zip(scheme.a, scheme.b))) if n]
    g = _divided_product(_INTS, factors, _product_steps(words), len(words))
    terms = {w: c * Fraction(1, math.factorial(len(w))) for w, c in zip(words, g)}
    return NCSeries(truncation, 2, terms)


def exp_of_sum(truncation: int) -> NCSeries:
    """The reference flow e^{A+B} as a truncated series, in closed form: 1/|w|! at every word;
    refused by _truncation, listing no word, past the word budget (truncation 19 on)."""
    n = _truncation(truncation)
    return NCSeries(n, 2, {w: Fraction(1, math.factorial(q))
                           for q in range(n + 1) for w in itertools.product((0, 1), repeat=q)})


def local_error_series(scheme: SymbolicScheme, truncation: int) -> NCSeries:
    """Splitting product minus e^{A+B}; the degree-0 part cancels exactly."""
    return splitting_product(scheme, truncation) - exp_of_sum(truncation)
