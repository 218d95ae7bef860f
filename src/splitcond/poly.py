"""Exact multivariate polynomials in splitting-scheme stage coefficients.

This is the coefficient ring used by every symbolic computation in the
package: commutative polynomials over arbitrary-precision rationals
(``fractions.Fraction``) in the stage symbols a1..as, b1..bs of a splitting
scheme.

Representation
--------------
A monomial is a tuple of integer exponents indexed by symbol in the
canonical order a1, b1, a2, b2, ... (a_j at index 2j-2, b_j at 2j-1), with
trailing zeros removed.  The empty tuple is the monomial 1, and a monomial
product is an elementwise sum, the shorter tuple padded with zeros.

A polynomial is integer numerators over one positive common denominator:
a map from monomials to nonzero ints, and the denominator d, with no factor
common to d and all the numerators:

    a1*b2/2 - a2*b1   ->   d = 2, {(1, 0, 0, 1): 1, (0, 1, 1): -2}

The zero polynomial is d = 1 with an empty map.  All operations return
results in this canonical form, so equality is plain comparison, and a
product or sum reduces each result once, by one gcd, not each coefficient.
``Poly.terms`` builds the {monomial: Fraction} view for printing and
inspection.  Poly values are immutable by convention: no method mutates
``self`` or its arguments.  :class:`Symbol` names an index in evaluation
points and printing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from operator import add
from typing import Iterable, Mapping, Union

Rational = Fraction

SYMBOL_KINDS = ("a", "b")


class MissingAssignment(LookupError):
    """Evaluation point does not assign a value to a symbol of the polynomial."""


@dataclass(frozen=True)
class Symbol:
    """One stage coefficient of a splitting scheme: a_j or b_j."""

    kind: str
    stage: int

    def __post_init__(self) -> None:
        if self.kind not in SYMBOL_KINDS:
            raise ValueError(f"symbol kind must be one of {SYMBOL_KINDS}, got {self.kind!r}")
        if self.stage < 1:
            raise ValueError(f"stage index must be >= 1, got {self.stage}")

    @property
    def index(self) -> int:
        """Position in the canonical order a1 < b1 < a2 < b2 < ... of monomials."""
        return 2 * (self.stage - 1) + SYMBOL_KINDS.index(self.kind)

    @staticmethod
    def at(index: int) -> "Symbol":
        return Symbol(SYMBOL_KINDS[index % 2], index // 2 + 1)

    def __str__(self) -> str:
        return f"{self.kind}{self.stage}"


# A monomial: exponents in symbol-index order, no trailing zeros; () is 1.
Monomial = tuple[int, ...]

Scalar = Union[int, Fraction]

_ONE_MONO: Monomial = ()


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if len(m1) < len(m2):
        m1, m2 = m2, m1
    return tuple(map(add, m1, m2)) + m1[len(m2) :]


def _mono_str(m: Monomial) -> str:
    # factors display kind-major (a1*a2*...*b1*b2) like handwritten products
    order = [*range(0, len(m), 2), *range(1, len(m), 2)]
    return "*".join(str(Symbol.at(i)) + f"^{m[i]}" * (m[i] > 1) for i in order if m[i])


class Poly:
    """Sparse exact polynomial in the stage symbols, immutable by convention."""

    __slots__ = ("_den", "_nums")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        values = {mono: Fraction(coeff) for mono, coeff in (terms or {}).items()}
        # over the lcm of reduced denominators the form is already reduced
        den = self._den = math.lcm(*(c.denominator for c in values.values()))
        self._nums = {m: c.numerator * (den // c.denominator) for m, c in values.items() if c}

    @classmethod
    def _of(cls, den: int, nums: dict[Monomial, int]) -> "Poly":
        # nums / den with den > 0 and no zero numerator; divides out the common factor
        common = math.gcd(den, *nums.values())
        poly = object.__new__(cls)
        poly._den = den // common
        poly._nums = {m: n // common for m, n in nums.items()} if common > 1 else nums
        return poly

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        return cls({_ONE_MONO: value})

    @classmethod
    def symbol(cls, kind: str, stage: int) -> "Poly":
        return cls._of(1, {(0,) * Symbol(kind, stage).index + (1,): 1})

    @staticmethod
    def _coerce(value: "Poly" | Scalar) -> "Poly":
        if isinstance(value, Poly):
            return value
        if isinstance(value, (int, Fraction)):
            return Poly.const(value)
        return NotImplemented  # type: ignore[return-value]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly" | Scalar) -> "Poly":
        other = Poly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products([(self, _ONE), (other, _ONE)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of(self._den, {mono: -num for mono, num in self._nums.items()})

    def __sub__(self, other: "Poly" | Scalar) -> "Poly":
        return self + -other

    def __rsub__(self, other: Scalar) -> "Poly":
        return -self + other

    def __mul__(self, other: "Poly" | Scalar) -> "Poly":
        if isinstance(other, (int, Fraction)):
            n, d = other.as_integer_ratio()
            return Poly._of(self._den * d, {m: c * n for m, c in self._nums.items()} if n else {})
        if not isinstance(other, Poly):
            return NotImplemented
        return sum_of_products([(self, other)])

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return math.prod([self] * exponent, start=_ONE)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The nonzero coefficients as {monomial: Fraction}, built on each call."""
        return {m: Fraction(n, self._den) for m, n in self._nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def constant(self) -> Fraction:
        """Coefficient of the monomial 1."""
        return Fraction(self._nums.get(_ONE_MONO, 0), self._den)

    def evaluate(self, point: Mapping[Symbol, Scalar]) -> Fraction:
        """Exact value of the polynomial at a rational point.

        Every symbol occurring in the polynomial must be assigned, otherwise
        MissingAssignment is raised.  A value n/d of highest exponent t enters
        as n^e * d^(t-e) over d^t, so the sum is formed in integers.
        """
        top = list(map(max, zip_longest(*self._nums, fillvalue=0)))
        values = {sym.index: Fraction(value) for sym, value in point.items()}
        powers: list[list[int]] = []
        for i, t in enumerate(top):
            if t and i not in values:
                raise MissingAssignment(f"no value assigned to symbol {Symbol.at(i)}")
            n, d = values[i].as_integer_ratio() if t else (1, 1)
            powers.append([n**e * d ** (t - e) for e in range(t + 1)])
        total = 0
        for mono, num in self._nums.items():
            for row, e in zip_longest(powers, mono, fillvalue=0):
                num *= row[e]
            total += num
        return Fraction(total, self._den * math.prod(row[0] for row in powers))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._nums.items())))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        # graded lexicographic, highest first: degree, then exponent vector
        # in canonical symbol order, padded to a common length.
        width = max(map(len, self._nums))
        pieces: list[str] = []
        for mono, coeff in sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), item[0] + (0,) * (width - len(item[0]))),
            reverse=True,
        ):
            body = _mono_str(mono)
            magnitude = abs(coeff)
            if not body:
                text = str(magnitude)
            elif magnitude == 1:
                text = body
            else:
                text = f"{magnitude}*{body}"
            if not pieces:
                pieces.append(text if coeff > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"


def sum_of_products(pairs: list[tuple[Poly, Poly]]) -> Poly:
    """Exact sum of p * q over pairs of polynomials.

    Products accumulate as integers over one common denominator, so the
    result is reduced once, by one gcd, not once per product or coefficient.
    """
    den = math.lcm(*(p._den * q._den for p, q in pairs))
    acc: dict[Monomial, int] = {}
    for p, q in pairs:
        scale = den // (p._den * q._den)
        right = q._nums.items()
        for m1, c1 in p._nums.items():
            c1 *= scale
            for m2, c2 in right:
                mono = _mono_mul(m1, m2) if m1 and m2 else m1 or m2
                acc[mono] = acc.get(mono, 0) + c1 * c2
    return Poly._of(den, {m: c for m, c in acc.items() if c})


_ONE = Poly.const(1)


def as_poly(value: Poly | Scalar) -> Poly:
    """Coerce an int or Fraction to a constant Poly; pass Poly through."""
    coerced = Poly._coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a polynomial")
    return coerced


def stage_point(
    a: Iterable[Scalar], b: Iterable[Scalar]
) -> dict[Symbol, Fraction]:
    """Assignment {a1: ..., b1: ..., a2: ...} from two coefficient lists."""
    point: dict[Symbol, Fraction] = {}
    for kind, values in (("a", a), ("b", b)):
        for j, value in enumerate(values, start=1):
            point[Symbol(kind, j)] = Fraction(value)
    return point
