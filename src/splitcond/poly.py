"""Exact multivariate polynomials in splitting-scheme stage coefficients.

This is the coefficient ring used by every symbolic computation in the
package: commutative polynomials over arbitrary-precision rationals
(``fractions.Fraction``) in the stage symbols a1..as, b1..bs of a splitting
scheme.

Representation
--------------
A monomial is one int, a packed exponent vector (Monagan & Pearce, CASC
2007): byte i holds the exponent of symbol index i in the order a1, b1, a2,
b2, ... (a_j at 2j-2, b_j at 2j-1), 0 is the monomial 1, and a product is one
int addition.  The top bit of each byte is a guard: an exponent is at most
MAX_EXPONENT = 127, and the constructor and every product raise ValueError past it.

A polynomial is integer numerators over one positive common denominator:
a map from monomials to nonzero ints, and the denominator d, with no factor
common to d and all the numerators:

    a1*b2/2 - a2*b1   ->   d = 2, {0x01000001: 1, 0x010100: -2}

The zero polynomial is d = 1 with an empty map.  All operations return
results in this canonical form, so equality is plain comparison, and a
product or sum reduces each result once, by one gcd, not each coefficient.
``Poly.terms`` builds the {exponent tuple: Fraction} view, each monomial's
bytes with no trailing zeros, for printing and inspection.  Poly values are
immutable by convention: no method mutates ``self`` or its arguments.  An
evaluation point is a sequence of values in the same index order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Mapping, Sequence, Union

SYMBOL_KINDS = ("a", "b")


class MissingAssignment(LookupError):
    """Evaluation point does not assign a value to a symbol of the polynomial."""


def _symbol_name(index: int) -> str:
    # index 2j-2 is a_j, 2j-1 is b_j
    return f"{SYMBOL_KINDS[index % 2]}{index // 2 + 1}"


# A monomial as shown: exponents in symbol-index order, no trailing zeros; () is 1.
Monomial = tuple[int, ...]

Scalar = Union[int, Fraction]

MAX_EXPONENT = 127


def _unpack(mono: int, width: int | None = None) -> bytes:
    # byte i is the exponent of symbol index i; by default no trailing zeros
    return mono.to_bytes((mono.bit_length() + 7) // 8 if width is None else width, "little")


def _check_guard(monos: Mapping[int, object]) -> None:
    # a product of factors within MAX_EXPONENT may set a guard bit, never carry past it
    merged = reduce(or_, monos, 0)
    if merged & int.from_bytes(b"\x80" * len(_unpack(merged)), "little"):
        raise ValueError(f"monomial exponent over {MAX_EXPONENT}")


def _mono_str(m: Monomial) -> str:
    # factors display kind-major (a1*a2*...*b1*b2) like handwritten products
    order = [*range(0, len(m), 2), *range(1, len(m), 2)]
    return "*".join(_symbol_name(i) + f"^{m[i]}" * (m[i] > 1) for i in order if m[i])


class Poly:
    """Sparse exact polynomial in the stage symbols, immutable by convention."""

    __slots__ = ("_den", "_nums")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        values: dict[int, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            try:  # keys that differ only by trailing zeros are one monomial
                packed = int.from_bytes(bytes(tuple(mono)), "little")
            except (TypeError, ValueError):
                raise ValueError(f"not a tuple of integer exponents: {mono!r}") from None
            values[packed] = values.get(packed, 0) + Fraction(coeff)
        _check_guard(values)
        # over the lcm of reduced denominators the form is already reduced
        den = self._den = math.lcm(*(c.denominator for c in values.values()))
        self._nums = {m: c.numerator * (den // c.denominator) for m, c in values.items() if c}

    @classmethod
    def _of(cls, den: int, nums: dict[int, int]) -> "Poly":
        # nums / den with den > 0 and no zero numerator; divides out the common factor
        common = math.gcd(den, *nums.values())
        poly = object.__new__(cls)
        poly._den = den // common
        poly._nums = {m: n // common for m, n in nums.items()} if common > 1 else nums
        return poly

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        return cls({(): value})

    @classmethod
    def symbol(cls, kind: str, stage: int) -> "Poly":
        """The stage coefficient a_stage or b_stage."""
        if kind not in SYMBOL_KINDS:
            raise ValueError(f"symbol kind must be one of {SYMBOL_KINDS}, got {kind!r}")
        if stage < 1:
            raise ValueError(f"stage index must be >= 1, got {stage}")
        index = 2 * (stage - 1) + SYMBOL_KINDS.index(kind)
        return cls._of(1, {1 << (8 * index): 1})

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
        return sum_of_products([(1, self, _ONE), (1, other, _ONE)])

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
        return sum_of_products([(1, self, other)])

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return math.prod([self] * exponent, start=_ONE)

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The nonzero coefficients as {monomial: Fraction}, built on each call."""
        return {tuple(_unpack(m)): Fraction(n, self._den) for m, n in self._nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def constant(self) -> Fraction:
        """Coefficient of the monomial 1."""
        return Fraction(self._nums.get(0, 0), self._den)

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        """Exact value of the polynomial at a rational point.

        ``values`` lists the point in canonical index order a1, b1, a2, b2,
        ..., as ConcreteScheme.point() does.  It must reach every symbol of
        the polynomial, otherwise MissingAssignment is raised.  With D the lcm
        of the value denominators, a row of degree e is an integer times D^(T-e)
        over D^T, T the top degree.  Each row multiplies only its nonzero fields.
        """
        exps = [(_unpack(m), n) for m, n in self._nums.items()]
        top = max((sum(r) for r, _ in exps), default=0)
        width = max((len(r) for r, _ in exps), default=0)
        rows = [([(i, e) for i, e in enumerate(r) if e], top - sum(r), n) for r, n in exps]
        if width > len(values):
            missing = min(i for fields, _, _ in rows for i, _ in fields if i >= len(values))
            raise MissingAssignment(f"no value assigned to symbol {_symbol_name(missing)}")
        den = math.lcm(*(value.denominator for value in values[:width]))
        scaled = [value.numerator * (den // value.denominator) for value in values[:width]]
        gaps = [den**g for g in range(top + 1)]
        total = 0
        for fields, gap, num in rows:
            for i, e in fields:
                num *= scaled[i] ** e
            total += num * gaps[gap]
        return Fraction(total, self._den * gaps[top])

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
        # graded lexicographic, highest first: degree, then exponent vector
        # in canonical symbol order (of one degree, neither is a prefix of the other)
        pieces: list[str] = []
        for mono, coeff in sorted(
            self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True
        ):
            body = _mono_str(mono)
            magnitude = abs(coeff)
            if not body:
                text = str(magnitude)
            elif magnitude == 1:
                text = body
            else:
                text = f"{magnitude}*{body}"
            pieces.append(("+ " if coeff > 0 else "- ") + text)
        joined = " ".join(pieces) or "+ 0"  # the zero polynomial prints as 0
        return joined[2:] if joined[0] == "+" else "-" + joined[2:]

    def __repr__(self) -> str:
        return f"Poly({self})"


_ZERO, _ONE = Poly(), Poly.const(1)


def _dot(terms: list[tuple[int, dict[int, int], dict[int, int]]], start=()) -> dict[int, int]:
    # start + the sum of c * p * q over integer maps {packed monomial: nonzero int}, with
    # no zero entry: start is copied whole, and the result is filtered only if a sum cancelled
    acc: dict[int, int] = dict(start)
    for weight, p, q in terms:
        right = q.items()
        for m1, c1 in p.items():
            c1 *= weight
            for m2, c2 in right:
                mono = m1 + m2
                acc[mono] = acc.get(mono, 0) + c1 * c2
    return {m: c for m, c in acc.items() if c} if 0 in acc.values() else acc


def _int_sweep(acc: list, f, rows: list, top: int = MAX_EXPONENT, zero: bool = False) -> None:
    # acc[w] <- acc[w] (0 if zero) + sum c f[x] acc[v] at each row (w, |w|, [(c, x, v)]) with
    # |w| <= top, over ints or Poly: rows longest first read the old acc[v], and the Lyndon
    # read's rows, in lexicographic order, read solved values
    for w, n, runs in rows:
        if n <= top:
            total = 0 if zero else acc[w]
            for c, x, v in runs:
                total += c * f[x] * acc[v]
            acc[w] = total


def _sweep(acc: list, f: list[int], rows: list, top: int = MAX_EXPONENT, zero=False) -> None:
    # acc[w] <- acc[w] ({} if zero) + sum c x^f[j] acc[v] at each row (w, |w|, [(c, j, v)])
    # with |w| <= top, over integer maps, f[j] a packed monomial added to each key; rows in
    # _int_sweep's orders, and each row gets a new map, so no start, shared or not, is mutated
    for w, n, runs in rows:
        if n <= top:
            total = {} if zero else dict(acc[w])
            for c, j, v in runs:
                shift = f[j]
                for m, x in acc[v].items():
                    m += shift
                    total[m] = total.get(m, 0) + c * x
            acc[w] = {m: x for m, x in total.items() if x} if 0 in total.values() else total


def sum_of_products(terms: list[tuple[int, Poly, Poly]], start: Poly = _ZERO) -> Poly:
    """Exact start + sum of c * p * q over integer weights c and polynomials p, q.

    The start and the products accumulate as integers over one common denominator,
    so the result is reduced once, by one gcd, not once per product or coefficient.
    """
    den = math.lcm(start._den, *(p._den * q._den for _, p, q in terms))
    base = {m: n * (den // start._den) for m, n in start._nums.items()}
    nums = _dot([(c * (den // (p._den * q._den)), p._nums, q._nums) for c, p, q in terms], base)
    _check_guard(nums)
    return Poly._of(den, nums)


def as_poly(value: Poly | Scalar) -> Poly:
    """Coerce an int or Fraction to a constant Poly; pass Poly through."""
    coerced = Poly._coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a polynomial")
    return coerced
