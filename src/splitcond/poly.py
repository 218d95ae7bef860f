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
bytes with no trailing zeros, for inspection; printing reads the packed map.
Poly values are immutable by convention: no method mutates ``self`` or its
arguments.  An evaluation point is a sequence of values in the same index order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import index, or_
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


def _whole(value, name: str) -> int:
    # the one integer rule for an entry point's integer argument: anything operator.index
    # takes but a bool, as an int; TypeError naming the argument otherwise
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not bool")
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None


def _unpack(mono: int, width: int | None = None) -> bytes:
    # byte i is the exponent of symbol index i; by default no trailing zeros
    return mono.to_bytes((mono.bit_length() + 7) // 8 if width is None else width, "little")


def _check_guard(monos: Mapping[int, object]) -> None:
    # a product of factors within MAX_EXPONENT may set a guard bit, never carry past it
    merged = reduce(or_, monos, 0)
    if merged & int.from_bytes(b"\x80" * len(_unpack(merged)), "little"):
        raise ValueError(f"monomial exponent over {MAX_EXPONENT}")


class Poly:
    """Sparse exact polynomial in the stage symbols, immutable by convention."""

    __slots__ = ("_den", "_nums")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        values: dict[int, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            try:  # keys differing by trailing zeros are one monomial; 128 stands for any e > 127
                exps = bytes(min(_whole(e, "exponent"), 128) for e in mono)  # a bool is no exponent
            except (TypeError, ValueError):
                raise ValueError(f"not a tuple of integer exponents: {mono!r}") from None
            packed = int.from_bytes(exps, "little")
            values[packed] = values.get(packed, 0) + Fraction(coeff)
        _check_guard(values)
        # over the lcm of reduced denominators the form is already reduced
        den = self._den = math.lcm(*(c.denominator for c in values.values()))
        self._nums = {m: c.numerator * (den // c.denominator) for m, c in values.items() if c}

    @classmethod
    def _of(cls, den: int, nums: dict[int, int]) -> "Poly":
        # nums / den with den > 0 and no zero numerator; takes ownership of nums, so the caller
        # must not use it again; divides out the common factor, with no gcd when den == 1
        common = 1 if den == 1 else math.gcd(den, *nums.values())
        poly = object.__new__(cls)
        poly._den = den // common
        poly._nums = {m: n // common for m, n in nums.items()} if common > 1 else nums
        return poly

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        n, d = Fraction(value).as_integer_ratio()
        return cls._of(d, {0: n} if n else {})

    @classmethod
    def symbol(cls, kind: str, stage: int) -> "Poly":
        """The stage coefficient a_stage or b_stage."""
        if kind not in SYMBOL_KINDS:
            raise ValueError(f"symbol kind must be one of {SYMBOL_KINDS}, got {kind!r}")
        if (stage := _whole(stage, "stage index")) < 1:
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
            if other == 1:  # immutable, so the product by 1 is self
                return self
            n, d = other.as_integer_ratio()
            return Poly._of(self._den * d, {m: c * n for m, c in self._nums.items()} if n else {})
        if not isinstance(other, Poly):
            return NotImplemented
        return sum_of_products([(1, self, other)])

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if (exponent := _whole(exponent, "polynomial exponent")) < 0:
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
        if bad := [v for v in values[:width] if not isinstance(v, (int, Fraction))]:
            raise TypeError(f"cannot evaluate exactly at {bad[0]!r}: values are ints or Fractions")
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
        """A constant hashes as the number it equals, as == compares the two."""
        is_const = self._nums.keys() <= {0}
        return hash(self.constant() if is_const else (self._den, frozenset(self._nums.items())))

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        # graded lexicographic, highest first: degree, then exponent bytes in symbol order (of
        # one degree, no stripped vector is a prefix of another); factors show kind-major
        den, width = self._den, (max(self._nums, default=0).bit_length() + 7) // 8
        names = [_symbol_name(i) for i in [*range(0, width, 2), *range(1, width, 2)]]
        rows = sorted(((_unpack(m, width), n) for m, n in self._nums.items()),
                      key=lambda row: (sum(row[0]), row[0]), reverse=True)
        pieces: list[str] = []
        for exps, num in rows:
            body = "*".join([x if e == 1 else f"{x}^{e}"
                             for x, e in zip(names, exps[0::2] + exps[1::2]) if e])
            g = math.gcd(num, den)
            magnitude = str(abs(num) // g) if g == den else f"{abs(num) // g}/{den // g}"
            text = f"{magnitude}*{body}" if body and magnitude != "1" else body or magnitude
            pieces.append(("+ " if num > 0 else "- ") + text)
        return _signed_join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"


_ZERO, _ONE = Poly(), Poly.const(1)


def _signed_join(pieces: list[str]) -> str:
    # "+ x" and "- y" pieces joined by spaces, a leading "+ " dropped and "- " kept as "-";
    # no pieces print as 0
    joined = " ".join(pieces) or "+ 0"
    return joined[2:] if joined[0] == "+" else "-" + joined[2:]


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


def _int_product(acc: list, factors: list, steps: dict) -> None:
    # right to left over the factor word (X, n), acc[w] += sum c n^j acc[v] at each row (w, |w|,
    # [(c, v)]) of steps[X], n^j a running product over the runs, the j-th run's; over ints or
    # Poly; rows longest first read the old acc[v], the Lyndon read's solved ones
    for letter, n in reversed(factors):
        for w, _, runs in steps.get(letter, ()):
            total, power = acc[w], 1
            for c, v in runs:
                power *= n
                total += c * power * acc[v]
            acc[w] = total


def _map_product(acc: list, factors: list, steps: dict, top: int = MAX_EXPONENT) -> None:
    # _int_product over integer maps at |w| <= top, n^j adding j units 1 << 8(k - 1) of symbol k
    # to each key (the unit factor k = 0 shifts by 0); each row gets a new map: no start mutates
    for letter, k in reversed(factors):
        unit = 1 << 8 * k >> 8
        for w, size, runs in steps.get(letter, ()):
            if size <= top:
                total, shift = dict(acc[w]), 0
                for c, v in runs:
                    shift += unit
                    for m, x in acc[v].items():
                        m += shift
                        total[m] = total.get(m, 0) + c * x
                acc[w] = {m: x for m, x in total.items() if x} if 0 in total.values() else total


def _map_fresh(acc: list, factors: list, steps: dict) -> None:
    # _map_product from the unit start [{}] * (n - 1) + [{0: 1}], each symbol k >= 1 named once:
    # factor k meets no x_k yet, so run j stores each term at a new key, with no get and no zero
    # filter (c >= 1, x != 0); a slot's first write replaces the shared {} by a map of its own
    for letter, k in reversed(factors):
        unit = 1 << 8 * k >> 8
        for w, _, runs in steps.get(letter, ()):
            total, shift = acc[w] or {}, 0
            for c, v in runs:
                shift += unit
                for m, x in acc[v].items():
                    total[m + shift] = c * x
            acc[w] = total


def _int_log(acc: list, g: list, rows: list, p: int) -> int:
    # L |w|! D^|w| log(F)[w] into acc at suffix-closed slots, () last, returning L = lcm(1..p): at
    # k = p .. 0, acc[w] = sum c G[u] acc[v] at each row (w, |w|, [(c, u, v)]) with |w| <= p - k,
    # (G - 1) acc as no row has u = (), then acc[()] = L (-1)^(k+1) / k, or 0 at k = 0
    big = math.lcm(*range(1, p + 1))
    for top, k in enumerate(range(p, -1, -1)):
        for w, size, runs in rows:  # longest first, so each reads the old acc[v]
            if size <= top:
                total = 0
                for c, u, v in runs:
                    total += c * g[u] * acc[v]
                acc[w] = total
        acc[-1] = (-1) ** (k + 1) * big // k if k else 0
    return big


def _map_log(acc: list, factors: list, steps: dict, last: list, p: int) -> int:
    # _int_log over integer maps from a zero start, acc <- c_k + F acc - acc: one _map_product call
    # from acc, then - acc into a new map at each slot, at last only when k = 0; mutates no start
    big = math.lcm(*range(1, p + 1))
    for k in range(p, -1, -1):
        old = acc[:]
        _map_product(acc, factors, steps, p - k)
        for w in range(len(acc) - 1) if k else last:
            if old[w]:
                total = dict(acc[w])
                for m, x in old[w].items():
                    total[m] = total.get(m, 0) - x
                acc[w] = {m: x for m, x in total.items() if x} if 0 in total.values() else total
        acc[-1] = {0: (-1) ** (k + 1) * big // k} if k else {}
    return big


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
