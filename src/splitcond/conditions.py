"""Order conditions for exponential splitting schemes, by two routes.

A scheme with stage coefficients a_1..a_s, b_1..b_s approximates e^{(A+B)t}
by the product e^{a_1 A t} e^{b_1 B t} ... e^{a_s A t} e^{b_s B t}.  It has
order p when the local error (product minus exact exponential) vanishes
through degree p.  This module turns that requirement into polynomial
condition systems on the stage coefficients:

* the logarithm route: take log of the splitting product at the Lyndon words
  and their suffixes only, subtract A + B, and read its Lyndon-basis coordinates;
* the Taylor route: the q-th t-derivative of the local error at t = 0 is
  q! times its degree-q part.  e^{A+B} has coefficient 1/q! at every word
  of length q, so the condition at a Lyndon word w of degree q is
  q! * F[w] - 1, read straight off the splitting product F.

F is formed right to left, acc <- e^{cX} acc with e^{cX} = sum_j c^j X^j / j!, and
only where a route reads it: at the Lyndon words and their suffixes, or at every
factor of them for the logarithm.  Both sets are suffix-closed, so F is exact on
them, because (e^{cX} acc)[X^j v] reads acc only at the suffix v.

The two resulting systems are not textually identical but cut out the same
solution sets; systems_equivalent() is the falsification harness for that.
Both routes emit, per degree q <= p and per Lyndon word of that degree, one
polynomial that must vanish.  No lower-order conditions are substituted
during generation, so the polynomials trace directly back to the series.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from .lyndon import LieDecomposition, _lyndon_coordinates, lyndon_words, lyndon_words_of_degree
from .poly import Poly, Scalar
from .series import NCSeries, Word, _log, _product, exp, word_str

ROUTES = ("taylor", "bch")


class NotOrderP(ValueError):
    """Scheme does not satisfy the order-p conditions it was claimed to."""


def _as_fraction_tuple(values: Iterable[Scalar]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class ConcreteScheme:
    """A splitting scheme with explicit rational stage coefficients."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_fraction_tuple(self.a))
        object.__setattr__(self, "b", _as_fraction_tuple(self.b))
        if len(self.a) != len(self.b):
            raise ValueError("coefficient lists a and b must have equal length")
        if not self.a:
            raise ValueError("a scheme needs at least one stage")

    @property
    def stages(self) -> int:
        return len(self.a)

    def point(self) -> tuple[Fraction, ...]:
        """Stage coefficients in canonical symbol order a1, b1, a2, b2, ..."""
        return tuple(x for pair in zip(self.a, self.b) for x in pair)

    def padded(self, stages: int) -> "ConcreteScheme":
        """Same scheme embedded in a larger stage count by zero coefficients."""
        if stages < self.stages:
            raise ValueError("cannot pad to fewer stages")
        extra = stages - self.stages
        return ConcreteScheme(
            self.a + (Fraction(0),) * extra,
            self.b + (Fraction(0),) * extra,
            self.name,
        )

    def __str__(self) -> str:
        label = self.name or "scheme"
        a = ", ".join(str(x) for x in self.a)
        b = ", ".join(str(x) for x in self.b)
        return f"{label}(a=[{a}], b=[{b}])"


@dataclass(frozen=True)
class SymbolicScheme:
    """Stage coefficients as polynomials; generic() gives the symbols a_j, b_j."""

    a: tuple[Poly, ...]
    b: tuple[Poly, ...]

    @property
    def stages(self) -> int:
        return len(self.a)

    @classmethod
    def generic(cls, stages: int) -> "SymbolicScheme":
        if stages < 1:
            raise ValueError("stage count must be >= 1")
        return cls(
            tuple(Poly.symbol("a", j) for j in range(1, stages + 1)),
            tuple(Poly.symbol("b", j) for j in range(1, stages + 1)),
        )

    @classmethod
    def from_concrete(cls, scheme: ConcreteScheme) -> "SymbolicScheme":
        return cls(
            tuple(Poly.const(x) for x in scheme.a),
            tuple(Poly.const(x) for x in scheme.b),
        )


def splitting_product(scheme: SymbolicScheme, truncation: int) -> NCSeries:
    """e^{a_1 A} e^{b_1 B} ... e^{a_s A} e^{b_s B}, multiplied right to left in closed form."""
    return _splitting_product(scheme, truncation)


def _splitting_product(scheme: SymbolicScheme, truncation: int, keep: set | None = None):
    # only at the words of keep if given, which must hold () and be suffix-closed
    factors = [(x, c) for pair in zip(scheme.a, scheme.b) for x, c in enumerate(pair)]
    acc, degrees = NCSeries.unit(truncation), range(1, truncation + 1)
    for letter, c in reversed(factors):
        # c^j/j! = c^(j-1)/(j-1)! * c/j; NCSeries drops the zero terms of a zero stage
        powers = accumulate(degrees, lambda x, j: x * c * Fraction(1, j), initial=Poly.const(1))
        factor = NCSeries(truncation, 2, {(letter,) * j: x for j, x in enumerate(powers)})
        acc = _product(factor, acc, truncation, keep)
    return acc


def _sum_of_letters(truncation: int) -> NCSeries:
    return NCSeries.letter(0, truncation) + NCSeries.letter(1, truncation)


def exp_of_sum(truncation: int) -> NCSeries:
    """The reference flow e^{A+B} as a truncated series."""
    return exp(_sum_of_letters(truncation))


def local_error_series(scheme: SymbolicScheme, truncation: int) -> NCSeries:
    """Splitting product minus e^{A+B}; the degree-0 part cancels exactly."""
    return splitting_product(scheme, truncation) - exp_of_sum(truncation)


@dataclass(frozen=True)
class ConditionEntry:
    """One order condition: a polynomial attached to a degree and Lyndon word."""

    degree: int
    word: Word
    polynomial: Poly
    rhs: Fraction = Fraction(0)

    def residual(self, scheme: ConcreteScheme) -> Fraction:
        return self.polynomial.evaluate(scheme.point()) - self.rhs

    def __str__(self) -> str:
        return f"deg {self.degree}  {word_str(self.word)}  {self.polynomial} = {self.rhs}"


def _all_within(residuals: Iterable[tuple[int, Word, Fraction]], tol: Scalar = 0) -> bool:
    # the one satisfaction rule: every |residual| <= tol, so tol == 0 is exact
    return all(abs(r) <= tol for _, _, r in residuals)


@dataclass(frozen=True)
class ConditionSystem:
    """Ordered conditions whose simultaneous vanishing gives order p."""

    stages: int
    order: int
    route: str
    entries: tuple[ConditionEntry, ...]

    def residuals(self, scheme: ConcreteScheme) -> list[tuple[int, Word, Fraction]]:
        if scheme.stages != self.stages:
            raise ValueError(
                f"scheme has {scheme.stages} stages, system expects {self.stages}"
            )
        point = scheme.point()
        return [
            (e.degree, e.word, e.polynomial.evaluate(point) - e.rhs)
            for e in self.entries
        ]

    def satisfied_by(self, scheme: ConcreteScheme, tol: Scalar = 0) -> bool:
        """Exact satisfaction when tol == 0; |residual| <= tol otherwise."""
        return _all_within(self.residuals(scheme), tol)

    def to_records(self) -> list[dict[str, str | int]]:
        return [
            {
                "order": e.degree,
                "lyndon": word_str(e.word),
                "polynomial": str(e.polynomial),
                "rhs": str(e.rhs),
            }
            for e in self.entries
        ]

    def __str__(self) -> str:
        header = f"{self.route} conditions, s={self.stages}, p={self.order}"
        return "\n".join([header] + [f"  {e}" for e in self.entries])


# a process verifies at a few (s, p) only: 16 systems per route bound the memory
@functools.lru_cache(maxsize=16)
def conditions_taylor(stages: int, p: int) -> ConditionSystem:
    """Order conditions q! * F[w] - 1 at the Lyndon words w of the product F.

    These are the q!-scaled Lyndon-word coefficients of the local error,
    since e^{A+B} has coefficient 1/q! at every word of length q.
    """
    if p < 1:
        raise ValueError("target order must be >= 1")
    keep = {w[i:] for w in lyndon_words(2, p) for i in range(len(w) + 1)}
    product = _splitting_product(SymbolicScheme.generic(stages), p, keep)
    entries = [
        ConditionEntry(q, word, product.coefficient(word) * math.factorial(q) - 1)
        for q in range(1, p + 1)
        for word in lyndon_words_of_degree(2, q)
    ]
    return ConditionSystem(stages, p, "taylor", tuple(entries))


@functools.lru_cache(maxsize=16)
def conditions_bch(stages: int, p: int) -> ConditionSystem:
    """Order conditions: Lyndon-basis coordinates of log(product) - (A+B).

    The degree-q part of the logarithm is the same at every truncation >= q,
    so the series is built at truncation p.  Its degrees >= 2 are Lie elements
    and its degree 1 is affine in A and B, so back-substitution at the Lyndon
    words of each degree reads the coordinates unchecked.  It reads only
    there, so the logarithm is formed only at Lyndon words and their suffixes.
    """
    if p < 1:
        raise ValueError("target order must be >= 1")
    words = lyndon_words(2, p)
    keep = {w[i:j] for w in words for j in range(len(w) + 1) for i in range(j + 1)}
    product = _splitting_product(SymbolicScheme.generic(stages), p, keep)
    deviation = _log(product, words) - _sum_of_letters(p)
    entries: list[ConditionEntry] = []
    for q in range(1, p + 1):
        coordinates = _lyndon_coordinates(deviation, q)
        for word in lyndon_words_of_degree(2, q):
            entries.append(ConditionEntry(q, word, coordinates.coefficient(word)))
    return ConditionSystem(stages, p, "bch", tuple(entries))


def condition_system(stages: int, p: int, route: str) -> ConditionSystem:
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}, got {route!r}")
    if route == "taylor":
        return conditions_taylor(stages, p)
    return conditions_bch(stages, p)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one scheme against one condition system."""

    scheme: ConcreteScheme
    order: int
    route: str
    satisfied: bool
    residuals: tuple[tuple[int, Word, Fraction], ...]

    def nonzero_residuals(self) -> list[tuple[int, Word, Fraction]]:
        return [(q, w, r) for q, w, r in self.residuals if r != 0]


def verify_scheme(
    scheme: ConcreteScheme, p: int, route: str = "bch"
) -> VerificationReport:
    """Evaluate the order-p condition system at the scheme, exactly."""
    system = condition_system(scheme.stages, p, route)
    residuals = tuple(system.residuals(scheme))
    return VerificationReport(scheme, p, route, _all_within(residuals), residuals)


@dataclass(frozen=True)
class WitnessVerdict:
    scheme: ConcreteScheme
    satisfied_first: bool
    satisfied_second: bool
    residuals_first: tuple[tuple[int, Word, Fraction], ...]
    residuals_second: tuple[tuple[int, Word, Fraction], ...]

    @property
    def agree(self) -> bool:
        return self.satisfied_first == self.satisfied_second


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-witness verdicts of two condition systems; a falsification harness."""

    verdicts: tuple[WitnessVerdict, ...]

    @property
    def all_agree(self) -> bool:
        return all(v.agree for v in self.verdicts)

    def disagreements(self) -> list[WitnessVerdict]:
        return [v for v in self.verdicts if not v.agree]


def systems_equivalent(
    first: ConditionSystem,
    second: ConditionSystem,
    witnesses: Sequence[ConcreteScheme],
    tol: Scalar = 0,
) -> EquivalenceReport:
    """Check that every witness satisfies both systems or neither.

    With tol == 0 satisfaction is exact; a positive tol admits witnesses
    produced by floating-point root refinement.  Agreement on a witness set
    can falsify equivalence, never prove it.
    """
    if (first.stages, first.order) != (second.stages, second.order):
        raise ValueError("systems compare only at equal stage count and order")
    verdicts = []
    for scheme in witnesses:
        r1 = tuple(first.residuals(scheme))
        r2 = tuple(second.residuals(scheme))
        verdicts.append(
            WitnessVerdict(scheme, _all_within(r1, tol), _all_within(r2, tol), r1, r2)
        )
    return EquivalenceReport(tuple(verdicts))


def leading_error_term(scheme: ConcreteScheme, p: int) -> LieDecomposition:
    """Lyndon decomposition of the first nonvanishing local-error term.

    Requires the scheme to satisfy the order-p conditions (NotOrderP
    otherwise).  The degree-(p+1) part of the local error then equals the
    degree-(p+1) part of log(product) - (A+B), so both the check and the
    term are the residuals of conditions_bch(stages, p + 1) at the scheme.
    """
    if p < 1:
        raise ValueError("target order must be >= 1")
    residuals = conditions_bch(scheme.stages, p + 1).residuals(scheme)
    if not _all_within(r for r in residuals if r[0] <= p):
        raise NotOrderP(f"{scheme} does not satisfy the order-{p} conditions")
    return LieDecomposition(
        p + 1, {w: Poly.const(r) for q, w, r in residuals if q > p and r != 0}
    )
