"""Order conditions for exponential splitting schemes, by two routes.

A scheme a_1..a_s, b_1..b_s has order p when F = e^{a_1 A t} e^{b_1 B t} ...
e^{a_s A t} e^{b_s B t} matches e^{(A+B)t} through degree p.  Per degree q <= p and
Lyndon word w of degree q, the Taylor route emits q! F[w] - 1 (e^{A+B} has coefficient
1/q! at every word of length q), and the BCH route the Lyndon-basis coordinate at w
of log(F) - (A + B); each must vanish.

Both run one divided-power recurrence.  With stage values n = D c, D the lcm of their
denominators, G[w] = |w|! D^|w| F[w] is formed right to left, e^{cX} sending G[X^j v] to
sum_j C(|w|, j) n^j G[v], on the Lyndon words and their suffixes, a suffix-closed set,
one kernel call (a sweep) per factor: _int_sweep over ints, poly._sweep over integer maps.
log(F) is Horner's scheme acc <- c_k + F acc - acc, c_k = L (-1)^(k+1) / k, L = lcm(1..p),
as in Casas & Murua (J. Math. Phys. 2009).  Over Poly's packed integer maps, with D = 1 and
each n^j a packed monomial, F acc is that recurrence started from acc, so the systems never
expand F; over ints, for a concrete scheme, G[u] is one int, and one sweep per pass
multiplies by G on the words' factors.  So verify_scheme and leading_error_term build no
symbolic system, and every residual that vanishes is one shared Fraction(0).
systems_equivalent() checks on witnesses that the two systems cut out the same solution sets.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .lyndon import LieDecomposition, _back_substitute, _product_steps, _Tables
from .poly import _ONE, MAX_EXPONENT, Poly, Scalar, _dot, _sweep, sum_of_products
from .series import NCSeries, Word, exp, word_str

ROUTES = ("taylor", "bch")
_NIL = Fraction(0)  # every vanishing residual


class NotOrderP(ValueError):
    """Scheme does not satisfy the order-p conditions it was claimed to."""


class _SchemeFields(NamedTuple):
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    name: str | None = None


class ConcreteScheme(_SchemeFields):
    """A splitting scheme with explicit rational stage coefficients."""

    __slots__ = ()

    def __new__(cls, a: Iterable[Scalar], b: Iterable[Scalar], name: str | None = None):
        a, b = tuple(map(Fraction, a)), tuple(map(Fraction, b))
        if len(a) != len(b):
            raise ValueError("coefficient lists a and b must have equal length")
        if not a:
            raise ValueError("a scheme needs at least one stage")
        return _SchemeFields.__new__(cls, a, b, name)

    @classmethod
    def _make(cls, iterable: Iterable) -> "ConcreteScheme":
        # _replace builds through _make; route it through the checks of __new__
        return cls(*iterable)

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
        extra = (Fraction(0),) * (stages - self.stages)
        return ConcreteScheme(self.a + extra, self.b + extra, self.name)

    def __str__(self) -> str:
        label = self.name or "scheme"
        a = ", ".join(str(x) for x in self.a)
        b = ", ".join(str(x) for x in self.b)
        return f"{label}(a=[{a}], b=[{b}])"


class SymbolicScheme(NamedTuple):
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
        return cls(*(tuple(Poly.symbol(k, j) for j in range(1, stages + 1)) for k in "ab"))

    @classmethod
    def from_concrete(cls, scheme: ConcreteScheme) -> "SymbolicScheme":
        return cls(tuple(map(Poly.const, scheme.a)), tuple(map(Poly.const, scheme.b)))


def splitting_product(scheme: SymbolicScheme, truncation: int) -> NCSeries:
    """e^{a_1 A} e^{b_1 B} ... e^{a_s A} e^{b_s B}, by the divided-power recurrence."""
    words = (w for n in range(truncation + 1) for w in itertools.product((0, 1), repeat=n))
    a, b = ([[n**j for j in range(truncation + 1)] for n in x] for x in (scheme.a, scheme.b))
    g = _divided_product(a, b, _product_steps(words), _ONE, sum_of_products, _int_sweep)
    terms = {w: c * Fraction(1, math.factorial(len(w))) for w, c in g.items()}
    return NCSeries(truncation, 2, terms)


def _divided_product(a: Sequence, b: Sequence, steps: dict[int, list], one, dot, sweep) -> dict:
    # G[w] = |w|! D^|w| F[w] on the suffix-closed words of steps, for stage values
    # n = D c as ladders [n^0 .. n^top], top the longest word; right to left, e^{cX} sends
    # G[w] to G[w] + sum_j C(|w|, j) n^j G[v] over w = X^j v, j >= 1; e^{0X} = 1 is skipped
    g = dict.fromkeys((w for rows in steps.values() for w, _ in rows), dot([]))
    g[()] = one
    ladders = [(x, n) for pair in zip(a, b) for x, n in enumerate(pair) if n[-1]]
    for letter, powers in reversed(ladders):
        sweep(g, powers, steps.get(letter, ()))
    return g


def _divided_log(sweeps: list, words, p: int, one, dot, sweep, last) -> tuple[int, dict]:
    # L |w|! D^|w| log(F)[w] at the words of last, L = lcm(1..p), over the suffix-closed
    # words: Horner's scheme acc <- c_k + F acc - acc, c_k = L (-1)^(k+1) / k, at |w| <= p - k;
    # F acc is the sweeps in turn, each adding sum c f[x] acc[v] over its rows to acc[w],
    # only on last at k = 0's last sweep.  A lone sweep (G at every split w = uv, u != (),
    # or one stage) starts from zero and subtracts nothing: its rows leave out the u = ().
    big, zero, lone = math.lcm(*range(1, p + 1)), dot([]), len(sweeps) == 1
    acc = dict.fromkeys(words, zero)
    final = sweeps[:-1] + [(f, [r for r in rows if r[0] in last]) for f, rows in sweeps[-1:]]
    for k in range(p, -1, -1):
        old = () if lone else list(acc.items())
        for f, rows in sweeps if k else final:
            sweep(acc, f, rows, p - k, lone)
        for w, y in old:
            if y and w and (k or w in last):
                acc[w] = dot([(-1, one, y)], acc[w])
        acc[()] = dot([((-1) ** (k + 1) * big // k, one, one)] if k else [])
    return big, acc


def _int_dot(terms: list[tuple[int, int, int]], start: int = 0) -> int:
    total = start
    for c, x, y in terms:
        total += c * x * y
    return total


def _int_sweep(acc: dict, f, rows: list, top: int = MAX_EXPONENT, zero: bool = False) -> None:
    # acc[w] <- acc[w] (0 if zero) + sum c f[x] acc[v] at each row (w, [(c, x, v)]) with |w| <=
    # top, over ints (or Poly, for splitting_product); rows longest first, so acc[v] is the old one
    for w, runs in rows:
        if len(w) <= top:
            total = 0 if zero else acc[w]
            for c, x, v in runs:
                total += c * f[x] * acc[v]
            acc[w] = total


def _route(a: Sequence, b: Sequence, den: int, p: int, route: str, one, dot, sweep, ladder) -> list:
    # (degree, word, numerator, offset, scale) of each condition (numerator - offset) /
    # scale, at n = D c; the offset is a constant, and ladder(x, p) is [x^0 .. x^p]
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}, got {route!r}")
    if not a:
        raise ValueError("stage count must be >= 1")
    if p < 1:
        raise ValueError("target order must be >= 1")
    if p > MAX_EXPONENT:  # a packed exponent carries past its byte there
        raise ValueError(f"target order must be <= {MAX_EXPONENT}")
    tables = _Tables(p, 2)
    words = [(q, w) for q in range(1, p + 1) for w in tables.lyndon[q]]
    a, b = ([ladder(x, p) for x in xs] for xs in (a, b))
    if route == "taylor":
        g = _divided_product(a, b, tables.suffix_steps, one, dot, sweep)
        return [(q, w, g[w], den**q, den**q) for q, w in words]
    if isinstance(one, int):  # G[u] is one int: one sweep by the expanded product
        sweeps = [(_divided_product(a, b, tables.factor_steps, one, dot, sweep), tables.log_steps)]
    else:  # a sweep per stage, e^{a_1 A} last, over the suffixes its letter leads
        sweeps = [(n, tables.suffix_steps[x]) for ab in zip(a, b) for x, n in enumerate(ab)][::-1]
    big, acc = _divided_log(sweeps, tables.suffixes, p, one, dot, sweep, tables.lyndon_set)
    read = [_back_substitute(acc, q, tables, one, dot) for q in range(p + 1)]
    # less A + B, after the read: at degree 1 it reads the value itself
    return [(q, w, read[q].get(w, dot([])), big * den * (q == 1), big * math.factorial(q) * den**q)
            for q, w in words]


def _residuals(scheme: ConcreteScheme, p: int, route: str) -> list[tuple[int, Word, Fraction]]:
    # the route over ints: stage values scaled by D, the lcm of their denominators
    den = math.lcm(*(c.denominator for c in scheme.point()))
    a, b = ([c.numerator * (den // c.denominator) for c in x] for x in (scheme.a, scheme.b))
    ladder = lambda n, top: [n**j for j in range(top + 1)]
    entries = _route(a, b, den, p, route, 1, _int_dot, _int_sweep, ladder)
    return [(q, w, Fraction(d, s) if (d := n - o) else _NIL) for q, w, n, o, s in entries]


def exp_of_sum(truncation: int) -> NCSeries:
    """The reference flow e^{A+B} as a truncated series."""
    return exp(NCSeries.letter(0, truncation) + NCSeries.letter(1, truncation))


def local_error_series(scheme: SymbolicScheme, truncation: int) -> NCSeries:
    """Splitting product minus e^{A+B}; the degree-0 part cancels exactly."""
    return splitting_product(scheme, truncation) - exp_of_sum(truncation)


class ConditionEntry(NamedTuple):
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
    # the one satisfaction rule: every |residual| <= tol, which at tol == 0 is r == 0
    return all(abs(r) <= tol if tol else not r for _, _, r in residuals)


class ConditionSystem(NamedTuple):
    """Ordered conditions whose simultaneous vanishing gives order p."""

    stages: int
    order: int
    route: str
    entries: tuple[ConditionEntry, ...]

    def residuals(self, scheme: ConcreteScheme) -> list[tuple[int, Word, Fraction]]:
        if scheme.stages != self.stages:
            raise ValueError(f"scheme has {scheme.stages} stages, system expects {self.stages}")
        point = scheme.point()
        return [(e.degree, e.word, e.polynomial.evaluate(point) - e.rhs) for e in self.entries]

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


def condition_system(stages: int, p: int, route: str) -> ConditionSystem:
    """The order-p conditions of the generic s-stage scheme by one route, built on each call.

    A bad route is reported before a bad stage count, and that before a bad order.
    """
    # over Poly's integer maps, with a_j at symbol index 2j-2 and b_j at 2j-1
    a, b = range(0, 2 * stages, 2), range(1, 2 * stages, 2)
    ladder = lambda i, top: [e << 8 * i for e in range(top + 1)]  # packed monomials
    entries = []
    for q, w, nums, offset, scale in _route(a, b, 1, p, route, {0: 1}, _dot, _sweep, ladder):
        if offset:  # a constant, subtracted once on the map
            nums = {**nums, 0: nums.get(0, 0) - offset}
            if not nums[0]:
                del nums[0]
        entries.append(ConditionEntry(q, w, Poly._of(scale, nums)))
    return ConditionSystem(stages, p, route, tuple(entries))


def conditions_taylor(stages: int, p: int) -> ConditionSystem:
    """Order conditions q! * F[w] - 1 at the Lyndon words w of the product F.

    These are the q!-scaled Lyndon-word coefficients of the local error,
    since e^{A+B} has coefficient 1/q! at every word of length q.
    """
    return condition_system(stages, p, "taylor")


def conditions_bch(stages: int, p: int) -> ConditionSystem:
    """Order conditions: Lyndon-basis coordinates of log(product) - (A+B).

    Degrees >= 2 of the logarithm are Lie elements and degree 1 is affine in A
    and B, so back-substitution at the Lyndon words reads them unchecked.
    """
    return condition_system(stages, p, "bch")


class VerificationReport(NamedTuple):
    """Outcome of checking one scheme against one condition system."""

    scheme: ConcreteScheme
    order: int
    route: str
    satisfied: bool
    residuals: tuple[tuple[int, Word, Fraction], ...]

    def nonzero_residuals(self) -> list[tuple[int, Word, Fraction]]:
        return [(q, w, r) for q, w, r in self.residuals if r != 0]


def verify_scheme(scheme: ConcreteScheme, p: int, route: str = "bch") -> VerificationReport:
    """The order-p residuals at the scheme, exactly, by the route's pass over ints."""
    residuals = tuple(_residuals(scheme, p, route))
    return VerificationReport(scheme, p, route, _all_within(residuals), residuals)


class WitnessVerdict(NamedTuple):
    scheme: ConcreteScheme
    satisfied_first: bool
    satisfied_second: bool
    residuals_first: tuple[tuple[int, Word, Fraction], ...]
    residuals_second: tuple[tuple[int, Word, Fraction], ...]

    @property
    def agree(self) -> bool:
        return self.satisfied_first == self.satisfied_second


class EquivalenceReport(NamedTuple):
    """Per-witness verdicts of two condition systems; a falsification harness."""

    verdicts: tuple[WitnessVerdict, ...]

    @property
    def all_agree(self) -> bool:
        return all(v.agree for v in self.verdicts)

    def disagreements(self) -> list[WitnessVerdict]:
        return [v for v in self.verdicts if not v.agree]


def systems_equivalent(first: ConditionSystem, second: ConditionSystem,
                       witnesses: Sequence[ConcreteScheme], tol: Scalar = 0) -> EquivalenceReport:
    """Check that every witness satisfies both systems or neither.

    With tol == 0 satisfaction is exact; a positive tol admits witnesses
    produced by floating-point root refinement.  Agreement on a witness set
    can falsify equivalence, never prove it.
    """
    if (first.stages, first.order) != (second.stages, second.order):
        raise ValueError("systems compare only at equal stage count and order")
    verdicts = []
    for scheme in witnesses:
        r1, r2 = tuple(first.residuals(scheme)), tuple(second.residuals(scheme))
        verdicts.append(WitnessVerdict(scheme, _all_within(r1, tol), _all_within(r2, tol), r1, r2))
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
    residuals = _residuals(scheme, p + 1, "bch")
    if not _all_within(r for r in residuals if r[0] <= p):
        raise NotOrderP(f"{scheme} does not satisfy the order-{p} conditions")
    return LieDecomposition(
        p + 1, {w: Poly.const(r) for q, w, r in residuals if q > p and r != 0}
    )
