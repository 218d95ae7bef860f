"""Order conditions for exponential splitting schemes, by two routes.

A scheme a_1..a_s, b_1..b_s has order p when F = e^{a_1 A t} e^{b_1 B t} ...
e^{a_s A t} e^{b_s B t} matches e^{(A+B)t} through degree p.  Per degree q <= p and
Lyndon word w of degree q, the Taylor route emits q! F[w] - 1 (e^{A+B} has coefficient
1/q! at every word of length q), and the BCH route the Lyndon-basis coordinate at w
of log(F) - (A + B); each must vanish.

Both run one divided-power recurrence.  With stage values n = D c, D the lcm of their
denominators, G[w] = |w|! D^|w| F[w] is formed right to left, e^{cX} sending G[X^j v] to
sum_j C(|w|, j) n^j G[v], on the Lyndon words and their suffixes, numbered once by
lyndon._Tables, so each accumulator is a list indexed by slot, and each factor is one kernel
call (a sweep), poly._int_sweep over ints or poly._sweep over integer maps.  log(F) is Horner's
scheme acc <- c_k + F acc - acc, c_k = L (-1)^(k+1) / k, L = lcm(1..p), as in Casas & Murua
(J. Math. Phys. 2009).  Over Poly's packed integer maps, with D = 1 and each n^j a packed
monomial, F acc is that recurrence started from acc, so the systems never expand F; over ints,
for a concrete scheme, G[u] is one int, and one sweep per pass, from zero, multiplies by G - 1
on the words' factors.  The Lyndon read is one more sweep, in place by the unit, per degree that
does not vanish.  So verify_scheme and leading_error_term build no symbolic system, and every
vanishing residual is one shared Fraction(0).  check_cost() sizes a command from word counts
alone; systems_equivalent() checks on witnesses that two systems cut out the same solution sets.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .lyndon import LieDecomposition, _numbered, _product_steps, _Tables
from .poly import _ONE, MAX_EXPONENT, Poly, Scalar, _dot, _int_sweep, _sweep, sum_of_products
from .series import NCSeries, Word, exp, word_str

ROUTES = ("taylor", "bch")
_NIL = Fraction(0)  # every vanishing residual

# What check_cost lets a command plan before it builds anything: Lyndon words, and
# bytes of packed keys (2s a monomial, q a word of length q) in its output and tables.
MAX_LYNDON_WORDS, MAX_COST = 10**6, 10**8


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
    words = _numbered(w for n in range(truncation + 1) for w in itertools.product((0, 1), repeat=n))
    a, b = ([[n**j for j in range(truncation + 1)] for n in x] for x in (scheme.a, scheme.b))
    g = _divided_product(a, b, _product_steps(words), len(words), _ONE, sum_of_products, _int_sweep)
    terms = {w: c * Fraction(1, math.factorial(len(w))) for w, c in zip(words, g)}
    return NCSeries(truncation, 2, terms)


def _divided_product(a: Sequence, b: Sequence, steps: dict, size: int, one, dot, sweep) -> list:
    # G[w] = |w|! D^|w| F[w] at the size slots of steps, () last, for stage values n = D c
    # as ladders [n^0 .. n^top], top the longest word; right to left, e^{cX} sends G[w] to
    # G[w] + sum_j C(|w|, j) n^j G[v] over w = X^j v, j >= 1; e^{0X} = 1 is skipped
    g = [dot([])] * size
    g[-1] = one
    ladders = [(x, n) for pair in zip(a, b) for x, n in enumerate(pair) if n[-1]]
    for letter, powers in reversed(ladders):
        sweep(g, powers, steps.get(letter, ()))
    return g


def _divided_log(sweeps, final, last, size: int, p: int, one, dot, sweep, zero=False) -> tuple:
    # L |w|! D^|w| log(F)[w] at the slots of last, L = lcm(1..p), over size suffix-closed slots,
    # () last: Horner's scheme acc <- c_k + F acc - acc, c_k = L (-1)^(k+1) / k, at |w| <= p - k;
    # F acc is the sweeps (factor, rows) in turn, at k = 0 the last on the rows final.  With
    # zero each sweep starts from zero, its rows forming F acc - acc, and nothing is subtracted
    big, acc = math.lcm(*range(1, p + 1)), [dot([])] * size
    for k in range(p, -1, -1):
        old = acc[:]
        for f, rows in sweeps if k else sweeps[:-1] + [(sweeps[-1][0], final)]:
            sweep(acc, f, rows, p - k, zero)
        for w in () if zero else range(size - 1) if k else last:  # less acc, but at ()
            if old[w]:
                acc[w] = dot([(-1, one, old[w])], acc[w])
        acc[-1] = dot([((-1) ** (k + 1) * big // k, one, one)] if k else [])
    return big, acc


def _int_dot(terms: list[tuple[int, int, int]], start: int = 0) -> int:
    total = start
    for c, x, y in terms:
        total += c * x * y
    return total


def _route(a: Sequence, b: Sequence, den: int, p: int, route: str, one, dot, sweep, ladder) -> list:
    # (degree, word, numerator, offset, scale) of each condition (numerator - offset) /
    # scale, at n = D c; the offset is A + B's, a constant, and ladder(x, p) is [x^0 .. x^p]
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}, got {route!r}")
    if not a:
        raise ValueError("stage count must be >= 1")
    if p < 1:
        raise ValueError("target order must be >= 1")
    if p > MAX_EXPONENT:  # a packed exponent carries past its byte there
        raise ValueError(f"target order must be <= {MAX_EXPONENT}")
    tables = _Tables(p, 2)
    size, slots = len(tables.suffixes), tables.lyndon_slots
    a, b = ([ladder(x, p) for x in xs] for xs in (a, b))
    if route == "taylor":
        g = _divided_product(a, b, tables.suffix_steps, size, one, dot, sweep)
        return [(q, w, g[i], den**q, den**q)
                for q in range(1, p + 1) for w, i in zip(tables.lyndon[q], slots[q])]
    if isinstance(one, int):  # G[u] is one int: one sweep by the expanded product, from zero
        g = _divided_product(a, b, tables.factor_steps, len(tables.factors), one, dot, sweep)
        sweeps, final, zero = [(g, tables.log_steps)], tables.last_log_steps, True
    else:  # a sweep per stage, e^{a_1 A} last, over the suffixes its letter leads
        sweeps = [(n, tables.suffix_steps[x]) for ab in zip(a, b) for x, n in enumerate(ab)][::-1]
        final, zero = tables.last_stage_steps, False
    big, acc = _divided_log(sweeps, final, tables.last, size, p, one, dot, sweep, zero)
    for q in range(2, p + 1):  # the Lyndon read, in place, by the unit n^0, at the degrees
        if any(map(acc.__getitem__, slots[q])):  # that do not vanish; degree 1 reads itself
            sweep(acc, a[0][:1], tables.read_steps(q))
    return [(q, w, acc[i], big * den * (q == 1), big * math.factorial(q) * den**q)
            for q in range(1, p + 1) for w, i in zip(tables.lyndon[q], slots[q])]


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
    and B, so the triangular solve at the Lyndon words reads them unchecked.
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


def check_cost(p: int, route: str, stages: int | None = None) -> int:
    """Estimated bytes of an order-p command, enumerating no word; ValueError over budget.

    Counts the Lyndon words of each bidegree (i, j), and refuses over MAX_LYNDON_WORDS of
    them.  Each costs its route's tables, q a word of length q = i + j: the taylor product's
    q suffixes at 3q (both routes then peak at 1.4-3.5 bytes a counted byte at their edges),
    or the bch log's q(q+1)/2 splits and the C(q, i) words of its bracket.  An s-stage system
    adds C(i+s-1, s-1) C(j+s-1, s-1) + 1 terms an entry, 2s bytes each.  Refuses over MAX_COST.
    """
    count: dict[tuple[int, int], int] = {}
    for q in range(1, p + 1):  # Witt's formula, by the identity it inverts: the C(q, i)
        for i in range(q + 1):  # words are the q/d rotations of Lyndon words' d-th powers
            g = math.gcd(i, q - i)
            rest = sum(q // d * count[i // d, (q - i) // d] for d in range(2, g + 1) if g % d == 0)
            count[i, q - i] = (math.comb(q, i) - rest) // q
        if sum(count.values()) > MAX_LYNDON_WORDS:
            raise ValueError(f"order {p} may need over {MAX_LYNDON_WORDS} Lyndon words")
    cost = 0
    for (i, j), n in count.items():
        q = i + j
        cost += n * q * (3 * q if route == "taylor" else math.comb(q, i) + q * (q + 1) // 2)
        if stages:
            terms = math.comb(i + stages - 1, i) * math.comb(j + stages - 1, j) + 1
            cost += n * 2 * stages * terms
    if cost > MAX_COST:
        where = f"at s = {stages}" if stages else f"on the {route} route"
        budget = f"over the budget of {MAX_COST:.0e}"
        raise ValueError(f"order {p} {where} may need about {cost:.1e} bytes, {budget}")
    return cost
