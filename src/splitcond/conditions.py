"""Order conditions for exponential splitting schemes, by two routes.

A scheme a_1..a_s, b_1..b_s has order p when F = e^{a_1 A t} e^{b_1 B t} ...
e^{a_s A t} e^{b_s B t} matches e^{(A+B)t} through degree p.  Per degree q <= p and
Lyndon word w of degree q, the Taylor route emits q! F[w] - 1 (e^{A+B} has coefficient
1/q! at every word of length q), and the BCH route the Lyndon-basis coordinate at w
of log(F) - (A + B); each must vanish.

Both run one divided-power recurrence over the scheme's point, the stage values n = D c in
symbol order a1, b1, a2, ..., D the lcm of their denominators, a factor e^{cX} per nonzero value.
G[w] = |w|! D^|w| F[w] is formed right to left, e^{cX} sending G[X^j v] to sum_j C(|w|, j) n^j G[v],
at the slots of the Lyndon words and their suffixes, numbered by lyndon._Tables, in one call of the
ring's product kernel, which forms n^j along each row's run.  log(F) is Horner's scheme acc <- c_k
+ F acc - acc, c_k = L (-1)^(k+1) / k, L = lcm(1..p) (Casas & Murua, J. Math. Phys. 2009), in one
call of the _Ring's log, ending in the Lyndon read, _Tables.read, a product by the unit factor.
Over _MAPS, Poly's packed integer maps, n^j a packed monomial, poly._map_fresh stores the Taylor
product at fresh keys, and poly._map_log's F acc is the general product from acc, so the systems
never expand F, and each entry's Poly keeps the kernel's own map, its offset written into it; over
_INTS, G[u] is one int, and poly._int_log multiplies by G - 1 at every split.
_INTS on Poly values forms series.splitting_product.  No symbolic system is built to verify a scheme
or to read its leading error term off F, and no series is built at all: the series layer,
splitcond.series, imports this module, never the reverse.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .lyndon import MAX_LYNDON_WORDS, LieDecomposition, Word, _Tables, lyndon_count, word_str
from .poly import MAX_EXPONENT, Poly, Scalar, _int_log, _int_product, _map_fresh, _map_log
from .poly import _map_product, _whole

ROUTES = ("taylor", "bch")
_NIL = Fraction(0)  # every vanishing residual

# What check_cost lets a command plan past the word tables' MAX_LYNDON_WORDS: bytes of
# packed keys (2s a monomial, q a word of length q) in its output and tables.
MAX_COST = 10**8


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
        return tuple(itertools.chain.from_iterable(zip(self.a, self.b)))

    def padded(self, stages: int) -> "ConcreteScheme":
        """Same scheme embedded in a larger stage count by zero coefficients."""
        if (stages := _whole(stages, "stage count")) < self.stages:
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
        if (stages := _whole(stages, "stage count")) < 1:
            raise ValueError("stage count must be >= 1")
        return cls(*(tuple(Poly.symbol(k, j) for j in range(1, stages + 1)) for k in "ab"))

    @classmethod
    def from_concrete(cls, scheme: ConcreteScheme) -> "SymbolicScheme":
        return cls(tuple(map(Poly.const, scheme.a)), tuple(map(Poly.const, scheme.b)))


def _int_log_read(factors: list, tables: _Tables, p: int) -> tuple[list, int]:
    g = _divided_product(_INTS, factors, tables.factor_steps, len(tables.factors))
    acc = [0] * len(tables.suffixes)
    big = _int_log(acc, g, tables.log_steps, p)
    tables.read(_int_product, 1, acc, range(2, p + 1))  # degree 1 reads itself
    return acc, big


def _map_log_read(factors: list, tables: _Tables, p: int) -> tuple[list, int]:
    # the general product from acc each pass, the last - acc at the Lyndon words only; then the read
    acc, last = [{}] * len(tables.suffixes), [i for ws in tables.lyndon for i in ws.values()]
    big = _map_log(acc, factors, tables.suffix_steps, last, p)
    tables.read(_map_product, 0, acc, range(2, p + 1))
    return acc, big


# a ring's zero and one, its product kernel from the unit start, and its log, returning the read of
# L |w|! D^|w| log(F)[w] and L; over maps, k >= 1 names symbol k - 1 once, so product keys are fresh
_Ring = NamedTuple("_Ring", [("zero", object), ("one", object), ("product", Callable),
                             ("log", Callable)])
_INTS = _Ring(0, 1, _int_product, _int_log_read)
_MAPS = _Ring({}, {0: 1}, _map_fresh, _map_log_read)


def _divided_product(ring: _Ring, factors: list, steps: dict, size: int) -> list:
    # G[w] = |w|! D^|w| F[w] at the size slots of steps, () last, over the factor word (X, n = D c)
    g = [ring.zero] * (size - 1) + [ring.one]
    ring.product(g, factors, steps)
    return g


def _factors(point: Sequence, p: int, beyond: int) -> tuple[int, _Tables, list]:
    # p as an int, the tables through degree p + beyond, refused before any is built, and the
    # factor word: e^{nX} per stage value n != 0 of point, X = A at even indices and B at odd
    if (p := _whole(p, "target order")) < 1:
        raise ValueError("target order must be >= 1")
    if p + beyond > MAX_EXPONENT:  # a packed exponent would carry past its byte
        raise ValueError(f"target order must be <= {MAX_EXPONENT}")
    return p, _Tables(p + beyond, 2), [(i % 2, n) for i, n in enumerate(point) if n]


def _check_route(route: str) -> None:
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}, got {route!r}")


def _route(ring: _Ring, point: Sequence, den: int, p: int, route: str) -> list:
    # per degree q, (q, Lyndon words {w: slot}, values by slot, offset, scale) of the conditions
    # (value - offset) / scale over the ring at the stage values n = D c of point
    p, tables, factors = _factors(point, p, 0)
    if route == "taylor":
        g = _divided_product(ring, factors, tables.suffix_steps, len(tables.suffixes))
        return [(q, tables.lyndon[q], g, d, d) for q in range(1, p + 1) for d in [den**q]]
    acc, big = ring.log(factors, tables, p)
    return [(q, tables.lyndon[q], acc, big * den * (q == 1), big * math.factorial(q) * den**q)
            for q in range(1, p + 1)]


def _scaled(scheme: ConcreteScheme) -> tuple[list[int], int]:
    # the stage values over ints, n = D c, and D, the lcm of their denominators
    ratios = [c.as_integer_ratio() for pair in zip(scheme.a, scheme.b) for c in pair]
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


class ConditionEntry(NamedTuple):
    """One order condition: a polynomial attached to a degree and Lyndon word."""

    degree: int
    word: Word
    polynomial: Poly
    rhs: Fraction = Fraction(0)

    def residual(self, scheme: ConcreteScheme) -> Fraction:
        return self.polynomial.evaluate(scheme.point()) - self.rhs

    def to_record(self) -> dict[str, str | int]:
        return {"order": self.degree, "lyndon": word_str(self.word),
                "polynomial": str(self.polynomial), "rhs": str(self.rhs)}

    def __str__(self) -> str:
        return f"deg {self.degree}  {word_str(self.word)}  {self.polynomial} = {self.rhs}"


def _tolerance(tol: Scalar | float) -> Scalar | float:
    # tol as the public satisfaction checks take it: an int, Fraction or float, not a bool, that
    # is neither negative nor NaN; -0.0 and inf pass
    if isinstance(tol, bool) or not isinstance(tol, (int, Fraction, float)):
        raise TypeError(f"tol must be an int, Fraction or float, not {type(tol).__name__}")
    if not tol >= 0:  # NaN compares false
        raise ValueError(f"tol must be >= 0, got {tol}")
    return tol


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
        """Exact satisfaction when tol == 0; |residual| <= tol otherwise.

        TypeError unless tol is an int, Fraction or float (a bool is none); ValueError where it is
        negative or NaN.
        """
        tol = _tolerance(tol)
        return _all_within(self.residuals(scheme), tol)

    def to_records(self) -> list[dict[str, str | int]]:
        return [e.to_record() for e in self.entries]

    def lines(self) -> Iterator[str]:
        """The text of the system line by line: a header, then each entry indented."""
        yield f"{self.route} conditions, s={self.stages}, p={self.order}"
        yield from (f"  {e}" for e in self.entries)

    def __str__(self) -> str:
        return "\n".join(self.lines())


def condition_system(stages: int, p: int, route: str) -> ConditionSystem:
    """The order-p conditions of the generic s-stage scheme by one route, built on each call.

    A bad route is reported before a bad stage count, and that before a bad order.
    """
    _check_route(route)
    if (stages := _whole(stages, "stage count")) < 1:
        raise ValueError("stage count must be >= 1")
    entries = []  # over integer maps, the symbols a1, b1, a2, ... named 1, 2, 3, ...
    for q, words, n, offset, scale in _route(_MAPS, range(1, 2 * stages + 1), 1, p, route):
        for w, i in words.items():  # n[i] is this call's own map, or the ring's zero: never written
            nums = n[i] or {}
            if offset:  # n[i] has degree q >= 1: no constant
                nums[0] = -offset
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
    _check_route(route)
    residuals = tuple([(q, w, Fraction(d, s) if (d := g[i] - o) else _NIL)
                       for q, words, g, o, s in _route(_INTS, *_scaled(scheme), p, route)
                       for w, i in words.items()])
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
    can falsify equivalence, never prove it.  tol is checked as by satisfied_by.
    """
    tol = _tolerance(tol)
    if (first.stages, first.order) != (second.stages, second.order):
        raise ValueError("systems compare only at equal stage count and order")
    verdicts = []
    for scheme in witnesses:
        r1, r2 = tuple(first.residuals(scheme)), tuple(second.residuals(scheme))
        verdicts.append(WitnessVerdict(scheme, _all_within(r1, tol), _all_within(r2, tol), r1, r2))
    return EquivalenceReport(tuple(verdicts))


def leading_error_term(scheme: ConcreteScheme, p: int) -> LieDecomposition:
    """Lyndon decomposition of the first nonvanishing local-error term, forming no logarithm.

    Requires the order-p conditions of the Taylor route (NotOrderP otherwise), read off the
    product F through degree p + 1.  Then log F = A + B + Z + ..., Z of degree p + 1, so
    F - e^{A+B} = Z at the words of length p + 1, whose Lyndon read gives Z's coordinates.
    """
    values, den = _scaled(scheme)
    p, tables, factors = _factors(values, p, 1)
    g = _divided_product(_INTS, factors, tables.suffix_steps, len(tables.suffixes))
    if any(g[i] != d for q in range(1, p + 1) for d in [den**q] for i in tables.lyndon[q].values()):
        raise NotOrderP(f"{scheme} does not satisfy the order-{p} conditions")
    lead, scale = tables.lyndon[p + 1], math.factorial(p + 1) * (top := den ** (p + 1))
    for i in lead.values():  # G[w] = (p+1)! D^(p+1) F[w] less e^{A+B}'s, which is D^(p+1)
        g[i] -= top
    tables.read(_int_product, 1, g, [p + 1])
    return LieDecomposition(p + 1, {w: Poly._of(scale, {0: g[i]}) for w, i in lead.items() if g[i]})


def check_cost(p: int, route: str, stages: int | None = None) -> int:
    """Estimated bytes of an order-p command, enumerating no word; ValueError over budget.

    Refuses an unknown route as the builders do, then as the word tables do, by lyndon_count.
    Then counts the Lyndon words of each bidegree (i, j), each at its route's tables, q a word
    of length q = i + j: the taylor product's q suffixes at 3q (both routes then peak at 1.5-2.3
    bytes a counted byte at their edges), or the bch log's q(q+1)/2 splits and the C(q, i) words
    of its bracket.  An s-stage system adds C(i+s-1, s-1) C(j+s-1, s-1) + 1 terms an entry, 2s
    bytes each.  Refuses over MAX_COST.  This byte guard is the CLI's: the library is bound by
    the word budget only, so a call inside it, such as verify_scheme(strang, 23), may run long.
    """
    _check_route(route)
    p = _whole(p, "order")
    if stages is not None and (stages := _whole(stages, "stage count")) < 0:
        raise ValueError("stage count must be >= 0")
    if lyndon_count(2, p) > MAX_LYNDON_WORDS:
        raise ValueError(f"order {p} may need over {MAX_LYNDON_WORDS} Lyndon words")
    count: dict[tuple[int, int], int] = {}
    for q in range(1, p + 1):  # Witt's formula, by the identity it inverts: the C(q, i)
        for i in range(q + 1):  # words are the q/d rotations of Lyndon words' d-th powers
            g = math.gcd(i, q - i)
            rest = sum(q // d * count[i // d, (q - i) // d] for d in range(2, g + 1) if g % d == 0)
            count[i, q - i] = (math.comb(q, i) - rest) // q
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
        try:
            about = f"{cost:.1e}"
        except OverflowError:  # past float range: formatted from the int itself
            from decimal import Decimal
            about = f"{Decimal(cost):.1e}"
        raise ValueError(f"order {p} {where} may need about {about} bytes, {budget}")
    return cost
