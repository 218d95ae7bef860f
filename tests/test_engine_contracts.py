"""The engine's product, log and Lyndon read, checked by what they compute on both rings.

Each layer runs on the int ring (_INTS, at a scheme's stage values n = D c, D the lcm of their
denominators) and on the map ring (_MAPS, packed integer maps at the generic symbols, D = 1), and
is checked at every slot against a word-keyed oracle of helpers.py, which shares no kernel, ring
or table with the engine:
- the product: _divided_product over a table's steps holds |w|! D^|w| F[w], F the series product
  splitting_product_by_exp;
- the log: _int_log at every suffix slot, and _map_log at every Lyndon slot, hold
  L |w|! D^|w| log(F)[w] by the series log, L = lcm(1..p);
- the read: _Tables.read after the log holds L q! D^q times the coordinates of
  lie_decompose_by_word, and at any values the coordinates of back_substitute_by_word.
The contracts neither read nor build a row: rows pass only from the library's builders (_Tables,
_product_steps) to its kernels, so a change of row format edits src/ and this module only.  The
two kernel properties at the end read a row's slot and length, and no run.
"""

import functools
import math
import random
from fractions import Fraction as F

import pytest

from splitcond import ConcreteScheme, SymbolicScheme, log, lyndon_words, word_str
from splitcond.conditions import _INTS, _MAPS, _divided_product
from splitcond.lyndon import _numbered, _product_steps, _Tables
from splitcond.poly import (
    _ZERO, MAX_EXPONENT, Poly, _int_log, _int_product, _map_fresh, _map_log, _map_product
)

from helpers import (
    back_substitute_by_word,
    bracket_by_word,
    lie_decompose_by_word,
    splitting_product_by_exp,
)

CELLS = [(1, 6), (2, 5), (3, 4), (2, 4), (3, 5), (4, 5), (4, 6)]
# each ring, with the product kernel and unit factor its Lyndon read runs by
RINGS = {"ints": (_INTS, _int_product, 1), "maps": (_MAPS, _map_product, 0)}


def as_poly(value) -> Poly:
    """A slot's value, an int or an integer map over packed monomials, as a Poly."""
    return Poly._of(1, dict(value)) if isinstance(value, dict) else Poly.const(value)


def cases(ring, s: int, p: int) -> list:
    """(factor word, D, the scheme over Poly) per seeded scheme of s stages on the ring.

    Over ints, stages drawn zero, negative or over a 30-digit denominator, then the same with
    every b zero and with every a zero, so that one letter leads no factor.  Over maps, the
    generic symbols, a_j named 2j - 1 and b_j 2j, then the a's alone.
    """
    if ring is _MAPS:
        generic = SymbolicScheme.generic(s)
        return [([(i % 2, i + 1) for i in range(2 * s)], 1, generic),
                ([(0, i + 1) for i in range(0, 2 * s, 2)], 1, generic._replace(b=(Poly(),) * s))]
    rng = random.Random(100 * s + p)
    big = rng.randint(10**29, 10**30)
    values = [rng.choice((0, rng.randint(-9, -1), rng.randint(1, 9),
                          F(rng.randint(-10**6, 10**6), big))) for _ in range(2 * s)]
    a, b, zero = values[::2], values[1::2], [0] * s
    out = []
    for scheme in [ConcreteScheme(a, b), ConcreteScheme(a, zero), ConcreteScheme(zero, b)]:
        den = math.lcm(*(c.denominator for c in scheme.point()))
        factors = [(i % 2, int(c * den)) for i, c in enumerate(scheme.point()) if c]
        out.append((factors, den, SymbolicScheme.from_concrete(scheme)))
    return out


@functools.cache
def product_series(scheme: SymbolicScheme, p: int):
    return splitting_product_by_exp(scheme, p)


@functools.cache
def log_series(scheme: SymbolicScheme, p: int):
    return log(product_series(scheme, p))


def lyndon_slots(tables) -> dict:
    return {w: i for words in tables.lyndon for w, i in words.items()}


def logged(ring, factors: list, p: int) -> tuple[list, int]:
    """The engine's log on the ring, acc and L: _int_log over the product on the factor table,
    or _map_log, whose last pass subtracts at the Lyndon slots only, from a shared {}, which it
    must leave empty."""
    tables = _Tables(p, 2)
    if ring is _INTS:
        g = _divided_product(_INTS, factors, tables.factor_steps, len(tables.factors))
        acc = [0] * len(tables.suffixes)
        return acc, _int_log(acc, g, tables.log_steps, p)
    shared = {}
    acc = [shared] * len(tables.suffixes)
    big = _map_log(acc, factors, tables.suffix_steps, list(lyndon_slots(tables).values()), p)
    assert shared == {}
    return acc, big


@pytest.mark.parametrize("s,p", CELLS)
@pytest.mark.parametrize("ring", RINGS)
def test_the_product_holds_the_series_product_at_every_slot(ring, s, p):
    # over the suffix table and over the factor table, from the ring's unit start
    tables, (ring, _, _) = _Tables(p, 2), RINGS[ring]
    for factors, den, scheme in cases(ring, s, p):
        f = product_series(scheme, p)
        for slots, steps in [(tables.suffixes, tables.suffix_steps),
                             (tables.factors, tables.factor_steps)]:
            g = _divided_product(ring, factors, steps, len(slots))
            for w, i in slots.items():
                expected = f.coefficient(w) * (math.factorial(len(w)) * den ** len(w))
                assert as_poly(g[i]) == expected, (scheme, word_str(w))


@pytest.mark.parametrize("s,p", CELLS)
@pytest.mark.parametrize("ring", RINGS)
def test_the_log_holds_the_series_log_at_its_slots(ring, s, p):
    tables, (ring, _, _) = _Tables(p, 2), RINGS[ring]
    slots = tables.suffixes if ring is _INTS else lyndon_slots(tables)
    for factors, den, scheme in cases(ring, s, p):
        acc, big = logged(ring, factors, p)
        assert big == math.lcm(*range(1, p + 1))
        logf = log_series(scheme, p)
        for w, i in slots.items():
            expected = logf.coefficient(w) * (big * math.factorial(len(w)) * den ** len(w))
            assert as_poly(acc[i]) == expected, (scheme, word_str(w))


@pytest.mark.parametrize("s,p", CELLS)
@pytest.mark.parametrize("ring", RINGS)
def test_the_read_after_the_log_holds_the_lie_coordinates(ring, s, p):
    # degree 1 reads itself, as the BCH route runs it
    tables, (ring, kernel, unit) = _Tables(p, 2), RINGS[ring]
    for factors, den, scheme in cases(ring, s, p):
        acc, big = logged(ring, factors, p)
        tables.read(kernel, unit, acc, range(2, p + 1))
        logf = log_series(scheme, p)
        for q in range(1, p + 1):
            coordinates = lie_decompose_by_word(logf.homogeneous_part(q), q)
            scale = big * math.factorial(q) * den**q
            for w, i in tables.lyndon[q].items():
                assert as_poly(acc[i]) == coordinates.coefficient(w) * scale, (scheme, word_str(w))


def cancelling(values: dict, coordinates: dict, memo: dict) -> int:
    """The Lyndon words w of one degree at which the read's sum f[w] - sum_{l < w} E_l[w] c_l,
    formed term by term over integer maps, cancels a monomial of one of its terms: one c_w lacks."""
    count, solved = 0, {}
    for w in sorted(values):
        block = solved.setdefault(tuple(sorted(w)), [])
        terms = [values[w]] + [c for l, c in block if bracket_by_word(l, memo).get(w)]
        coordinate = coordinates.get(w, _ZERO)
        count += not set().union(*(t._nums for t in terms)) <= coordinate._nums.keys()
        block.append((w, coordinate))
    return count


def test_the_read_at_any_values_is_the_back_substitution():
    # the read is linear and unchecked: at random values of every slot, zeros drawn and one
    # degree's values all zero, a fresh table of each top degree p read through p, top degree
    # first at odd p and last at even p, gives each Lyndon slot of a degree read the coordinate
    # back_substitute_by_word solves, over ints by _int_product and its unit 1, and over integer
    # maps, whose sums often cancel, by _map_product and its 0; every other slot keeps its object
    rng, memo, cancelled = random.Random(1901), {}, 0
    draw_int = lambda rng: rng.choice((0, rng.randint(-99, 99)))
    for p, alphabet in [(p, 2) for p in range(2, 15)] + [(p, 3) for p in range(2, 6)]:
        tables = _Tables.__wrapped__(p, alphabet)
        degrees = range(p, 1, -1) if p % 2 else range(2, p + 1)
        quiet = rng.choice(degrees)
        for kernel, unit, zero, draw in [(_int_product, 1, 0, draw_int),
                                         (_map_product, 0, {}, random_map)]:
            acc = [draw(rng) for _ in tables.suffixes]
            for i in tables.lyndon[quiet].values():
                acc[i] = zero
            before = list(acc)
            tables.read(kernel, unit, acc, degrees)
            for q in degrees:
                slots = tables.lyndon[q]
                values = {w: as_poly(before[i]) for w, i in slots.items()}
                expected = back_substitute_by_word(values, q, alphabet, memo)
                assert {w: as_poly(acc[i]) for w, i in slots.items() if acc[i]} == expected, (p, q)
                if kernel is _map_product:
                    cancelled += cancelling(values, expected, memo)
            read = {i for q in degrees for i in tables.lyndon[q].values()}
            assert all(acc[i] is before[i] for i in range(len(acc)) if i not in read)
    assert cancelled > 50


@pytest.mark.parametrize("p,alphabet", [(1, 2), (2, 2), (4, 2), (6, 2), (8, 2), (4, 3)])
def test_the_tables_hold_the_lyndon_words_degree_by_degree_in_order(p, alphabet):
    words = lyndon_words(alphabet, p)
    assert [list(ws) for ws in _Tables(p, alphabet).lyndon] == [
        [w for w in words if len(w) == q] for q in range(p + 1)
    ]


# -- kernel properties that are not formats ---------------------------------------


def random_closure(rng, top=7):
    targets = [
        tuple(rng.randrange(2) for _ in range(rng.randint(1, top)))
        for _ in range(rng.randint(1, 5))
    ]
    return {w[i:] for w in targets for i in range(len(w) + 1)}


def random_map(rng):
    # small monomials and coefficients, so that sums of shifted maps often cancel
    monos = [0, 1, 2, 1 << 8, 1 << 16, (1 << 8) + 1]
    return {m: rng.choice((-2, -1, 1, 2)) for m in rng.sample(monos, rng.randint(0, 4))}


def sweep_cases(rng, count):
    # random suffix-closed rows, with a top cut (sometimes none)
    for _ in range(count):
        closure = random_closure(rng)
        yield closure, rng.choice((MAX_EXPONENT, rng.randint(0, 7)))


def test_map_sweep_never_mutates_a_shared_start():
    # _divided_product seeds every word with one ring.zero object, so the kernel must
    # write a new map at each row, over a factor word of one to three factors
    rng = random.Random(1703)
    for closure, top in sweep_cases(rng, 100):
        words = _numbered(closure)
        steps = _product_steps(words)
        factors = [(rng.randrange(2), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        shared = rng.choice(({}, random_map(rng)))
        before = dict(shared)
        acc = [shared] * len(words)
        acc[-1] = {0: 1}
        _map_product(acc, factors, steps, top)
        assert shared == before
        touched = [acc[w] for x in {x for x, _ in factors} for w, n, _ in steps.get(x, [])
                   if n <= top]
        assert all(y is not shared for y in touched)
        assert len({id(y) for y in touched}) == len(touched)


def test_map_fresh_equals_the_general_kernel_from_the_unit_start():
    # the Taylor product over maps: from the shared {} and {0: 1} of _divided_product's
    # start, over factors naming distinct symbols k >= 1 in random order, the kernel that
    # stores fresh keys gives the general kernel's maps slot by slot, mutates neither
    # start, and writes a map of its own at each slot a factor's rows reach
    rng = random.Random(1704)
    for closure, _ in sweep_cases(rng, 200):
        words = _numbered(closure)
        steps = _product_steps(words)
        factors = [(rng.randrange(2), k) for k in rng.sample(range(1, 9), rng.randint(1, 8))]
        empty, unit = {}, {0: 1}
        got, expected = [empty] * (len(words) - 1) + [unit], [{}] * (len(words) - 1) + [{0: 1}]
        _map_fresh(got, factors, steps)
        _map_product(expected, factors, steps)
        assert got == expected
        assert empty == {} and unit == {0: 1}
        touched = [got[w] for x in {x for x, _ in factors} for w, _, _ in steps.get(x, [])]
        assert all(y is not empty and y is not unit for y in touched)
        assert len({id(y) for y in touched}) == len(touched)
