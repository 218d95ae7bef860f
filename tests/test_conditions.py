import itertools
import math
import random
from fractions import Fraction

import pytest

from splitcond import (
    ConcreteScheme,
    ConditionEntry,
    ConditionSystem,
    NCSeries,
    NotALieElement,
    NotOrderP,
    SymbolicScheme,
    bracketing,
    condition_system,
    conditions_bch,
    conditions_taylor,
    exp,
    exp_of_sum,
    expand,
    leading_error_term,
    lie_decompose,
    local_error_series,
    lyndon_words_of_degree,
    splitting_product,
    systems_equivalent,
    verify_scheme,
    word_str,
)
from splitcond.cli import REGISTRY
from splitcond.conditions import (
    MAX_COST,
    MAX_LYNDON_WORDS,
    _divided_log,
    _divided_product,
    _int_dot,
    _route,
    check_cost,
)
from splitcond.lyndon import _numbered, _product_steps, _splits, _Tables, lyndon_words
from splitcond.poly import MAX_EXPONENT, Poly, _dot, _int_sweep, _sweep, sum_of_products

from helpers import (
    combine_log_coefficients,
    conditions_bch_dense,
    divided_log_by_expanded_product,
    homogeneous_at_truncation,
    log_pair_coefficients,
    monomial_map,
    order1_witness,
    order2_witness,
    product_steps_by_word,
    random_fraction,
    refine_witnesses,
    rows_by_word,
    splits_by_word,
    splitting_product_by_exp,
    sweep_by_dot,
    taylor_derivative,
)

A, B = 0, 1
F = Fraction

PAPER3 = REGISTRY["paper-order3"].scheme
STRANG = REGISTRY["strang"].scheme
LIE_TROTTER = REGISTRY["lie-trotter"].scheme


def sym(kind, stage):
    return Poly.symbol(kind, stage)


# -- the splitting product and local error -----------------------------------


def test_splitting_product_single_stage_concrete():
    scheme = SymbolicScheme.from_concrete(ConcreteScheme((F(1),), (F(1),)))
    half = F(1, 2)
    expected = NCSeries(
        2, 2, {(): 1, (A,): 1, (B,): 1, (A, A): half, (A, B): 1, (B, B): half}
    )
    assert splitting_product(scheme, 2) == expected


def test_splitting_product_symbolic_degree_1():
    one_stage = splitting_product(SymbolicScheme.generic(1), 1)
    assert one_stage == NCSeries(1, 2, {(): 1, (A,): sym("a", 1), (B,): sym("b", 1)})
    two_stage = splitting_product(SymbolicScheme.generic(2), 1)
    assert two_stage == NCSeries(
        1,
        2,
        {(): 1, (A,): sym("a", 1) + sym("a", 2), (B,): sym("b", 1) + sym("b", 2)},
    )


@pytest.mark.parametrize("stages", [1, 2, 3])
def test_splitting_product_equals_the_exp_oracle(stages):
    scheme = SymbolicScheme.generic(stages)
    for truncation in range(1, 6):
        assert splitting_product(scheme, truncation) == splitting_product_by_exp(
            scheme, truncation
        )
    # the oracle cannot form a letter at truncation 0, where the product is 1
    assert splitting_product(scheme, 0) == NCSeries.unit(0)


def test_splitting_product_of_concrete_schemes_equals_the_exp_oracle():
    # registry schemes padded with zero stages, and random rationals with zeros
    schemes = [
        entry.scheme.padded(entry.scheme.stages + extra)
        for entry in REGISTRY.values()
        for extra in (0, 1, 2)
    ]
    rng = random.Random(1010)
    for stages in (1, 2, 3):
        for _ in range(6):
            draw = [rng.choice((F(0), random_fraction(rng))) for _ in range(2 * stages)]
            a, b = draw[:stages], draw[stages:]
            schemes.append(ConcreteScheme(a, b))
    assert any(x < 0 for scheme in schemes for x in scheme.point())
    assert any(x == 0 for scheme in schemes for x in scheme.point())
    for scheme in schemes:
        symbolic = SymbolicScheme.from_concrete(scheme)
        for truncation in (1, 2, 5):
            product = splitting_product(symbolic, truncation)
            assert product == splitting_product_by_exp(symbolic, truncation), scheme
            assert all(not c.is_zero for c in product.terms.values())


@pytest.mark.parametrize("stages,truncation", [(1, 5), (2, 5), (3, 4)])
def test_restricted_product_equals_the_oracle_on_the_suffix_closure(stages, truncation):
    scheme = SymbolicScheme.generic(stages)
    full = splitting_product_by_exp(scheme, truncation)
    words = [w for n in range(truncation + 1) for w in itertools.product((A, B), repeat=n)]
    rng = random.Random(100 * stages + truncation)
    for _ in range(10):
        targets = rng.sample(words, rng.randint(1, 6))
        closure = {w[i:] for w in targets for i in range(len(w) + 1)}
        # the divided-power recurrence, G[w] = |w|! F[w] over Poly, at numbered slots
        slots = _numbered(closure)
        steps = _product_steps(slots)
        a, b = ([[n**j for j in range(truncation + 1)] for n in x] for x in (scheme.a, scheme.b))
        one = Poly.const(1)
        divided = _divided_product(a, b, steps, len(slots), one, sum_of_products, _int_sweep)
        divided = dict(zip(slots, divided))
        assert set(divided) == closure
        for word in closure:
            expected = full.coefficient(word) * math.factorial(len(word))
            assert divided[word] == expected, word_str(word)


def product_steps_by_splits(words):
    # the table _product_steps replaces: every split w = uv, u != (), of every
    # word, kept where u is a power of the first letter
    steps = {}
    for w, splits in splits_by_word(w for w in words if w):
        runs = [(c, len(u), v) for c, u, v in splits if u == w[:1] * len(u)]
        steps.setdefault(w[0], []).append((w, runs))
    return steps


def test_product_steps_equal_the_filter_over_all_splits():
    rng = random.Random(1515)
    for _ in range(60):
        alphabet, top = rng.choice((2, 3)), rng.randint(1, 8)
        targets = [
            tuple(rng.randrange(alphabet) for _ in range(rng.randint(1, top)))
            for _ in range(rng.randint(1, 5))
        ] + [(rng.randrange(alphabet),) * top]  # a word that is one run
        closure = {w[i:] for w in targets for i in range(len(w) + 1)}
        assert steps_by_word(closure) == product_steps_by_splits(closure)
    for p in (1, 4, 8):
        tables = _Tables(p, 2)
        assert steps_by_word(tables.suffixes) == product_steps_by_splits(tables.suffixes)


def steps_by_word(words):
    # _product_steps over the numbered words, read back through the slots
    slots = _numbered(words)
    return {x: rows_by_word(rows, slots) for x, rows in _product_steps(slots).items()}


@pytest.mark.parametrize("p,alphabet", [(1, 2), (2, 2), (4, 2), (6, 2), (8, 2), (4, 3)])
def test_slot_tables_read_back_equal_the_word_keyed_tables(p, alphabet):
    # each table over numbered slots, read back through the slot map, equals the
    # word-keyed table it replaces
    tables = _Tables(p, alphabet)
    words = list(tables.suffixes)
    lyndon = {w for ws in tables.lyndon for w in ws}
    suffixes = {w[i:] for w in lyndon for i in range(len(w) + 1)}
    factors = {v[:i] for v in suffixes for i in range(len(v) + 1)}
    for slot, closure in [(tables.suffixes, suffixes), (tables.factors, factors)]:
        numbered = list(slot)
        assert sorted(numbered) == sorted(closure) and numbered[-1] == ()
        assert [len(w) for w in numbered] == sorted(map(len, numbered), reverse=True)
        assert list(slot.values()) == list(range(len(slot)))
    assert [[words[i] for i in slots] for slots in tables.lyndon_slots] == tables.lyndon
    assert sorted(words[i] for i in tables.last) == sorted(lyndon)
    read = {x: rows_by_word(rows, words) for x, rows in tables.suffix_steps.items()}
    assert read == product_steps_by_word(words)
    read = {x: rows_by_word(rows, tables.factors) for x, rows in tables.factor_steps.items()}
    assert read == product_steps_by_word(tables.factors)
    splits = splits_by_word(words)
    assert rows_by_word(tables.log_steps, words, tables.factors) == splits
    assert rows_by_word(tables.last_log_steps, words, tables.factors) == [
        (w, runs) for w, runs in splits if w in lyndon
    ]
    assert rows_by_word(tables.last_stage_steps, words) == [
        (w, runs) for w, runs in product_steps_by_word(words)[0] if w in lyndon
    ]


# the derive grid of the benchmark (perfbench/inputs.GRID_FULL), and bch (4, 7)
DERIVE_GRID = [
    (3, 4, "taylor"), (2, 5, "taylor"), (4, 6, "taylor"), (5, 5, "taylor"),
    (3, 4, "bch"), (2, 5, "bch"), (2, 4, "bch"), (4, 7, "bch"),
]


@pytest.mark.parametrize("stages,p,route", DERIVE_GRID)
def test_condition_system_equals_the_route_over_poly(stages, p, route):
    # the path the integer maps replace: the route over Poly with sum_of_products
    # as its kernel, the offset and the scale applied by Poly arithmetic
    scheme = SymbolicScheme.generic(stages)
    one = Poly.const(1)
    ladder = lambda n, top: [n**j for j in range(top + 1)]
    sweep = sweep_by_dot(sum_of_products)
    oracle = _route(scheme.a, scheme.b, 1, p, route, one, sum_of_products, sweep, ladder)
    entries = condition_system(stages, p, route).entries
    assert len(entries) == len(oracle)
    for entry, (q, w, n, offset, scale) in zip(entries, oracle):
        assert entry == ConditionEntry(q, w, (n - offset) * F(1, scale)), word_str(w)


BCH_CELLS = [(s, p) for s, p, route in DERIVE_GRID if route == "bch"]


def stage_sweeps(a, b, steps):
    # F acc as the stages' one-letter exponentials, e^{b_s B} first and e^{a_1 A}
    # last, each over the words its letter leads; zero stages are kept
    return [(n, steps.get(x, [])) for pair in zip(a, b) for x, n in enumerate(pair)][::-1]


def int_ladders(values, p):
    return [[n**j for j in range(p + 1)] for n in values]


def map_ladders(stages, p):
    # the symbols a_j, b_j as packed monomials, at indices 2j-2 and 2j-1
    return [[e << 8 * i for e in range(p + 1)] for i in range(2 * stages)]


def kernels(values, stages, p):
    # (ladders, one, dot, sweep, lift) over ints at the values, and over integer maps
    # at the symbols, whose ladders hold packed monomials
    return [
        (int_ladders(values, p), 1, _int_dot, _int_sweep, lambda x: x),
        (map_ladders(stages, p), {0: 1}, _dot, _sweep, monomial_map),
    ]


@pytest.mark.parametrize("stages,p", BCH_CELLS)
def test_last_log_pass_at_the_lyndon_words_equals_the_full_pass(stages, p):
    # the BCH route's log forms its last pass only at the Lyndon words; the full
    # pass, at every suffix, must agree there, over ints and over integer maps,
    # by the one sweep of the expanded product and by the stage sweeps
    tables = _Tables(p, 2)
    lyndon_set = {w for ws in tables.lyndon for w in ws}
    words, size = tables.suffixes, len(tables.suffixes)
    rng = random.Random(100 * stages + p)
    values = [rng.randint(-9, 9) for _ in range(2 * stages)]
    for ladders, one, dot, sweep, lift in kernels(values, stages, p):
        a, b = ladders[::2], ladders[1::2]
        g = _divided_product(a, b, tables.factor_steps, len(tables.factors), one, dot, sweep)
        # the expanded product's factors are whole maps, so over maps its sweep is per row
        lone = sweep if one == 1 else sweep_by_dot(dot)
        for sweeps, final, kernel, zero in [
            ([(g, tables.log_steps)], tables.last_log_steps, lone, True),
            (stage_sweeps(a, b, tables.suffix_steps), tables.last_stage_steps, sweep, False),
        ]:
            every = range(size - 1)
            _, full = _divided_log(sweeps, sweeps[-1][1], every, size, p, one, dot, kernel, zero)
            _, last = _divided_log(sweeps, final, tables.last, size, p, one, dot, kernel, zero)
            full, last = dict(zip(words, full)), dict(zip(words, last))
            assert lyndon_set < set(full) == set(last)
            for w in lyndon_set:
                assert last[w] == full[w], word_str(w)


def assert_stage_sweeps_equal_the_expanded_product(a, b, words, p, one, dot, sweep, lift, last):
    # the stage-sweep log against the log over the expanded product, entry by
    # entry at the words of last
    expected_big, expected = divided_log_by_expanded_product(a, b, words, p, one, dot, last, lift)
    slot = _numbered(words)
    numbered = list(slot)
    sweeps = stage_sweeps(a, b, _product_steps(slot))
    final = [row for row in sweeps[-1][1] if numbered[row[0]] in last]
    at = [i for i, w in enumerate(numbered) if w in last]
    big, got = _divided_log(sweeps, final, at, len(slot), p, one, dot, sweep)
    got = dict(zip(numbered, got))
    assert big == expected_big
    assert set(got) == set(expected) == set(words)
    for w in last:
        assert got[w] == expected[w], word_str(w)


@pytest.mark.parametrize("stages,p", BCH_CELLS)
def test_stage_sweep_log_equals_the_log_over_the_expanded_product(stages, p):
    tables = _Tables(p, 2)
    rng = random.Random(1600 + 10 * stages + p)
    values = [rng.choice((0, rng.randint(-9, 9), rng.randint(-99, 99))) for _ in range(2 * stages)]
    lyndon_set = {w for ws in tables.lyndon for w in ws}
    for ladders, one, dot, sweep, lift in kernels(values, stages, p):
        for last in (lyndon_set, tables.suffixes):
            assert_stage_sweeps_equal_the_expanded_product(
                ladders[::2], ladders[1::2], tables.suffixes, p, one, dot, sweep, lift, last
            )


def test_stage_sweep_log_over_ints_with_zero_stages():
    # zero stages are kept as sweeps whose ladder is [1, 0, ..., 0]; with every b
    # zero (or every a), F acc = acc at the words that letter leads
    rng = random.Random(1601)
    for stages, p in [(1, 4), (2, 5), (3, 4), (4, 6)]:
        tables = _Tables(p, 2)
        lyndon_set = {w for ws in tables.lyndon for w in ws}
        draws = [
            [rng.randint(-9, 9) for _ in range(stages)] + [0] * stages,  # every b zero
            [0] * stages + [rng.randint(-9, 9) for _ in range(stages)],  # every a zero
            [rng.choice((0, rng.randint(-9, 9))) for _ in range(2 * stages)],
            [0] * (2 * stages),
        ]
        for draw in draws:
            ladders = int_ladders(draw[:stages], p), int_ladders(draw[stages:], p)
            kernel = (1, _int_dot, _int_sweep, lambda x: x)
            assert_stage_sweeps_equal_the_expanded_product(
                *ladders, tables.suffixes, p, *kernel, lyndon_set
            )


def test_stage_sweep_log_on_random_suffix_closed_sets():
    rng = random.Random(1602)
    for _ in range(40):
        stages, p = rng.randint(1, 3), rng.randint(1, 6)
        targets = [
            tuple(rng.randrange(2) for _ in range(rng.randint(1, p)))
            for _ in range(rng.randint(1, 5))
        ]
        closure = {w[i:] for w in targets for i in range(len(w) + 1)}
        last = set(targets) | set(rng.sample(sorted(closure), rng.randint(0, len(closure))))
        values = [rng.choice((0, rng.randint(-9, 9))) for _ in range(2 * stages)]
        for ladders, one, dot, sweep, lift in kernels(values, stages, p):
            assert_stage_sweeps_equal_the_expanded_product(
                ladders[::2], ladders[1::2], closure, p, one, dot, sweep, lift, last
            )


# -- the sweep kernels against the per-row loop they replace ---------------------


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
    # random suffix-closed rows, with a top cut (sometimes none) and a zero start
    for _ in range(count):
        closure = random_closure(rng)
        top = rng.choice((MAX_EXPONENT, rng.randint(0, 7)))
        yield closure, top, rng.random() < 0.3


def test_int_sweep_equals_the_per_row_dot_loop():
    rng = random.Random(1701)
    oracle = sweep_by_dot(_int_dot)
    for closure, top, zero in sweep_cases(rng, 300):
        # the product's rows by a stage ladder, zero stages drawn, or the expanded
        # product's split rows by G
        n = rng.choice((0, rng.randint(-9, 9)))
        words = _numbered(closure)
        factors = _numbered({w[:i] for w in closure for i in range(len(w) + 1)})
        for f, rows in [
            ([n**j for j in range(8)], _product_steps(words).get(rng.randrange(2), [])),
            ([rng.choice((0, rng.randint(-99, 99))) for u in factors], _splits(words, factors)),
        ]:
            acc = [rng.choice((0, rng.randint(-99, 99))) for w in words]
            expected = list(acc)
            oracle(expected, f, rows, top, zero)
            _int_sweep(acc, f, rows, top, zero)
            assert acc == expected


def test_map_sweep_equals_the_per_row_dot_loop():
    rng = random.Random(1702)
    oracle = sweep_by_dot(_dot, monomial_map)
    cancelled = 0
    for closure, top, zero in sweep_cases(rng, 300):
        words = _numbered(closure)
        rows = _product_steps(words).get(rng.randrange(2), [])
        f = [e << 8 * rng.randrange(3) for e in range(8)]
        acc = [random_map(rng) for w in words]
        for w, n, runs in rows:
            if not zero and rng.random() < 0.5:  # a start that cancels what the row adds
                added = _dot([(c, monomial_map(f[j]), acc[v]) for c, j, v in runs])
                acc[w] = _dot([(-1, {0: 1}, added)], random_map(rng))
        for w, n, runs in rows:  # count the sums that cancel, from the old values
            if n <= top:
                naive = {} if zero else dict(acc[w])
                for c, j, v in runs:
                    for m, n in acc[v].items():
                        naive[m + f[j]] = naive.get(m + f[j], 0) + c * n
                cancelled += 0 in naive.values()
        expected = list(acc)
        oracle(expected, f, rows, top, zero)
        _sweep(acc, f, rows, top, zero)
        assert acc == expected
        assert all(0 not in y.values() for y in acc)
    assert cancelled > 50


def test_map_sweep_never_mutates_a_shared_start():
    # _divided_product seeds every word with one dot([]) object, so the kernel must
    # write a new map at each row
    rng = random.Random(1703)
    for closure, top, zero in sweep_cases(rng, 100):
        words = _numbered(closure)
        rows = _product_steps(words).get(rng.randrange(2), [])
        f = [e << 8 * rng.randrange(3) for e in range(8)]
        shared = rng.choice(({}, random_map(rng)))
        before = dict(shared)
        acc = [shared] * len(words)
        acc[-1] = {0: 1}
        _sweep(acc, f, rows, top, zero)
        assert shared == before
        touched = [acc[w] for w, n, _ in rows if n <= top]
        assert all(y is not shared for y in touched)
        assert len({id(y) for y in touched}) == len(touched)


def test_local_error_single_stage_degree_2():
    scheme = SymbolicScheme.from_concrete(ConcreteScheme((F(1),), (F(1),)))
    err = local_error_series(scheme, 2)
    assert err == splitting_product(scheme, 2) - exp_of_sum(2)
    assert err.homogeneous_part(0).is_zero()
    part = err.homogeneous_part(2)
    assert part.coefficient((A, B)) == F(1, 2)
    assert part.coefficient((B, A)) == F(-1, 2)
    assert part.coefficient((A, A)).is_zero


def test_local_error_degree_1_vanishes_when_sums_are_1():
    rng = random.Random(71)
    for stages in (1, 2, 3):
        witness = order1_witness(rng, stages) if stages > 1 else ConcreteScheme((F(1),), (F(1),))
        err = local_error_series(SymbolicScheme.from_concrete(witness), 2)
        assert err.homogeneous_part(1).is_zero()


# -- the derivative formula ----------------------------------------------------


def test_taylor_derivative_degree_1_three_stages():
    d1 = taylor_derivative(SymbolicScheme.generic(3), 1)
    expected_a = sym("a", 1) + sym("a", 2) + sym("a", 3) - 1
    expected_b = sym("b", 1) + sym("b", 2) + sym("b", 3) - 1
    assert d1 == NCSeries(1, 2, {(A,): expected_a, (B,): expected_b})


def test_taylor_derivative_degree_2_three_stages_printed_coefficients():
    d2 = taylor_derivative(SymbolicScheme.generic(3), 2)
    a1, a2, a3 = (sym("a", j) for j in (1, 2, 3))
    b1, b2, b3 = (sym("b", j) for j in (1, 2, 3))
    assert d2.coefficient((A, A)) == (a1 + a2 + a3) ** 2 - 1
    assert d2.coefficient((A, B)) == 2 * a1 * (b1 + b2 + b3) + 2 * a2 * (b2 + b3) + 2 * a3 * b3 - 1
    assert d2.coefficient((B, A)) == 2 * a2 * b1 + 2 * a3 * (b1 + b2) - 1
    assert d2.coefficient((B, B)) == (b1 + b2 + b3) ** 2 - 1


def test_taylor_derivative_degree_0_is_zero():
    assert taylor_derivative(SymbolicScheme.generic(2), 0).is_zero()


def test_taylor_derivative_matches_scaled_local_error_parts():
    for stages in (1, 2, 3):
        scheme = SymbolicScheme.generic(stages)
        err = local_error_series(scheme, 5)
        for q in range(6):
            scaled = homogeneous_at_truncation(err, q).scale(math.factorial(q))
            assert scaled == taylor_derivative(scheme, q)


@pytest.mark.parametrize("stages,p", [(4, 5), (2, 6)])
def test_taylor_conditions_equal_derivative_formula_coefficients(stages, p):
    scheme = SymbolicScheme.generic(stages)
    derivatives = {q: taylor_derivative(scheme, q) for q in range(1, p + 1)}
    for entry in conditions_taylor(stages, p).entries:
        assert entry.polynomial == derivatives[entry.degree].coefficient(entry.word)


@pytest.mark.parametrize("stages", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_taylor_conditions_equal_scaled_local_error_coefficients(stages, p):
    # q! * F[w] - 1 read off the product is q! times the local error at w
    error = local_error_series(SymbolicScheme.generic(stages), p)
    for entry in conditions_taylor(stages, p).entries:
        expected = error.coefficient(entry.word) * math.factorial(entry.degree)
        assert entry.polynomial == expected


# -- condition system generation -------------------------------------------------


def test_taylor_conditions_three_stages_order_1():
    system = conditions_taylor(3, 1)
    assert [(e.degree, e.word) for e in system.entries] == [(1, (A,)), (1, (B,))]
    assert system.entries[0].polynomial == sym("a", 1) + sym("a", 2) + sym("a", 3) - 1
    assert system.entries[1].polynomial == sym("b", 1) + sym("b", 2) + sym("b", 3) - 1


def test_taylor_degree2_entry_vanishes_on_order2_points():
    system = conditions_taylor(3, 2)
    ab_entry = next(e for e in system.entries if e.word == (A, B))
    assert ab_entry.residual(PAPER3) == 0
    rng = random.Random(73)
    degree2 = next(e for e in conditions_bch(3, 2).entries if e.word == (A, B)).polynomial
    for _ in range(5):
        witness = order2_witness(rng, 3, degree2)
        assert ab_entry.residual(witness) == 0


def test_two_stage_order_3_system_shape():
    for system in (conditions_taylor(2, 3), conditions_bch(2, 3)):
        assert [e.degree for e in system.entries] == [1, 1, 2, 3, 3]
        assert [e.word for e in system.entries] == [
            (A,),
            (B,),
            (A, B),
            (A, A, B),
            (A, B, B),
        ]


@pytest.mark.parametrize("stages", [2, 0])
def test_builder_names_a_bad_route_first(stages):
    with pytest.raises(ValueError, match="route must be one of.*'nope'"):
        condition_system(stages, 3, "nope")


@pytest.mark.parametrize("build", [conditions_taylor, conditions_bch])
def test_builder_rejects_a_stage_count_below_1(build):
    with pytest.raises(ValueError, match="stage count must be >= 1"):
        build(0, 3)
    with pytest.raises(ValueError, match="stage count must be >= 1"):
        build(0, 0)


@pytest.mark.parametrize("route", ["taylor", "bch"])
def test_builder_rejects_an_order_below_1(route):
    with pytest.raises(ValueError, match="target order must be >= 1"):
        condition_system(2, 0, route)


@pytest.mark.parametrize("route", ["taylor", "bch"])
def test_builders_reject_an_order_past_the_packed_exponent(monkeypatch, route):
    # an exponent over 127 carries into the next symbol's byte; the guard comes
    # before the word tables, which would enumerate Lyndon words through length p
    class Refused(Exception):
        pass

    def refuse(*args):
        raise Refused

    monkeypatch.setattr("splitcond.conditions._Tables", refuse)
    for p in (128, 200):
        with pytest.raises(ValueError, match="^target order must be <= 127$"):
            condition_system(1, p, route)
        with pytest.raises(ValueError, match="^target order must be <= 127$"):
            verify_scheme(STRANG, p, route)
    with pytest.raises(ValueError, match="^target order must be <= 127$"):
        leading_error_term(STRANG, 127)
    # order 127 passes the guard, and the route and stage checks still come first
    with pytest.raises(Refused):
        condition_system(1, 127, route)
    with pytest.raises(Refused):
        verify_scheme(STRANG, 127, route)
    with pytest.raises(ValueError, match="route must be one of"):
        condition_system(1, 200, route + "?")
    with pytest.raises(ValueError, match="stage count must be >= 1"):
        condition_system(0, 200, route)


def test_route_builders_are_condition_system():
    assert conditions_bch(3, 4) == condition_system(3, 4, "bch")
    assert conditions_taylor(3, 4) == condition_system(3, 4, "taylor")


def test_bch_two_stage_degree_2_entry_closed_form():
    system = conditions_bch(2, 2)
    ab_entry = next(e for e in system.entries if e.word == (A, B))
    a1, a2, b1, b2 = sym("a", 1), sym("a", 2), sym("b", 1), sym("b", 2)
    assert ab_entry.polynomial == (a1 * b1 + a2 * b2 + a1 * b2 - a2 * b1) * F(1, 2)


def test_bch_single_stage_order_3_entries():
    system = conditions_bch(1, 3)
    a1, b1 = sym("a", 1), sym("b", 1)
    expected = [
        a1 - 1,
        b1 - 1,
        a1 * b1 * F(1, 2),
        a1 * a1 * b1 * F(1, 12),
        a1 * b1 * b1 * F(1, 12),
    ]
    assert [e.polynomial for e in system.entries] == expected


@pytest.mark.parametrize("stages", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_bch_entries_do_not_depend_on_the_target_order(stages, p):
    # the degree-q part of the logarithm is the same at every truncation >= q
    shorter = conditions_bch(stages, p).entries
    longer = conditions_bch(stages, p + 1).entries
    assert longer[: len(shorter)] == shorter
    assert all(e.degree == p + 1 for e in longer[len(shorter) :])


def test_bch_three_stage_degree_3_entries_vanish_at_classical_solution():
    system = conditions_bch(3, 3)
    for entry in system.entries:
        if entry.degree == 3:
            assert entry.residual(PAPER3) == 0


# -- solution sets of the two-stage order-3 system ---------------------------------
#
# Eliminating the first four conditions of the classical closed system
#   a1+a2 = 1,  b1+b2 = 1,  a1b1+a2b2+a1b2-a2b1 = 0,  1-6*a1*a2*b1 = 0
# forces a = (1/3, 2/3), b = (3/4, 1/4); the remaining condition
# 1-6*a2*b1*b2 = 1/4 != 0 there, so the system has no solutions at all.
# The generated systems must carve out the same (empty) set.


def closed_two_stage_order3_system() -> ConditionSystem:
    a1, a2, b1, b2 = sym("a", 1), sym("a", 2), sym("b", 1), sym("b", 2)
    polys = [
        a1 + a2 - 1,
        b1 + b2 - 1,
        a1 * b1 + a2 * b2 + a1 * b2 - a2 * b1,
        1 - 6 * a1 * a2 * b1,
        1 - 6 * a2 * b1 * b2,
    ]
    words = [(A,), (B,), (A, B), (A, A, B), (A, B, B)]
    degrees = [1, 1, 2, 3, 3]
    entries = tuple(
        ConditionEntry(q, w, p) for q, w, p in zip(degrees, words, polys)
    )
    return ConditionSystem(2, 3, "closed", entries)


def test_two_stage_order3_forced_point():
    forced = ConcreteScheme((F(1, 3), F(2, 3)), (F(3, 4), F(1, 4)))
    closed = closed_two_stage_order3_system()
    closed_residuals = [r for _, _, r in closed.residuals(forced)]
    assert closed_residuals[:4] == [0, 0, 0, 0]
    assert closed_residuals[4] == F(1, 4)

    for system in (conditions_bch(2, 3), conditions_taylor(2, 3)):
        residuals = {e.word: r for (_, _, r), e in zip(system.residuals(forced), system.entries)}
        assert residuals[(A,)] == 0 and residuals[(B,)] == 0
        assert residuals[(A, B)] == 0
        assert residuals[(A, A, B)] == 0  # matches the fourth closed condition
        assert residuals[(A, B, B)] != 0  # and the contradiction in the fifth


def test_two_stage_low_order_solution_sets_coincide():
    rng = random.Random(79)
    closed = closed_two_stage_order3_system()
    degree2 = next(e for e in conditions_bch(2, 2).entries if e.word == (A, B)).polynomial
    for _ in range(8):
        # points built from the generated degree-<=2 conditions satisfy the
        # first three closed conditions ...
        witness = order2_witness(rng, 2, degree2)
        assert [r for _, _, r in closed.residuals(witness)][:3] == [0, 0, 0]
        # ... and points built from the closed parametrization satisfy the
        # generated conditions of degree <= 2
        a1 = random_fraction(rng)
        if a1 == 1:
            continue
        a2 = 1 - a1
        b1 = 1 / (2 * a2)
        parametrized = ConcreteScheme((a1, a2), (b1, 1 - b1))
        for system in (conditions_bch(2, 2), conditions_taylor(2, 2)):
            assert system.satisfied_by(parametrized)


def test_two_stage_order3_no_real_solutions_found_by_refinement():
    closed = closed_two_stage_order3_system()
    for system in (conditions_taylor(2, 3), conditions_bch(2, 3), closed):
        for witness in refine_witnesses(system, 4, seed=101):
            assert not system.satisfied_by(witness, tol=1e-9)


# -- closed-form logarithm oracle ------------------------------------------------


def test_log_pair_closed_form_matches_bch_entries():
    rng = random.Random(83)
    one_pair = conditions_bch(1, 3)
    for _ in range(10):
        a, b = random_fraction(rng), random_fraction(rng)
        scheme = ConcreteScheme((a,), (b,))
        x1, x2, x3, x4, x5 = log_pair_coefficients(a, b)
        residuals = {e.word: r for (_, _, r), e in zip(one_pair.residuals(scheme), one_pair.entries)}
        assert residuals[(A,)] == x1 - 1
        assert residuals[(B,)] == x2 - 1
        assert residuals[(A, B)] == x3
        assert residuals[(A, A, B)] == x4
        assert residuals[(A, B, B)] == x5


def test_two_stage_log_matches_combined_closed_forms():
    rng = random.Random(89)
    system = conditions_bch(2, 3)
    for _ in range(20):
        a1, b1, a2, b2 = (random_fraction(rng) for _ in range(4))
        scheme = ConcreteScheme((a1, a2), (b1, b2))
        h = combine_log_coefficients(
            log_pair_coefficients(a1, b1), log_pair_coefficients(a2, b2)
        )
        residuals = {e.word: r for (_, _, r), e in zip(system.residuals(scheme), system.entries)}
        assert residuals[(A,)] == h[0] - 1
        assert residuals[(B,)] == h[1] - 1
        assert residuals[(A, B)] == h[2]
        assert residuals[(A, A, B)] == h[3]
        assert residuals[(A, B, B)] == h[4]


# -- verification ------------------------------------------------------------------


def test_classical_three_stage_scheme_has_order_3_by_both_routes():
    for route in ("taylor", "bch"):
        assert verify_scheme(PAPER3, 3, route).satisfied


def test_strang_order():
    assert verify_scheme(STRANG, 2, "bch").satisfied
    assert verify_scheme(STRANG, 2, "taylor").satisfied
    report = verify_scheme(STRANG, 3, "bch")
    assert not report.satisfied
    # expected degree-3 residuals from the closed-form logarithm oracle
    h = combine_log_coefficients(
        log_pair_coefficients(F(1, 2), F(1)), log_pair_coefficients(F(1, 2), F(0))
    )
    assert dict(((w, r) for _, w, r in report.nonzero_residuals())) == {
        (A, A, B): h[3],
        (A, B, B): h[4],
    }
    assert not verify_scheme(STRANG, 3, "taylor").satisfied


def test_lie_trotter_order():
    assert verify_scheme(LIE_TROTTER, 1, "bch").satisfied
    assert verify_scheme(LIE_TROTTER, 1, "taylor").satisfied
    report = verify_scheme(LIE_TROTTER, 2, "bch")
    assert not report.satisfied
    assert report.nonzero_residuals() == [(2, (A, B), F(1, 2))]


def test_padded_schemes_keep_their_orders():
    assert verify_scheme(STRANG.padded(3), 2, "bch").satisfied
    assert not verify_scheme(LIE_TROTTER.padded(3), 2, "bch").satisfied
    assert not verify_scheme(LIE_TROTTER.padded(2), 2, "taylor").satisfied


def test_verification_agrees_with_direct_local_error_check():
    rng = random.Random(97)
    candidates = [
        PAPER3,
        STRANG,
        LIE_TROTTER,
        STRANG.padded(3),
        LIE_TROTTER.padded(2),
    ]
    for _ in range(6):
        stages = rng.randint(1, 3)
        candidates.append(
            ConcreteScheme(
                tuple(random_fraction(rng) for _ in range(stages)),
                tuple(random_fraction(rng) for _ in range(stages)),
            )
        )
    for scheme in candidates:
        err = local_error_series(SymbolicScheme.from_concrete(scheme), 4)
        for p in (1, 2, 3):
            direct = all(err.homogeneous_part(q).is_zero() for q in range(1, p + 1))
            assert verify_scheme(scheme, p, "bch").satisfied == direct


# -- equivalence harness --------------------------------------------------------


def test_identical_systems_agree():
    system = conditions_taylor(2, 2)
    report = systems_equivalent(system, system, [STRANG, LIE_TROTTER.padded(2)])
    assert report.all_agree


def test_perturbed_rhs_is_flagged():
    system = conditions_bch(3, 3)
    entries = list(system.entries)
    entries[-1] = ConditionEntry(
        entries[-1].degree, entries[-1].word, entries[-1].polynomial, F(1)
    )
    perturbed = ConditionSystem(3, 3, "bch", tuple(entries))
    report = systems_equivalent(system, perturbed, [PAPER3])
    assert not report.all_agree
    assert report.disagreements()[0].scheme == PAPER3


# -- the exact check: |r| <= tol, read as r == 0 at a zero tolerance --------------


def test_a_zero_tolerance_of_any_type_means_exact_satisfaction():
    near = ConcreteScheme(PAPER3.a[:-1] + (PAPER3.a[-1] + F(1, 10**40),), PAPER3.b)
    bch, taylor = conditions_bch(3, 3), conditions_taylor(3, 3)
    for tol in (0, F(0), 0.0, -0.0):
        assert bch.satisfied_by(PAPER3, tol) and taylor.satisfied_by(PAPER3, tol)
        assert not bch.satisfied_by(near, tol) and not taylor.satisfied_by(near, tol)
        report = systems_equivalent(bch, taylor, [PAPER3, near], tol)
        assert [(v.satisfied_first, v.satisfied_second) for v in report.verdicts] == [
            (True, True),
            (False, False),
        ]


def test_a_positive_tolerance_of_any_type_bounds_each_residual():
    # at order 1 the residuals are sum(a) - 1 and sum(b) - 1: here -1/4 and 1/2, then 3/2
    system, other = conditions_bch(2, 1), conditions_taylor(2, 1)
    half = ConcreteScheme((F(1, 2), F(1, 4)), (F(1), F(1, 2)))
    three_halves = ConcreteScheme((F(1, 2), F(1, 4)), (F(2), F(1, 2)))
    cases = [
        (half, 1, True), (three_halves, 1, False), (three_halves, 2, True),
        (half, F(1, 2), True), (half, F(1, 3), False), (three_halves, F(3, 2), True),
        (half, 0.5, True), (half, 0.25, False), (three_halves, 1.5, True), (half, 1e-300, False),
    ]
    for scheme, tol, expected in cases:
        assert system.satisfied_by(scheme, tol) is expected, (scheme, tol)
        verdict = systems_equivalent(system, other, [scheme], tol).verdicts[0]
        assert verdict.satisfied_first is verdict.satisfied_second is expected


@pytest.mark.parametrize("tol", [0, F(0), 0.0, -0.0, 1, F(1, 2), 0.5, 1e-300, -1, float("nan")])
def test_satisfaction_is_every_abs_residual_within_tol(tol):
    # the rule as it reads, on schemes that satisfy, nearly satisfy and miss order 3
    system = conditions_bch(3, 3)
    near = ConcreteScheme(PAPER3.a[:-1] + (PAPER3.a[-1] + F(1, 10**40),), PAPER3.b)
    for scheme in (PAPER3, near, STRANG.padded(3), LIE_TROTTER.padded(3)):
        residuals = system.residuals(scheme)
        assert system.satisfied_by(scheme, tol) == all(abs(r) <= tol for _, _, r in residuals)


def test_residuals_are_fractions_and_a_vanishing_one_prints_as_0():
    schemes = [PAPER3, STRANG, LIE_TROTTER, PAPER3.padded(5)]
    for scheme, route, p in itertools.product(schemes, ("taylor", "bch"), (1, 3, 4)):
        residuals = verify_scheme(scheme, p, route).residuals
        assert all(type(r) is Fraction for _, _, r in residuals)
        for _, _, r in residuals:
            if not r:
                assert r == Fraction(0) and r.denominator == 1 and str(r) == "0"
    vanishing = [r for _, _, r in verify_scheme(PAPER3, 4).residuals if not r]
    assert len(vanishing) == 5
    nonzero = {w for _, w, r in verify_scheme(PAPER3, 4).residuals if r}
    assert set(leading_error_term(PAPER3, 3).coefficients) == nonzero


def test_route_equivalence_on_refined_witnesses():
    rng = random.Random(103)
    combos = [(2, 2), (2, 3), (3, 3)]
    for stages, p in combos:
        taylor_system = conditions_taylor(stages, p)
        bch_system = conditions_bch(stages, p)
        witnesses = [STRANG.padded(stages), LIE_TROTTER.padded(stages)]
        if stages == 3:
            witnesses.append(PAPER3)
        witnesses += refine_witnesses(taylor_system, 5, seed=7 * stages + p)
        witnesses += refine_witnesses(bch_system, 5, seed=11 * stages + p)
        report = systems_equivalent(taylor_system, bch_system, witnesses, tol=1e-9)
        assert report.all_agree


# -- Lie-element structure of the derivative -------------------------------------


def evaluated_derivative(scheme: ConcreteScheme, q: int) -> NCSeries:
    return taylor_derivative(SymbolicScheme.from_concrete(scheme), q)


def test_derivative_is_lie_once_lower_conditions_hold():
    rng = random.Random(107)
    # points satisfying the order-1 conditions: degree-2 derivative is Lie
    for stages in (2, 3):
        for _ in range(4):
            witness = order1_witness(rng, stages)
            lie_decompose(evaluated_derivative(witness, 2), 2)
    # points satisfying the order-2 conditions: degree-3 derivative is Lie
    for stages in (2, 3):
        degree2 = next(
            e for e in conditions_bch(stages, 2).entries if e.word == (A, B)
        ).polynomial
        for _ in range(4):
            witness = order2_witness(rng, stages, degree2)
            lie_decompose(evaluated_derivative(witness, 2), 2)
            lie_decompose(evaluated_derivative(witness, 3), 3)
    # an order-3 scheme: degree-4 derivative is Lie
    lie_decompose(evaluated_derivative(PAPER3, 4), 4)


def test_derivative_is_not_lie_without_lower_conditions():
    scheme = ConcreteScheme((F(1), F(1)), (F(1), F(2)))  # sums are 2 and 3
    with pytest.raises(NotALieElement):
        lie_decompose(evaluated_derivative(scheme, 2), 2)


def test_derivative_nearly_lie_at_float_refined_points():
    system = conditions_taylor(2, 2)
    for witness in refine_witnesses(system, 3, seed=113):
        try:
            lie_decompose(evaluated_derivative(witness, 3), 3)
        except NotALieElement as err:
            worst = max(
                abs(float(c.constant())) for c in err.residual.terms.values()
            )
            assert worst < 1e-8


# -- leading error term -----------------------------------------------------------


def test_leading_error_lie_trotter():
    term = leading_error_term(LIE_TROTTER, 1)
    assert term.degree == 2
    assert term.coefficients == {(A, B): Poly.const(F(1, 2))}


def test_leading_error_strang():
    term = leading_error_term(STRANG, 2)
    h = combine_log_coefficients(
        log_pair_coefficients(F(1, 2), F(1)), log_pair_coefficients(F(1, 2), F(0))
    )
    assert term.coefficients == {
        (A, A, B): Poly.const(h[3]),
        (A, B, B): Poly.const(h[4]),
    }


def test_leading_error_classical_order3():
    term = leading_error_term(PAPER3, 3)
    assert term.degree == 4
    assert set(term.coefficients) <= {(A, A, A, B), (A, A, B, B), (A, B, B, B)}
    assert term.coefficients  # the scheme has order exactly 3


def assert_leading_term_reconstructs_local_error(scheme, p):
    # exact series form of taylor_q = q! * M_q * bch_q at q = p + 1: the
    # leading term's Lie element is the degree-(p+1) part of the local error
    term = leading_error_term(scheme, p)
    err = local_error_series(SymbolicScheme.from_concrete(scheme), p + 1)
    assert term.reconstruct(p + 1) == homogeneous_at_truncation(err, p + 1)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_leading_error_round_trip_registry(name):
    entry = REGISTRY[name]
    assert_leading_term_reconstructs_local_error(entry.scheme, entry.order)


@pytest.mark.parametrize("seed", [211, 223])
@pytest.mark.parametrize("stages", [2, 3])
def test_leading_error_round_trip_order2_witnesses(stages, seed):
    degree2 = next(
        e for e in conditions_bch(stages, 2).entries if e.word == (A, B)
    ).polynomial
    witness = order2_witness(random.Random(seed), stages, degree2)
    assert_leading_term_reconstructs_local_error(witness, 2)


# -- per-coefficient identity of the two routes ------------------------------


def lyndon_basis_matrix(q):
    """Lyndon words of degree q in lex order, and M[w][l]: coefficient of word
    w in the expansion of the bracketing of l."""
    words = sorted(lyndon_words_of_degree(2, q))
    return words, [[expand(bracketing(l), q).coefficient(w) for l in words] for w in words]


def assert_taylor_residuals_are_scaled_bch_residuals(scheme, p):
    # at an order-p scheme the degree-(p+1) local error is the Lie element
    # whose Lyndon-basis coordinates are the BCH residuals; its Lyndon-word
    # coefficients, scaled by q!, are the Taylor residuals
    q = p + 1
    words, matrix = lyndon_basis_matrix(q)
    taylor = {w: r for d, w, r in conditions_taylor(scheme.stages, q).residuals(scheme) if d == q}
    bch = {w: r for d, w, r in conditions_bch(scheme.stages, q).residuals(scheme) if d == q}
    assert any(bch.values())
    expected = [
        math.factorial(q) * sum(m.constant() * bch[l] for m, l in zip(row, words))
        for row in matrix
    ]
    assert [taylor[w] for w in words] == expected


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_lyndon_basis_matrix_is_unitriangular(q):
    _, matrix = lyndon_basis_matrix(q)
    for i, row in enumerate(matrix):
        assert row[i] == Poly.const(1)
        assert all(m.is_zero for m in row[i + 1 :])


@pytest.mark.parametrize("name", list(REGISTRY))
def test_taylor_residuals_are_scaled_bch_residuals_registry(name):
    entry = REGISTRY[name]
    assert_taylor_residuals_are_scaled_bch_residuals(entry.scheme, entry.order)


@pytest.mark.parametrize("seed", [211, 223])
@pytest.mark.parametrize("stages", [2, 3])
def test_taylor_residuals_are_scaled_bch_residuals_order2_witnesses(stages, seed):
    degree2 = next(
        e for e in conditions_bch(stages, 2).entries if e.word == (A, B)
    ).polynomial
    witness = order2_witness(random.Random(seed), stages, degree2)
    assert_taylor_residuals_are_scaled_bch_residuals(witness, 2)


def test_leading_error_requires_the_claimed_order():
    with pytest.raises(NotOrderP):
        leading_error_term(STRANG, 3)


def test_leading_error_rejects_order_below_1():
    with pytest.raises(ValueError):
        leading_error_term(STRANG, 0)


def test_exp_of_lie_element_leading_term_has_unit_coefficient():
    # e^X - 1 for X starting at degree p+1: the first surviving homogeneous
    # part is X_{p+1} itself, with no extra factorial scaling
    from splitcond import exp, expand

    for p in (1, 2, 3):
        x = expand((A, B), p + 2) if p == 1 else NCSeries.zero(p + 2)
        if p > 1:
            word = (A,) * p + (B,)
            from splitcond import bracketing

            x = expand(bracketing(word), p + 2).scale(F(3, 7))
        e = exp(x)
        first = next(
            j for j in range(1, p + 3) if not (e - NCSeries.unit(p + 2)).homogeneous_part(j).is_zero()
        )
        assert first == len(next(iter(x.terms)))
        assert e.homogeneous_part(first) == x.homogeneous_part(first)


def test_concrete_scheme_validation():
    with pytest.raises(ValueError):
        ConcreteScheme((F(1),), (F(1), F(0)))
    with pytest.raises(ValueError):
        ConcreteScheme((), ())
    with pytest.raises(ValueError):
        STRANG.padded(1)


def test_condition_system_rejects_wrong_stage_count():
    with pytest.raises(ValueError):
        conditions_taylor(2, 2).residuals(PAPER3)
    with pytest.raises(ValueError):
        systems_equivalent(conditions_taylor(2, 2), conditions_taylor(3, 2), [])


def classical_three_stage_order3_system() -> ConditionSystem:
    # the textbook form of the s=3, p=3 conditions, with lower-order sums
    # already substituted: a2*b1 + a3*(b1+b2) = 1/2, a2*b1^2 + a3*(b1+b2)^2 = 1/3,
    # (a2+a3)^2*b1 + a3^2*b2 = 1/3
    a1, a2, a3 = (sym("a", j) for j in (1, 2, 3))
    b1, b2, b3 = (sym("b", j) for j in (1, 2, 3))
    entries = (
        ConditionEntry(1, (A,), a1 + a2 + a3 - 1),
        ConditionEntry(1, (B,), b1 + b2 + b3 - 1),
        ConditionEntry(2, (A, B), a2 * b1 + a3 * (b1 + b2) - F(1, 2)),
        ConditionEntry(3, (A, A, B), a2 * b1**2 + a3 * (b1 + b2) ** 2 - F(1, 3)),
        ConditionEntry(3, (A, B, B), (a2 + a3) ** 2 * b1 + a3**2 * b2 - F(1, 3)),
    )
    return ConditionSystem(3, 3, "classical", entries)


def test_three_stage_solution_set_matches_classical_substituted_system():
    classical = classical_three_stage_order3_system()
    assert classical.satisfied_by(PAPER3)
    for route_system in (conditions_taylor(3, 3), conditions_bch(3, 3)):
        # points refined onto the generated system land on the classical one
        for witness in refine_witnesses(route_system, 8, seed=211):
            if route_system.satisfied_by(witness, tol=1e-9):
                assert classical.satisfied_by(witness, tol=1e-8)
        # and points refined onto the classical one satisfy the generated one
        for witness in refine_witnesses(classical, 8, seed=223):
            if classical.satisfied_by(witness, tol=1e-9):
                assert route_system.satisfied_by(witness, tol=1e-8)


def eliminated_three_stage_order3_system() -> ConditionSystem:
    # an alternative closed form of the s=3, p=3 conditions in which the
    # degree-2 relation has been used to eliminate a3*b2 from the two
    # degree-3 conditions
    a1, a2, a3 = (sym("a", j) for j in (1, 2, 3))
    b1, b2, b3 = (sym("b", j) for j in (1, 2, 3))
    entries = (
        ConditionEntry(1, (A,), a1 + a2 + a3 - 1),
        ConditionEntry(1, (B,), b1 + b2 + b3 - 1),
        ConditionEntry(2, (A, B), a2 * b1 + a3 * b1 + a3 * b2 - F(1, 2)),
        ConditionEntry(3, (A, A, B), 3 * (a2 + a3) - 6 * a2 * a3 * b2 - 2),
        ConditionEntry(3, (A, B, B), 3 * (b1 + b2) - 6 * b1 * b2 * a2 - 2),
    )
    return ConditionSystem(3, 3, "eliminated", entries)


def test_three_stage_solution_set_matches_eliminated_system():
    eliminated = eliminated_three_stage_order3_system()
    assert eliminated.satisfied_by(PAPER3)
    generated = conditions_bch(3, 3)
    for witness in refine_witnesses(generated, 8, seed=227):
        if generated.satisfied_by(witness, tol=1e-9):
            assert eliminated.satisfied_by(witness, tol=1e-8)
    for witness in refine_witnesses(eliminated, 8, seed=229):
        if eliminated.satisfied_by(witness, tol=1e-9):
            assert generated.satisfied_by(witness, tol=1e-8)


def test_route_equivalence_extends_to_order_4():
    taylor_system = conditions_taylor(3, 4)
    bch_system = conditions_bch(3, 4)
    # Witt counts per degree 1..4 over two letters: 2, 1, 2, 3
    assert [e.degree for e in taylor_system.entries] == [1, 1, 2, 3, 3, 4, 4, 4]
    assert [e.degree for e in bch_system.entries] == [1, 1, 2, 3, 3, 4, 4, 4]
    witnesses = [PAPER3, STRANG.padded(3)]
    witnesses += refine_witnesses(taylor_system, 5, seed=331)
    witnesses += refine_witnesses(bch_system, 5, seed=337)
    report = systems_equivalent(taylor_system, bch_system, witnesses, tol=1e-9)
    assert report.all_agree


# -- the BCH route against the dense subtraction solve -------------------------


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("stages", [1, 2, 3, 4])
def test_bch_entries_equal_the_dense_oracle(stages, p):
    # back-substitution at the Lyndon words, unchecked, against the dense
    # logarithm decomposed by series subtraction with its Lie check
    entries = [(e.degree, e.word, e.polynomial) for e in conditions_bch(stages, p).entries]
    assert entries == conditions_bch_dense(SymbolicScheme.generic(stages), p)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_bch_residuals_equal_the_dense_oracle_registry(name):
    entry = REGISTRY[name]
    for p in range(1, entry.order + 2):
        residuals = verify_scheme(entry.scheme, p, route="bch").residuals
        oracle = conditions_bch_dense(SymbolicScheme.from_concrete(entry.scheme), p)
        assert [(q, w, Poly.const(r)) for q, w, r in residuals] == oracle


def test_table_cache_is_bounded():
    # 20 further tables evict degree 3; the rebuilt tables give the same residuals
    from splitcond.lyndon import _Tables

    before = verify_scheme(STRANG, 3)
    for p in range(1, 5):
        for alphabet in range(3, 8):
            _Tables(p, alphabet)
    assert _Tables.cache_info().currsize <= 16
    misses = _Tables.cache_info().misses
    assert verify_scheme(STRANG, 3) == before
    assert _Tables.cache_info().misses == misses + 1


# -- the integer recurrence against the symbolic systems and the oracles ----------


def random_concrete_schemes(seed, count):
    # zero stages, negatives and mixed denominators, s <= 4
    rng = random.Random(seed)
    schemes = []
    for _ in range(count):
        stages = rng.randint(1, 4)
        draw = [
            rng.choice((F(0), random_fraction(rng), random_fraction(rng, span=40)))
            for _ in range(2 * stages)
        ]
        schemes.append(ConcreteScheme(draw[:stages], draw[stages:]))
    return schemes


def test_integer_residuals_equal_the_symbolic_systems():
    schemes = [entry.scheme.padded(entry.scheme.stages + extra)
               for entry in REGISTRY.values() for extra in (0, 1)]
    cells = [(scheme, p) for scheme in schemes for p in range(1, 7)]
    rng = random.Random(1111)
    cells += [(scheme, rng.randint(1, 6)) for scheme in random_concrete_schemes(1109, 200)]
    points = [x for scheme, _ in cells for x in scheme.point()]
    assert any(x == 0 for x in points) and any(x < 0 for x in points)
    assert len({x.denominator for x in points}) > 10
    for scheme, p in cells:
        for route in ("taylor", "bch"):
            expected = condition_system(scheme.stages, p, route).residuals(scheme)
            assert list(verify_scheme(scheme, p, route).residuals) == expected, (scheme, p)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_leading_error_is_the_next_bch_degree(name):
    scheme = REGISTRY[name].scheme
    for extra in (0, 1, 2):
        padded = scheme.padded(scheme.stages + extra)
        p = REGISTRY[name].order
        residuals = conditions_bch(padded.stages, p + 1).residuals(padded)
        expected = {w: Poly.const(r) for q, w, r in residuals if q == p + 1 and r != 0}
        assert leading_error_term(padded, p).coefficients == expected
        assert expected


def test_integer_residuals_equal_the_dense_oracles():
    schemes = [entry.scheme.padded(entry.scheme.stages + 1) for entry in REGISTRY.values()]
    schemes += random_concrete_schemes(1201, 12)
    for scheme in schemes:
        symbolic = SymbolicScheme.from_concrete(scheme)
        product = splitting_product_by_exp(symbolic, 5)
        for p in (1, 3, 5):
            bch = verify_scheme(scheme, p, "bch").residuals
            assert [(q, w, Poly.const(r)) for q, w, r in bch] == conditions_bch_dense(symbolic, p)
            taylor = verify_scheme(scheme, p, "taylor").residuals
            assert [(q, w, Poly.const(r)) for q, w, r in taylor] == [
                (q, w, product.coefficient(w) * math.factorial(q) - 1)
                for q in range(1, p + 1)
                for w in lyndon_words_of_degree(2, q)
            ]


def test_verification_builds_no_symbolic_system(monkeypatch):
    def refuse(*args):
        raise AssertionError("verification built a symbolic system")

    monkeypatch.setattr("splitcond.conditions.sum_of_products", refuse)
    monkeypatch.setattr("splitcond.conditions._dot", refuse)
    monkeypatch.setattr("splitcond.conditions._sweep", refuse)
    monkeypatch.setattr("splitcond.conditions.condition_system", refuse)
    for scheme in [entry.scheme for entry in REGISTRY.values()] + random_concrete_schemes(7, 5):
        for p in (1, 2, 3, 4):
            verify_scheme(scheme, p, "taylor")
            verify_scheme(scheme, p, "bch")
    leading_error_term(PAPER3.padded(5), 3)
    leading_error_term(STRANG, 2)


def test_the_bch_read_builds_rows_only_at_the_degrees_that_do_not_vanish():
    # Strang is symmetric, so its log has odd degrees only: the read builds rows for
    # degrees 3, 5 and 7 and none for the even ones; degree 1 reads itself
    _Tables.cache_clear()
    verify_scheme(STRANG, 8)
    assert sorted(_Tables(8, 2)._reads) == [3, 5, 7]


def test_bch_systems_read_no_expanded_product_table(monkeypatch):
    # the systems' log multiplies by the stages over the suffix steps: it builds no
    # factor steps for an expanded product and no split table for Horner over it
    def refuse(tables):
        raise AssertionError("a condition system read a table of the expanded product")

    # a property, unlike the cached one it replaces, wins over an instance's cached value
    monkeypatch.setattr(_Tables.__wrapped__, "factor_steps", property(refuse))
    monkeypatch.setattr(_Tables.__wrapped__, "log_steps", property(refuse))
    for stages, p in [(1, 1), (1, 4), (2, 5), (3, 4), (4, 5)]:
        condition_system(stages, p, "bch")
    with pytest.raises(AssertionError, match="expanded product"):
        verify_scheme(PAPER3, 3, "bch")  # the int path keeps the one expanded sweep


# the nonzero BCH residuals of paper-order3 through degree 5, exactly: the int
# path's one sweep by the expanded product must keep them as the systems change
PAPER3_BCH_RESIDUALS = {
    (A, A, A, B): F(5, 2304),
    (A, A, B, B): F(-1, 72),
    (A, B, B, B): F(1, 216),
    (A, A, A, A, B): F(-53, 207360),
    (A, A, A, B, B): F(-71, 69120),
    (A, A, B, A, B): F(-1, 23040),
    (A, A, B, B, B): F(-1, 1620),
    (A, B, A, B, B): F(1, 720),
    (A, B, B, B, B): F(1, 6480),
}


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_verify_scheme_keeps_the_paper_order3_residuals(p):
    report = verify_scheme(PAPER3, p)
    words = [w for q in range(1, p + 1) for w in lyndon_words_of_degree(2, q)]
    assert [(q, w) for q, w, _ in report.residuals] == [(len(w), w) for w in words]
    expected = {w: r for w, r in PAPER3_BCH_RESIDUALS.items() if len(w) <= p}
    assert {w: r for _, w, r in report.residuals if r} == expected
    assert report.satisfied == (p <= 3)


# -- the exact identity of the two routes ---------------------------------------


@pytest.mark.parametrize("stages,p", [(2, 4), (3, 4), (3, 5), (4, 5), (3, 6), (4, 6)])
def test_exp_of_the_bch_series_is_the_splitting_product(stages, p):
    # D = sum_l bch_l P_l over every entry, degree 1 included, P_l the expanded
    # bracketing: exp(A + B + D) is the product F word for word, so its
    # q!-scaled Lyndon-word coefficients, less 1, are the Taylor entries
    deviation = NCSeries.zero(p)
    for e in conditions_bch(stages, p).entries:
        deviation = deviation + expand(bracketing(e.word), p).scale(e.polynomial)
    flow = exp(NCSeries.letter(A, p) + NCSeries.letter(B, p) + deviation)
    assert flow == splitting_product(SymbolicScheme.generic(stages), p)
    for e in conditions_taylor(stages, p).entries:
        assert flow.coefficient(e.word) * math.factorial(e.degree) - 1 == e.polynomial


# -- the cost guard: estimates only, the refused work is never started -------------


def term_bound(word, stages):
    # the terms of an entry at a word with i A's and j B's: bihomogeneous of degree
    # (i, j) in the a's and b's past its constant
    i, j = word.count(A), word.count(B)
    return math.comb(i + stages - 1, stages - 1) * math.comb(j + stages - 1, stages - 1) + 1


def test_cost_estimate_counts_the_lyndon_words_by_bidegree():
    # Witt's counts against the enumerated words: the taylor tables cost 3 |w|^2 a
    # word, the bch tables |w| (C(|w|, i) + |w| (|w| + 1) / 2), an entry 2s bytes a term
    for p in range(1, 10):
        words = lyndon_words(2, p)
        assert check_cost(p, "taylor") == 3 * sum(len(w) ** 2 for w in words)
        bch = sum(len(w) * (math.comb(len(w), w.count(A)) + len(w) * (len(w) + 1) // 2)
                  for w in words)
        assert check_cost(p, "bch") == bch
        for stages in (1, 2, 5):
            terms = sum(2 * stages * term_bound(w, stages) for w in words)
            assert check_cost(p, "taylor", stages) - check_cost(p, "taylor") == terms


@pytest.mark.parametrize("stages,p", [(1, 6), (2, 5), (3, 4), (4, 4)])
def test_cost_estimate_bounds_the_terms_of_each_entry(stages, p):
    for route in ("taylor", "bch"):
        for entry in condition_system(stages, p, route).entries:
            assert len(entry.polynomial.terms) <= term_bound(entry.word, stages), entry


def test_cost_estimate_on_extreme_values():
    # computed, never run: each refusal names the order and a one-line reason
    for p, route, stages in [(2, "bch", 20000), (2, "taylor", 2000), (23, "taylor", 3),
                             (2, "bch", 10**18), (15, "bch", None), (22, "taylor", None),
                             (20, "taylor", None), (23, "bch", 1), (9, "bch", 8), (10, "taylor", 8)]:
        with pytest.raises(ValueError, match=f"^order {p} .* bytes, over the budget of 1e\\+08$"):
            check_cost(p, route, stages)
    for p in (24, 30, 127, 128, 10**18):
        for stages in (None, 1, 10**18):
            with pytest.raises(ValueError, match=f"^order {p} may need over 1000000 Lyndon words$"):
                check_cost(p, "bch", stages)
    with pytest.raises(ValueError, match="bytes"):  # over the cost budget, under 24
        check_cost(23, "taylor", None)
    assert MAX_LYNDON_WORDS == 10**6
    for p, route, stages in [(8, "taylor", 8), (8, "bch", 6), (14, "bch", None),
                             (19, "taylor", None), (2, "bch", 100), (0, "bch", 3), (-5, "bch", None)]:
        assert 0 <= check_cost(p, route, stages) <= MAX_COST
