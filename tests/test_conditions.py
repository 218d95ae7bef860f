import itertools
import math
import random
from fractions import Fraction

import pytest

from splitcond import (
    ConcreteScheme,
    ConditionEntry,
    ConditionSystem,
    LieDecomposition,
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
    _INTS,
    _MAPS,
    MAX_COST,
    ROUTES,
    _NIL,
    _divided_product,
    check_cost,
)
from splitcond.lyndon import (
    MAX_LYNDON_WORDS,
    _numbered,
    _product_steps,
    _Tables,
    lyndon_count,
    lyndon_words,
)
from splitcond.poly import Poly

from helpers import (
    combine_log_coefficients,
    conditions_bch_dense,
    homogeneous_at_truncation,
    leading_error_term_by_bch,
    log_pair_coefficients,
    necklace_count,
    order1_witness,
    order2_witness,
    random_fraction,
    refine_witnesses,
    splitting_product_by_exp,
    strang_composition,
    symbol_point,
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
        # the divided-power recurrence, G[w] = |w|! F[w], by the int ring over Poly values
        slots = _numbered(closure)
        steps = _product_steps(slots)
        symbols = enumerate(symbol_point(stages))
        factors = [(i % 2, n) for i, n in symbols]
        divided = _divided_product(_INTS, factors, steps, len(slots))
        divided = dict(zip(slots, divided))
        assert set(divided) == closure
        for word in closure:
            expected = full.coefficient(word) * math.factorial(len(word))
            assert divided[word] == expected, word_str(word)


def test_systems_own_their_maps_and_leave_the_ring_s_zero_and_one():
    # condition_system writes each Taylor entry's -D^q, and the BCH entries' at q = 1, into the
    # kernel's own map, which its Poly then keeps: no map is the ring's, and none is shared
    zero, one = _MAPS.zero, _MAPS.one
    for route in ROUTES:
        for s in (1, 2, 3):
            for p in range(1, 6):
                system = condition_system(s, p, route)
                assert _MAPS.zero is zero and _MAPS.one is one
                assert zero == {} and one == {0: 1}
                nums = [e.polynomial._nums for e in system.entries]
                assert len({id(m) for m in nums}) == len(nums), (route, s, p)
                again = condition_system(s, p, route)
                assert again.to_records() == system.to_records() and again == system


def test_a_slot_left_at_the_ring_s_zero_gets_a_map_of_its_own(monkeypatch):
    # no generic build leaves a Lyndon slot unwritten; one that did would hold the shared {}
    def unwritten(ring, point, den, p, route):
        return [(1, {(A,): 0}, [ring.zero], 1, 1)]

    monkeypatch.setattr("splitcond.conditions._route", unwritten)
    (entry,) = condition_system(1, 1, "taylor").entries
    assert entry.polynomial == -1 and _MAPS.zero == {}


def test_exp_of_sum_is_the_closed_form_at_every_truncation():
    # 1/|w|! at every word through the truncation: the series exponential of A + B, and at
    # truncation 0 the unit, so the local error at 0 vanishes as the product there is 1
    assert exp_of_sum(0) == NCSeries.unit(0)
    assert local_error_series(SymbolicScheme.generic(2), 0).is_zero()
    for n in range(1, 8):
        expected = exp(NCSeries.letter(A, n) + NCSeries.letter(B, n))
        assert exp_of_sum(n) == expected and repr(exp_of_sum(n)) == repr(expected)


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
    # an exponent over 127 carries into the next symbol's byte, and tables through an
    # order over 23 would hold over MAX_LYNDON_WORDS Lyndon words; both guards come
    # before any Lyndon word through length p is listed
    class Refused(Exception):
        pass

    def refuse(*args):
        raise Refused

    monkeypatch.setattr("splitcond.lyndon._duval", refuse)
    for p in (128, 200):
        with pytest.raises(ValueError, match="^target order must be <= 127$"):
            condition_system(1, p, route)
        with pytest.raises(ValueError, match="^target order must be <= 127$"):
            verify_scheme(STRANG, p, route)
    with pytest.raises(ValueError, match="^target order must be <= 127$"):
        leading_error_term(STRANG, 127)
    for p in (24, 127):  # the tables' top degree is the order, and the leading term's p + 1
        words = f"^order {p} may need over 1000000 words$"
        with pytest.raises(ValueError, match=words):
            condition_system(1, p, route)
        with pytest.raises(ValueError, match=words):
            verify_scheme(STRANG, p, route)
        with pytest.raises(ValueError, match=words):
            leading_error_term(STRANG, p - 1)
    # order 23 passes the guards, and the route and stage checks still come first
    with pytest.raises(Refused):
        condition_system(1, 23, route)
    with pytest.raises(Refused):
        verify_scheme(STRANG, 23, route)
    with pytest.raises(Refused):
        leading_error_term(STRANG, 22)
    with pytest.raises(ValueError, match="route must be one of"):
        condition_system(1, 200, route + "?")
    with pytest.raises(ValueError, match="stage count must be >= 1"):
        condition_system(0, 200, route)


def test_condition_system_text_is_its_lines():
    # a header, then one indented line per entry; with no entries, the header alone
    system = condition_system(2, 3, "bch")
    lines = list(system.lines())
    assert lines[0] == "bch conditions, s=2, p=3"
    assert lines[1:] == [f"  {e}" for e in system.entries]
    assert "\n".join(lines) == str(system)
    assert list(system._replace(entries=()).lines()) == lines[:1]


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


# a tolerance is an int, Fraction or float, not a bool, and neither negative nor NaN: anything
# else is refused by name, even where every residual vanishes, as Strang's do at p = 2
REFUSED_TOLERANCES = [
    pytest.param(-1, ValueError, id="-1"),
    pytest.param(float("nan"), ValueError, id="nan"),
    pytest.param(-1e-9, ValueError, id="-1e-09"),
    pytest.param(F(-1, 2), ValueError, id="-1/2"),
    pytest.param(float("-inf"), ValueError, id="-inf"),
    pytest.param(None, TypeError, id="None"),
    pytest.param(True, TypeError, id="True"),
    pytest.param(False, TypeError, id="False"),
    pytest.param("1", TypeError, id="str"),
    pytest.param(1j, TypeError, id="complex"),
]


@pytest.mark.parametrize("tol, error", REFUSED_TOLERANCES)
def test_a_tolerance_that_is_not_a_nonnegative_number_is_refused(tol, error):
    taylor, bch = conditions_taylor(2, 2), conditions_bch(2, 2)
    assert taylor.satisfied_by(STRANG) and bch.satisfied_by(STRANG)
    with pytest.raises(error, match="^tol must be "):
        taylor.satisfied_by(STRANG, tol)
    with pytest.raises(error, match="^tol must be "):
        systems_equivalent(taylor, bch, [STRANG], tol)


def test_a_signed_zero_and_an_infinite_tolerance_stay_accepted():
    system = conditions_bch(2, 2)
    for tol in (0.0, -0.0, float("inf")):
        assert system.satisfied_by(STRANG, tol)
        assert system.satisfied_by(LIE_TROTTER.padded(2), tol) is (tol > 0)
        assert systems_equivalent(system, conditions_taylor(2, 2), [STRANG], tol).all_agree


@pytest.mark.parametrize("tol", [0, F(0), 0.0, -0.0, 1, F(1, 2), 0.5, 1e-300])
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


def leading_term_or_refusal(lead, scheme, p):
    try:
        return lead(scheme, p)
    except NotOrderP as refusal:
        return str(refusal)


def random_lead_witnesses(seed, count):
    # 1-6 stages, about a third of the values zero.  Odd draws: coefficient sums
    # forced to 1 in most, so the order-1 check mostly passes.  Even draws: Strang
    # compositions of 1-5 weights summing to 1, some of them zero, which have order 2
    rng, schemes = random.Random(seed), []
    for k in range(count):
        if k % 2:
            stages = rng.randint(1, 6)
            a, b = ([F(0) if rng.random() < 0.3 else random_fraction(rng) for _ in range(stages)]
                    for _ in "ab")
            if rng.random() < 0.8:
                a[-1], b[-1] = 1 - sum(a[:-1]), 1 - sum(b[:-1])
            schemes.append(ConcreteScheme(a, b))
        else:
            w = [F(0) if rng.random() < 0.3 else random_fraction(rng)
                 for _ in range(rng.randint(0, 4))]
            schemes.append(strang_composition(w + [1 - sum(w)]))
    return schemes


ORDER3_STRANG_WEIGHTS = [F(x, 6) for x in (3, 4, 5, -6)]
# palindromes of weights summing to 1 whose cubes sum to 0: symmetric, so order 4, and
# degree 5 is the first whose Lyndon read has rows (AAABB and AABAB share their letters)
ORDER4_STRANG_WEIGHTS = [[F(x, 66) for x in (12, 17, 19, -30, 19, 17, 12)],
                         [F(x, 6) for x in (-35, -1, 18, 42, 18, -1, -35)]]
LEAD_WITNESSES = [entry.scheme for entry in REGISTRY.values()]
LEAD_WITNESSES += map(strang_composition, itertools.permutations(ORDER3_STRANG_WEIGHTS))
LEAD_WITNESSES += map(strang_composition, ORDER4_STRANG_WEIGHTS)
LEAD_WITNESSES += random_lead_witnesses(2609, 60)


@pytest.mark.parametrize("p", range(1, 7))
def test_leading_error_term_equals_the_bch_oracle(p):
    # the term read off the product at degree p + 1, and the refusal, against the
    # logarithm's residuals at order p + 1: coefficients and message alike
    read = 0
    for scheme in LEAD_WITNESSES:
        got = leading_term_or_refusal(leading_error_term, scheme, p)
        expected = leading_term_or_refusal(leading_error_term_by_bch, scheme, p)
        assert got == expected, scheme
        assert str(got) == str(expected)
        read += isinstance(got, LieDecomposition)
    # terms are read through p = 4, the random draws among them at p = 1 and 2;
    # no witness has order 5
    assert read >= {1: 80, 2: 55, 3: 27, 4: 2}.get(p, 0)


def test_leading_error_term_forms_no_logarithm():
    # the product and its read fill the tables through degree p + 1; the log's
    # factor numbering, its product steps and its splits are never built
    _Tables.cache_clear()
    leading_error_term(PAPER3, 3)
    built = vars(_Tables(4, 2))
    assert "suffix_steps" in built
    assert not {"factors", "factor_steps", "log_steps"} & set(built)


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


def test_a_zero_stage_pair_leaves_every_report_unchanged():
    # e^{0A} e^{0B} = 1 at the front, in the middle or at the end: a zero stage never enters
    # the factor word, and at the front, with a1 = 0, the read still sweeps by the ring's unit
    schemes = [entry.scheme for entry in REGISTRY.values()] + random_concrete_schemes(1301, 6)
    for scheme in schemes:
        a, b, s = scheme.a, scheme.b, scheme.stages
        for k in sorted({0, (s + 1) // 2, s}):
            padded = ConcreteScheme(a[:k] + (F(0),) + a[k:], b[:k] + (F(0),) + b[k:])
            for p, route in itertools.product(range(1, 7), ("taylor", "bch")):
                before, after = verify_scheme(scheme, p, route), verify_scheme(padded, p, route)
                assert after.residuals == before.residuals, (scheme, k, p, route)
                assert after.satisfied == before.satisfied


@pytest.mark.parametrize("stages,p", [(1, 1), (2, 4), (3, 3), (4, 5)])
def test_every_condition_has_the_offset_as_its_constant_term(stages, p):
    # the route's numerators are homogeneous of degree q >= 1 in the symbols, so each
    # condition's constant term is its offset's alone: -1 on Taylor (q! F[w] - 1) and on
    # BCH at degree 1 (less A + B), and 0 on BCH above
    for route in ("taylor", "bch"):
        for e in condition_system(stages, p, route).entries:
            assert e.polynomial.constant() == (-1 if route == "taylor" or e.degree == 1 else 0)
            assert {sum(m) for m in e.polynomial.terms if any(m)} <= {e.degree}


def test_an_all_zero_scheme_is_the_empty_factor_word():
    # e^{0A} e^{0B} e^{0A} e^{0B} = 1: no factor enters, so no stage could lend the read its
    # unit.  log(1) - (A + B) = -(A + B), and q! F[w] - 1 = -1 at every Lyndon word w
    zero = ConcreteScheme((0, 0), (0, 0))
    for p in range(1, 7):
        bch = verify_scheme(zero, p, "bch").residuals
        assert [r for q, w, r in bch if q == 1] == [-1, -1]
        assert all(r is _NIL for q, w, r in bch if q > 1)
        taylor = verify_scheme(zero, p, "taylor").residuals
        assert [w for q, w, r in taylor] == [w for q, w, r in bch]
        assert all(r == -1 for q, w, r in taylor)
    with pytest.raises(NotOrderP):
        leading_error_term(zero, 1)
    assert splitting_product(SymbolicScheme.from_concrete(zero), 4) == NCSeries.unit(4)


def test_verification_builds_no_symbolic_system(monkeypatch):
    def refuse(*args):
        raise AssertionError("verification built a symbolic system")

    # the integer-map ring, read by name at each call, refuses its product kernel, and so
    # do the map log and sum_of_products, through which every Poly + and * goes
    monkeypatch.setattr("splitcond.conditions._MAPS", _MAPS._replace(product=refuse))
    monkeypatch.setattr("splitcond.conditions._map_log", refuse)
    monkeypatch.setattr("splitcond.poly.sum_of_products", refuse)
    monkeypatch.setattr("splitcond.conditions.condition_system", refuse)
    for scheme in [entry.scheme for entry in REGISTRY.values()] + random_concrete_schemes(7, 5):
        for p in (1, 2, 3, 4):
            verify_scheme(scheme, p, "taylor")
            verify_scheme(scheme, p, "bch")
    leading_error_term(PAPER3.padded(5), 3)
    leading_error_term(STRANG, 2)


def test_the_bch_read_builds_rows_only_at_the_degrees_that_do_not_vanish():
    # Strang is symmetric, so its log has odd degrees only: the read builds rows for
    # degrees 3, 5 and 7 and none for the even ones; degree 1 reads itself, and over two
    # letters no degree through 4 has rows, so degree 3's are the [] that records it
    _Tables.cache_clear()
    verify_scheme(STRANG, 8)
    reads = _Tables(8, 2)._reads
    assert sorted(reads) == [3, 5, 7]
    assert [q for q in sorted(reads) if reads[q]] == [5, 7]


def test_the_read_builds_no_rows_at_a_degree_that_has_none(monkeypatch):
    # through degree 4 no two Lyndon words over A and B share their letters, so no bracket
    # holds another of them: BCH verification through p = 4, the BCH system at (3, 4) and
    # the leading terms of degree 4 expand no bracket, read after read, and each degree read
    # keeps the [] that records it
    def refuse(*args):
        raise AssertionError("the read expanded a bracket at a degree that has no rows")

    _Tables.cache_clear()
    monkeypatch.setattr("splitcond.lyndon._bracket", refuse)
    for scheme in [entry.scheme for entry in REGISTRY.values()] + random_concrete_schemes(7, 5):
        for p in (1, 2, 3, 4):
            verify_scheme(scheme, p, "bch")
    condition_system(3, 4, "bch")
    for scheme in (PAPER3, PAPER3.padded(5)):
        leading_error_term(scheme, 3)
    reads = [_Tables(p, 2)._reads for p in (1, 2, 3, 4)]
    assert {q for r in reads for q in r} == {2, 3, 4}
    assert all(rows == [] for r in reads for rows in r.values())
    _Tables.cache_clear()


def test_a_degree_without_rows_packs_no_word(monkeypatch):
    # the letter contents alone show a degree without rows: BCH (3, 4) on a fresh table packs
    # no word for its read, and reads the [] that records each degree
    def refuse(*args):
        raise AssertionError("the read packed a word at a degree that has no rows")

    _Tables.cache_clear()
    monkeypatch.setattr("splitcond.lyndon._pack", refuse)
    system = condition_system(3, 4, "bch")
    monkeypatch.undo()
    _Tables.cache_clear()
    assert system == condition_system(3, 4, "bch")
    assert all(rows == [] for rows in _Tables(4, 2)._reads.values())
    _Tables.cache_clear()


def test_a_read_after_another_on_one_table_equals_a_fresh_read():
    # Strang's read skips its even degrees and keeps its brackets for that read only, so
    # paper-order3's read on the same table forms the even degrees' factors afresh; and
    # leading_error_term reads rows that verify_scheme built on its table
    for p in (8, 10):
        _Tables.cache_clear()
        fresh = verify_scheme(PAPER3, p)
        _Tables.cache_clear()
        verify_scheme(STRANG, p)
        reads = _Tables(p, 2)._reads  # odd degrees only, with rows from degree 5 on
        assert sorted(reads) == [3, *range(5, p, 2)]
        assert [q for q in sorted(reads) if reads[q]] == list(range(5, p, 2))
        assert verify_scheme(PAPER3, p) == fresh
    for scheme, p in [(STRANG, 2), (PAPER3, 3), (PAPER3.padded(5), 3), (LIE_TROTTER, 1)]:
        _Tables.cache_clear()
        fresh = leading_error_term(scheme, p)
        for route in ROUTES:
            _Tables.cache_clear()
            verify_scheme(scheme, p + 1, route)
            assert leading_error_term(scheme, p) == fresh, (scheme, p, route)


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


def test_word_table_guard_is_check_costs_lyndon_word_count():
    # the word tables and check_cost refuse by one count, lyndon_count: over two letters the
    # last order whose Lyndon words, by Witt's formula, fit MAX_LYNDON_WORDS is 23, so both
    # refuse order 24 with one message
    through = list(itertools.accumulate(necklace_count(2, q) for q in range(1, 25)))
    assert through[22] == lyndon_count(2, 23) == 766_150 <= MAX_LYNDON_WORDS
    assert through[23] == lyndon_count(2, 24) == 1_465_020 > MAX_LYNDON_WORDS
    message = f"order 24 may need over {MAX_LYNDON_WORDS} words"
    with pytest.raises(ValueError, match=f"^{message}$"):
        _Tables(24, 2)
    for route in ROUTES:
        with pytest.raises(ValueError) as caught:
            check_cost(23, route)
        assert "words" not in str(caught.value)  # over the byte budget only
        with pytest.raises(ValueError) as counted:
            check_cost(24, route)
        with pytest.raises(ValueError) as guarded:
            condition_system(1, 24, route)
        assert type(guarded.value) is ValueError
        assert str(guarded.value) == str(counted.value) == message


def test_cost_estimate_on_extreme_values():
    # computed, never run: each refusal names the order and a one-line reason
    for p, route, stages in [(2, "bch", 20000), (2, "taylor", 2000), (23, "taylor", 3),
                             (2, "bch", 10**18), (15, "bch", None), (22, "taylor", None),
                             (20, "taylor", None), (23, "bch", 1), (9, "bch", 8), (10, "taylor", 8),
                             (17, "taylor", 10**18)]:  # an estimate past float range, 7.7e+317
        with pytest.raises(ValueError, match=f"^order {p} .* bytes, over the budget of 1e\\+08$"):
            check_cost(p, route, stages)
    for p in (24, 30, 127, 128, 10**18):
        for stages in (None, 1, 10**18):
            with pytest.raises(ValueError, match=f"^order {p} may need over 1000000 words$"):
                check_cost(p, "bch", stages)
    with pytest.raises(ValueError, match="bytes"):  # over the cost budget, under 24
        check_cost(23, "taylor", None)
    for p, route in [(5, "magic"), (2, "Taylor"), (30, None), (2.5, "")]:  # first, as the builders
        with pytest.raises(ValueError) as caught:
            check_cost(p, route)
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"route must be one of ('taylor', 'bch'), got {route!r}"
    assert MAX_LYNDON_WORDS == 10**6
    for p, route, stages in [(8, "taylor", 8), (8, "bch", 6), (14, "bch", None),
                             (19, "taylor", None), (2, "bch", 100), (0, "bch", 3), (-5, "bch", None)]:
        assert 0 <= check_cost(p, route, stages) <= MAX_COST
