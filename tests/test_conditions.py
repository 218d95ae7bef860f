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
    conditions_bch,
    conditions_taylor,
    exp_of_sum,
    expand,
    leading_error_term,
    lie_decompose,
    local_error_series,
    lyndon_words_of_degree,
    splitting_product,
    systems_equivalent,
    verify_scheme,
)
from splitcond.cli import REGISTRY
from splitcond.poly import Poly

from helpers import (
    combine_log_coefficients,
    homogeneous_at_truncation,
    log_pair_coefficients,
    order1_witness,
    order2_witness,
    random_fraction,
    refine_witnesses,
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
