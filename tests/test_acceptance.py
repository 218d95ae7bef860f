"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
a plain `pytest` run reports the same information through test outcomes.
All symbolic checks are exact rational arithmetic; numeric checks use the
stated slope tolerances.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from splitcond import (
    NCSeries,
    NotALieElement,
    SymbolicScheme,
    conditions_bch,
    conditions_taylor,
    empirical_order,
    exp,
    expand,
    bracketing,
    lie_decompose,
    local_error_series,
    log,
    lyndon_words,
    lyndon_words_of_degree,
    systems_equivalent,
    verify_scheme,
)
from splitcond.cli import REGISTRY
from splitcond.poly import Poly

from helpers import (
    combine_log_coefficients,
    first_nonzero_degree,
    homogeneous_at_truncation,
    lie_span_series,
    necklace_count,
    random_fraction,
    random_poly,
    random_series,
    refine_witnesses,
    strictly_smallest_rotation,
    taylor_derivative,
)

A, B = 0, 1
F = Fraction

PAPER3 = REGISTRY["paper-order3"].scheme
STRANG = REGISTRY["strang"].scheme
LIE_TROTTER = REGISTRY["lie-trotter"].scheme


def test_criterion_1_bch_golden_terms():
    started = time.monotonic()
    x, y = Poly.symbol("a", 1), Poly.symbol("b", 1)
    z = log(exp(NCSeries.letter(A, 3, coeff=x)) * exp(NCSeries.letter(B, 3, coeff=y)))
    per_degree = {
        q: lie_decompose(homogeneous_at_truncation(z, q), q).coefficients
        for q in (1, 2, 3)
    }
    assert per_degree[1] == {(A,): x, (B,): y}
    # 1/2 on [X,Y]
    assert per_degree[2] == {(A, B): x * y * F(1, 2)}
    # 1/12 on [X,[X,Y]] and on [Y,[Y,X]] (whose expansion is the ABB bracketing)
    assert per_degree[3] == {
        (A, A, B): x * x * y * F(1, 12),
        (A, B, B): x * y * y * F(1, 12),
    }
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (BCH golden terms through degree 3): PASS ({elapsed:.3f}s)")


def test_criterion_2_closed_form_log_oracle():
    rng = random.Random(2024)
    for _ in range(100):
        first = tuple(random_fraction(rng) for _ in range(5))
        second = tuple(random_fraction(rng) for _ in range(5))
        machine = log(exp(lie_span_series(first)) * exp(lie_span_series(second)))
        decomposed: dict = {}
        for q in (1, 2, 3):
            decomposed.update(
                lie_decompose(homogeneous_at_truncation(machine, q), q).coefficients
            )
        expected = combine_log_coefficients(first, second)
        assert decomposed.get((A,), Poly()) == Poly.const(expected[0])
        assert decomposed.get((B,), Poly()) == Poly.const(expected[1])
        assert decomposed.get((A, B), Poly()) == Poly.const(expected[2])
        assert decomposed.get((A, A, B), Poly()) == Poly.const(expected[3])
        assert decomposed.get((A, B, B), Poly()) == Poly.const(expected[4])
    print("\nACCEPTANCE 2 (closed-form log-product oracle, 100 tuples): PASS")


def test_criterion_3_scheme_verification():
    timings = []
    checks = [
        (PAPER3, 3, "taylor", True),
        (PAPER3, 3, "bch", True),
        (STRANG, 3, "bch", False),
        (STRANG, 3, "taylor", False),
        (LIE_TROTTER, 2, "bch", False),
        (LIE_TROTTER, 2, "taylor", False),
    ]
    for scheme, order, route, expected in checks:
        started = time.monotonic()
        report = verify_scheme(scheme, order, route)
        elapsed = time.monotonic() - started
        assert report.satisfied is expected
        if expected:
            assert all(r == 0 for _, _, r in report.residuals)
        else:
            assert any(r != 0 for _, _, r in report.residuals)
        assert elapsed < 1.0
        timings.append(elapsed)
    print(
        f"\nACCEPTANCE 3 (classical solution verifies, Strang/Lie-Trotter fail): "
        f"PASS (max {max(timings):.3f}s)"
    )


def test_criterion_4_route_equivalence():
    for stages, p in ((2, 2), (2, 3), (3, 3)):
        taylor_system = conditions_taylor(stages, p)
        bch_system = conditions_bch(stages, p)
        witnesses = [STRANG.padded(stages), LIE_TROTTER.padded(stages)]
        if stages >= 3:
            witnesses.append(PAPER3)
        witnesses += refine_witnesses(taylor_system, 20, seed=1000 + 10 * stages + p)
        witnesses += refine_witnesses(bch_system, 20, seed=2000 + 10 * stages + p)
        report = systems_equivalent(taylor_system, bch_system, witnesses, tol=1e-9)
        assert report.all_agree, f"routes disagree at s={stages}, p={p}"
    print("\nACCEPTANCE 4 (taylor/bch route equivalence on witness sets): PASS")


def test_criterion_5_taylor_formula_cross_check():
    for stages in (1, 2, 3):
        scheme = SymbolicScheme.generic(stages)
        err = local_error_series(scheme, 5)
        for q in range(6):
            scaled = homogeneous_at_truncation(err, q).scale(math.factorial(q))
            assert scaled == taylor_derivative(scheme, q)
    # printed first and second derivative expansions for three stages
    scheme3 = SymbolicScheme.generic(3)
    a1, a2, a3 = (Poly.symbol("a", j) for j in (1, 2, 3))
    b1, b2, b3 = (Poly.symbol("b", j) for j in (1, 2, 3))
    d1 = taylor_derivative(scheme3, 1)
    assert d1.coefficient((A,)) == a1 + a2 + a3 - 1
    assert d1.coefficient((B,)) == b1 + b2 + b3 - 1
    d2 = taylor_derivative(scheme3, 2)
    assert d2.coefficient((A, A)) == (a1 + a2 + a3) ** 2 - 1
    assert (
        d2.coefficient((A, B))
        == 2 * a1 * (b1 + b2 + b3) + 2 * a2 * (b2 + b3) + 2 * a3 * b3 - 1
    )
    assert d2.coefficient((B, A)) == 2 * a2 * b1 + 2 * a3 * (b1 + b2) - 1
    assert d2.coefficient((B, B)) == (b1 + b2 + b3) ** 2 - 1
    print("\nACCEPTANCE 5 (q! * local-error parts equal derivative formula, q<=5): PASS")


def test_criterion_6_lyndon_suite():
    # Duval output vs brute-force rotation minimality through length 10
    generated = set(lyndon_words(2, 10))
    words = [()]
    brute = set()
    for _ in range(10):
        words = [w + (letter,) for w in words for letter in (A, B)]
        brute.update(w for w in words if strictly_smallest_rotation(w))
    assert generated == brute
    # necklace counts
    counts = [len(lyndon_words_of_degree(2, n)) for n in range(1, 7)]
    assert counts == [2, 1, 2, 3, 6, 9]
    assert all(
        len(lyndon_words_of_degree(2, n)) == necklace_count(2, n) for n in range(1, 11)
    )
    # leading-term property with coefficient exactly 1
    for w in lyndon_words(2, 6):
        series = expand(bracketing(w), len(w))
        assert min(series.terms) == w
        assert series.terms[w] == Poly.const(1)
    print("\nACCEPTANCE 6 (Lyndon enumeration, counts, leading terms): PASS")


def test_criterion_7_lie_decomposition_round_trip():
    rng = random.Random(777)
    for degree in range(1, 7):
        basis = lyndon_words_of_degree(2, degree)
        for _ in range(5):
            weights = {}
            combo = NCSeries.zero(degree)
            for w in basis:
                if rng.random() < 0.6:
                    weight = random_poly(rng, stages=2, degree=2, terms=2)
                    if weight.is_zero:
                        continue
                    weights[w] = weight
                    combo = combo + expand(bracketing(w), degree).scale(weight)
            decomposition = lie_decompose(combo, degree)
            assert decomposition.coefficients == weights
    # the pure word AB is rejected with the symmetric residual
    with pytest.raises(NotALieElement) as info:
        lie_decompose(NCSeries(2, 2, {(A, B): 1}), 2)
    assert info.value.residual == NCSeries(2, 2, {(A, B): F(1, 2), (B, A): F(1, 2)})
    print("\nACCEPTANCE 7 (Lyndon-basis round trips, AB rejection): PASS")


def test_criterion_8_numeric_convergence():
    started = time.monotonic()
    expectations = [
        (LIE_TROTTER, 2, 0.15),
        (STRANG, 3, 0.15),
        (PAPER3, 4, 0.2),
    ]
    slopes = []
    for scheme, target, tolerance in expectations:
        report = empirical_order(scheme, 4, seed=1)
        assert abs(report.slope - target) < tolerance, (
            f"{scheme.name}: slope {report.slope:.3f}, expected {target}+-{tolerance}"
        )
        slopes.append(report.slope)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(
        "\nACCEPTANCE 8 (local-error slopes "
        + ", ".join(f"{s:.2f}" for s in slopes)
        + f"): PASS ({elapsed:.2f}s)"
    )


def test_criterion_9_exp_log_property_suite():
    rng = random.Random(999)
    series_count = 0
    # vanishing-degree equivalence: h and exp(h) - 1 share their first
    # nonzero degree
    for _ in range(100):
        n = rng.randint(2, 5)
        h = random_series(rng, n, density=0.5)
        series_count += 1
        e = exp(h) - NCSeries.unit(n)
        assert first_nonzero_degree(h) == first_nonzero_degree(e)
    # agreement equivalence: h and k agree through degree p iff exp(h) and
    # exp(k) do
    for _ in range(50):
        n = rng.randint(2, 5)
        h = random_series(rng, n, density=0.5)
        k = random_series(rng, n, density=0.5)
        series_count += 2
        assert first_nonzero_degree(h - k) == first_nonzero_degree(exp(h) - exp(k))
    assert series_count == 200
    # exact round trips
    for _ in range(20):
        n = rng.randint(1, 5)
        g = random_series(rng, n, symbolic=True)
        assert log(exp(g)) == g
        f = NCSeries.unit(n) + random_series(rng, n)
        assert exp(log(f)) == f
    print("\nACCEPTANCE 9 (exp/log equivalences on 200 series, exact round trips): PASS")
