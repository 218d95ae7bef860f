import math
import random
from fractions import Fraction

import pytest

from splitcond import ConcreteScheme
from splitcond.poly import MissingAssignment, Poly

from helpers import oracle_add, oracle_evaluate, oracle_mul, random_fraction, random_poly


def sym(kind, stage):
    return Poly.symbol(kind, stage)


def test_difference_of_squares():
    a1, b1 = sym("a", 1), sym("b", 1)
    assert (a1 + b1) * (a1 - b1) == a1 * a1 - b1 * b1


def test_additive_identity_on_random_polynomials():
    rng = random.Random(11)
    for _ in range(30):
        p = random_poly(rng)
        assert p + Poly() == p
        assert Poly() + p == p


def test_rational_scaling():
    a1, b1 = sym("a", 1), sym("b", 1)
    assert (a1 * b1 * Fraction(1, 2)) * 2 == a1 * b1


def test_ring_axioms_on_random_triples():
    rng = random.Random(5)
    for _ in range(40):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_eval_is_ring_homomorphism():
    rng = random.Random(17)
    for _ in range(25):
        p, q = random_poly(rng), random_poly(rng)
        point = [random_fraction(rng) for _ in range(8)]
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_canonical_form_is_idempotent():
    rng = random.Random(23)
    for _ in range(25):
        p = random_poly(rng) * random_poly(rng)
        again = Poly(p.terms)
        assert again.terms == p.terms
        assert all(c != 0 for c in p.terms.values())


def test_eval_order3_condition_at_classical_solution():
    # a2*b1 + a3*(b1 + b2) - 1/2 vanishes at the classical 3-stage solution
    p = (
        sym("a", 2) * sym("b", 1)
        + sym("a", 3) * (sym("b", 1) + sym("b", 2))
        - Fraction(1, 2)
    )
    point = ConcreteScheme(
        (Fraction(7, 24), Fraction(3, 4), Fraction(-1, 24)),
        (Fraction(2, 3), Fraction(-2, 3), Fraction(1)),
    ).point()
    assert p.evaluate(point) == 0


def test_eval_stage_sums():
    p = sym("a", 1) + sym("a", 2) - 1
    assert p.evaluate(ConcreteScheme((Fraction(1, 2), Fraction(1, 2)), (0, 0)).point()) == 0


def test_eval_direct_rational_arithmetic():
    p = 1 - 6 * sym("a", 1) * sym("a", 2) * sym("b", 1)
    point = ConcreteScheme((Fraction(1, 2), Fraction(1, 2)), (1, 0)).point()
    assert p.evaluate(point) == Fraction(-1, 2)


def test_eval_missing_assignment():
    p = sym("a", 1) + sym("b", 2)
    with pytest.raises(MissingAssignment, match="b2"):
        p.evaluate([Fraction(1)])
    with pytest.raises(MissingAssignment, match="b2"):
        p.evaluate([Fraction(1), Fraction(2), Fraction(3)])
    assert p.evaluate([Fraction(1), Fraction(2), Fraction(3), Fraction(4)]) == 5
    assert Poly.const(Fraction(1, 3)).evaluate([]) == Fraction(1, 3)


def test_is_zero():
    a1, b1, b2 = sym("a", 1), sym("b", 1), sym("b", 2)
    assert (a1 * b2 - a1 * b2).is_zero
    assert not (a1 - b1).is_zero
    assert ((a1 + b1) ** 2 - a1**2 - 2 * a1 * b1 - b1**2).is_zero


def test_zero_is_unique_empty_map():
    assert Poly().terms == {}
    assert Poly.const(0).terms == {}
    assert (Poly.const(Fraction(1, 3)) - Poly.const(Fraction(1, 3))).terms == {}


def test_symbol_validation():
    with pytest.raises(ValueError):
        Poly.symbol("c", 1)
    with pytest.raises(ValueError):
        Poly.symbol("a", 0)
    assert str(Poly.symbol("a", 2) * Poly.symbol("b", 1)) == "a2*b1"


def test_rendering_canonical_order():
    a1, b1, a2, b2 = sym("a", 1), sym("b", 1), sym("a", 2), sym("b", 2)
    assert str(a1 * b2 * Fraction(1, 2) - a2 * b1) == "1/2*a1*b2 - a2*b1"
    assert str(sym("a", 1) + sym("a", 2) + sym("a", 3) - 1) == "a1 + a2 + a3 - 1"
    assert str(Poly()) == "0"
    assert str(Poly.const(Fraction(-7, 24))) == "-7/24"
    assert str(a1**2 * b1) == "a1^2*b1"


# -- exact cross-check against the {monomial: Fraction} ring -------------------


def assert_canonical(p):
    # the stored form, read directly: integer numerators over one positive
    # denominator sharing no common factor, zero as 1 over no terms
    assert p._den > 0
    assert all(type(n) is int and n for n in p._nums.values())
    assert math.gcd(p._den, *p._nums.values()) == 1
    assert all(not m or m[-1] for m in p._nums)
    assert Poly(p.terms) == p and hash(Poly(p.terms)) == hash(p)


def ring_cases():
    a1, b2 = sym("a", 1), sym("b", 2)
    half, third, sixth = (Poly.const(Fraction(1, n)) for n in (2, 3, 6))
    cancelling = a1 * Fraction(1, 6) + b2 * Fraction(3, 4)
    cases = [
        (half, half),
        (sixth, third),
        (cancelling, a1 * Fraction(1, 3) - b2 * Fraction(3, 4)),
        (cancelling, -cancelling),
        (Poly(), cancelling),
    ]
    rng = random.Random(31)
    for _ in range(40):
        p = random_poly(rng)
        cases += [(p, random_poly(rng)), (p, p)]
    return cases


def test_ring_agrees_with_fraction_oracle():
    rng = random.Random(37)
    for p, q in ring_cases():
        point = [random_fraction(rng) for _ in range(8)]
        minus_one = {(): Fraction(-1)}
        results = [
            (p + q, oracle_add(p.terms, q.terms)),
            (p - q, oracle_add(p.terms, oracle_mul(minus_one, q.terms))),
            (p * q, oracle_mul(p.terms, q.terms)),
            (-p, oracle_mul(minus_one, p.terms)),
            (p**3, oracle_mul(oracle_mul(p.terms, p.terms), p.terms)),
            (p**0, {(): Fraction(1)}),
        ]
        for scalar in (0, 3, Fraction(-2, 3), Fraction(4, 9)):
            constant = {(): Fraction(scalar)} if scalar else {}
            scaled = oracle_mul(p.terms, constant)
            results += [(p * scalar, scaled), (scalar * p, scaled)]
            results += [
                (p + scalar, oracle_add(p.terms, constant)),
                (scalar - p, oracle_add(constant, oracle_mul(minus_one, p.terms))),
            ]
        for result, expected in results:
            assert result.terms == expected
            assert_canonical(result)
        assert p.evaluate(point) == oracle_evaluate(p.terms, point)
        assert (p * q).evaluate(point) == oracle_evaluate(oracle_mul(p.terms, q.terms), point)
