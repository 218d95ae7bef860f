import math
import random
from fractions import Fraction

import pytest

from splitcond import ConcreteScheme, NCSeries
from splitcond.poly import MissingAssignment, Poly, _dot, sum_of_products

from helpers import (
    oracle_add, oracle_evaluate, oracle_mul, oracle_str, random_fraction, random_poly
)


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


def test_the_product_by_one_is_the_polynomial_itself():
    # a Poly is immutable, so a scalar 1, as an int or a Fraction, returns it as it is
    rng = random.Random(29)
    for p in [Poly(), Poly.const(3)] + [random_poly(rng) for _ in range(10)]:
        assert p * 1 is p and 1 * p is p and p * Fraction(1) is p
        assert p * 2 == p + p and p * 2 is not p


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


def test_eval_names_an_inexact_value():
    # evaluation is exact: a float or a string among the values the polynomial
    # reads is named, while a value it does not read is never looked at
    p = sym("a", 1) + sym("b", 2)
    for bad, shown in [(0.5, "0.5"), ("1/2", "'1/2'")]:
        with pytest.raises(TypeError) as caught:
            p.evaluate([Fraction(1), bad, 2, 3])
        message = f"cannot evaluate exactly at {shown}: values are ints or Fractions"
        assert str(caught.value) == message
    with pytest.raises(TypeError, match="^cannot evaluate exactly at 0.5: "):
        sym("a", 1).evaluate([0.5])
    assert p.evaluate([1, Fraction(1, 2), 3, Fraction(1, 4), 0.5]) == Fraction(5, 4)


def test_eval_non_homogeneous_with_constant_at_mixed_points():
    # one common denominator over values with different denominators, zeros
    # and negatives must give the {monomial: Fraction} oracle's value
    rng = random.Random(29)
    values = [0, 1, -1, 3, Fraction(-3, 4), Fraction(5, 6), Fraction(-2, 9), Fraction(7, 10)]
    for _ in range(60):
        p = random_poly(rng, stages=4, degree=4, terms=5)
        p = p - p.constant() + Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        point = [rng.choice(values) for _ in range(8 + rng.randint(0, 2))]
        assert p.evaluate(point) == oracle_evaluate(p.terms, point)
    # of two missing symbols a row uses, the lower index (b2 before a3) is named
    with pytest.raises(MissingAssignment, match="b2"):
        (sym("a", 3) * sym("b", 2) + sym("a", 1)).evaluate([Fraction(1), 2])


def test_is_zero():
    a1, b1, b2 = sym("a", 1), sym("b", 1), sym("b", 2)
    assert (a1 * b2 - a1 * b2).is_zero
    assert not (a1 - b1).is_zero
    assert ((a1 + b1) ** 2 - a1**2 - 2 * a1 * b1 - b1**2).is_zero


def test_zero_is_unique_empty_map():
    assert Poly().terms == {}
    assert Poly.const(0).terms == {}
    assert (Poly.const(Fraction(1, 3)) - Poly.const(Fraction(1, 3))).terms == {}


def test_a_constant_hashes_as_the_number_it_equals():
    # == compares a constant with its number, so sets and dict keys must agree with it
    half = Fraction(1, 2)
    for poly, number in [(Poly.const(half), half), (Poly(), 0), (Poly.const(3), 3)]:
        assert poly == number and hash(poly) == hash(number)
        assert len({poly, number}) == 1
        assert {number: "x"}.get(poly) == "x" and {poly: "x"}.get(number) == "x"
    assert len({Poly.const(half), half, Poly(), 0, sym("a", 1), sym("a", 1) + 0}) == 3


def test_symbol_validation():
    with pytest.raises(ValueError):
        Poly.symbol("c", 1)
    with pytest.raises(ValueError):
        Poly.symbol("a", 0)
    assert str(Poly.symbol("a", 2) * Poly.symbol("b", 1)) == "a2*b1"


def test_constructor_canonicalises_monomial_keys():
    a1 = sym("a", 1)
    assert Poly({(1, 0): 1}) == Poly({(1,): 1}) == a1
    assert hash(Poly({(1, 0): 1})) == hash(a1)
    assert (Poly({(1, 0): 1}) - Poly({(1,): 1})).is_zero
    assert Poly({(1, 0): 1, (1,): 1}) == 2 * a1
    assert str(Poly({(1, 0): 1, (1,): 1})) == "2*a1"
    assert Poly({(0, 0): Fraction(1, 3), (): Fraction(2, 3)}) == 1
    assert Poly({(1, 0, 0): 1, (1,): -1}).terms == {}
    for bad in [(1.5,), (-1,), (128,), (0, 300), (Fraction(2),), ("1",), 3]:
        with pytest.raises(ValueError):
            Poly({bad: 1})
    assert Poly({(127, 0, 5): 1}).terms == {(127, 0, 5): Fraction(1)}


@pytest.mark.parametrize("exponent", [128, 255, 256, 10**6])
def test_constructor_names_any_exponent_over_the_guard(exponent):
    # bytes() alone would call 256 and up "not a tuple", and 128..255 "over 127"
    for mono in [(exponent,), (0, 1, exponent), (exponent, 127)]:
        with pytest.raises(ValueError, match="^monomial exponent over 127$"):
            Poly({mono: 1})


@pytest.mark.parametrize("exponent", [-1, 1.5, True, False])
def test_constructor_refuses_negative_and_non_integer_exponents(exponent):
    for mono in [(exponent,), (0, 1, exponent), (exponent, 300)]:
        with pytest.raises(ValueError, match="^not a tuple of integer exponents: "):
            Poly({mono: 1})


def test_constructor_names_a_bool_exponent():
    with pytest.raises(ValueError, match=r"^not a tuple of integer exponents: \(True,\)$"):
        Poly({(True,): 1})


def test_of_keeps_a_map_over_1_and_reduces_any_other_denominator():
    nums = {0: 4, 256: 2}  # 4 + 2*b1
    kept = Poly._of(1, nums)
    assert kept._nums is nums and kept == Poly({(): 4, (0, 1): 2})
    reduced = Poly._of(6, {0: 4, 256: 2})
    assert (reduced._den, reduced._nums) == (3, {0: 2, 256: 1})
    assert reduced == Poly({(): Fraction(2, 3), (0, 1): Fraction(1, 3)})


@pytest.mark.parametrize(
    "value", [0, 1, -1, Fraction(7, 24), Fraction(-7, 24), 10**50, True, 0.5, "1/2"]
)
def test_const_is_the_general_constructor_at_the_monomial_1(value):
    const, general = Poly.const(value), Poly({(): value})
    assert (const._den, const._nums) == (general._den, general._nums)
    assert all(type(n) is int for n in const._nums.values())
    assert const == general and hash(const) == hash(general)
    assert const == Fraction(value) and hash(const) == hash(Fraction(value))


def test_const_refuses_none():
    with pytest.raises(TypeError):
        Poly.const(None)


def test_a_foreign_operand_is_refused():
    # + with an operand that is no Poly, int or Fraction raises; == with one is False
    with pytest.raises(TypeError):
        Poly() + "x"
    assert (Poly() == "x") is False and (sym("a", 1) == "a1") is False


def test_const_never_runs_the_constructor(monkeypatch):
    def refuse(self, terms=None):
        raise AssertionError("Poly.__init__ ran")

    monkeypatch.setattr(Poly, "__init__", refuse)
    assert Poly.const(Fraction(-7, 24)).constant() == Fraction(-7, 24)
    assert Poly.const(0).is_zero
    assert sym("a", 1) + 1 == 1 + sym("a", 1) and sym("a", 1) * 2 - 2 != 0


def test_exponent_guard():
    a1, b1 = sym("a", 1), sym("b", 1)
    assert (a1**127).terms == {(127,): Fraction(1)}
    with pytest.raises(ValueError):
        a1**128
    with pytest.raises(ValueError):
        (a1**64) * (a1**64)
    # squaring doubles the exponent; the guard fires at the first field past 127
    power, exponent = a1, 1
    while exponent < 64:
        power, exponent = power * power, 2 * exponent
        assert power.terms == {(exponent,): Fraction(1)}
    with pytest.raises(ValueError):
        power * power
    # a full a1 field next to b1 does not carry into it, in products or evaluation
    full = a1**127 * b1 * Fraction(-2, 3)
    other = b1 * 5 + a1**0 + b1**126
    assert full.terms == {(127, 1): Fraction(-2, 3)}
    assert (full * other).terms == oracle_mul(full.terms, other.terms)
    assert (full + other).terms == oracle_add(full.terms, other.terms)
    point = [Fraction(-1, 2), Fraction(3, 2)]
    assert (full * other).evaluate(point) == oracle_evaluate(
        oracle_mul(full.terms, other.terms), point
    )
    with pytest.raises(ValueError):
        full * b1**127


def test_rendering_canonical_order():
    a1, b1, a2, b2 = sym("a", 1), sym("b", 1), sym("a", 2), sym("b", 2)
    assert str(a1 * b2 * Fraction(1, 2) - a2 * b1) == "1/2*a1*b2 - a2*b1"
    assert str(sym("a", 1) + sym("a", 2) + sym("a", 3) - 1) == "a1 + a2 + a3 - 1"
    assert str(Poly()) == "0"
    assert str(Poly.const(Fraction(-7, 24))) == "-7/24"
    assert str(a1**2 * b1) == "a1^2*b1"


def random_rendered_poly(rng, stages):
    # up to 2 * stages symbols, exponents 1, 2 or 10..127, coefficients over one shared
    # denominator, so unit and non-unit magnitudes both stand over it; maybe a constant
    den = rng.choice([1, 2, 6, 35])
    terms = {}
    for _ in range(rng.randint(1, 6)):
        mono = [0] * rng.randint(1, 2 * stages)
        for i in rng.sample(range(len(mono)), rng.randint(1, min(3, len(mono)))):
            mono[i] = rng.choice([1, 2, rng.randint(10, 127)])
        terms[tuple(mono)] = Fraction(rng.choice([1, den, den + 1, rng.randint(1, 99)]), den)
    if rng.random() < 0.4:
        terms[()] = Fraction(rng.choice([1, den, 5]), den)
    return Poly({m: c * rng.choice([1, -1]) for m, c in terms.items()})


def test_packed_printer_matches_the_terms_oracle():
    a1, b1, b13 = sym("a", 1), sym("b", 1), sym("b", 13)
    cases = [
        Poly(),
        Poly.const(5),
        Poly.const(Fraction(-7, 24)),
        Poly.const(-1),
        a1 * b13 ** 12 - Fraction(3, 4),  # two-digit names, a map 26 bytes wide
        -(a1 ** 127) * b1 + a1 * b1 * Fraction(1, 6) + 1,  # a negative leading term
        (a1 - b1) * Fraction(5, 6) + Fraction(1, 6) * b13,
    ]
    rng = random.Random(2024)
    cases += [random_rendered_poly(rng, stages) for stages in range(1, 14) for _ in range(30)]
    widths = set()
    for p in cases:
        assert str(p) == oracle_str(p.terms)
        widths.add(max(map(len, p.terms), default=0))
    assert max(widths) == 26 and {0, 1, 2, 8, 9} <= widths


def test_printing_never_reads_terms(monkeypatch):
    # str(Poly) and NCSeries.__str__ read the packed map, not the tuple view
    a1, b2 = sym("a", 1), sym("b", 2)
    polys = [Poly(), Poly.const(Fraction(-1, 3)), a1 * b2 * Fraction(1, 2) - a1 ** 3 + 4]
    series = NCSeries(2, 2, {(): -1, (0,): -a1 * b2, (1,): a1 - b2, (0, 1): Fraction(-2, 3)})
    expected = [str(p) for p in polys], str(series)

    def refuse(self):
        raise AssertionError("Poly.terms read")

    monkeypatch.setattr(Poly, "terms", property(refuse))
    assert ([str(p) for p in polys], str(series)) == expected


def test_series_pulls_the_sign_out_of_single_term_coefficients():
    a1, b2 = sym("a", 1), sym("b", 2)
    series = NCSeries(3, 2, {
        (): Fraction(-1, 2),
        (0,): -a1 * b2 * Fraction(7, 6),
        (1,): a1 - b2,
        (0, 1): -a1,
        (1, 0): Fraction(-2, 3),
        (0, 0, 1): -a1 ** 2 + Fraction(1, 3),
        (1, 1, 0): Poly.const(-1),
    })
    assert str(series) == (
        "-1/2 - 7/6*a1*b2*A + (a1 - b2)*B - a1*AB - 2/3*BA + (-a1^2 + 1/3)*AAB - BBA"
    )


# -- exact cross-check against the {monomial: Fraction} ring -------------------


def assert_canonical(p):
    # the stored form, read directly: integer numerators over one positive
    # denominator sharing no common factor, zero as 1 over no terms
    assert p._den > 0
    assert all(type(n) is int and n for n in p._nums.values())
    assert math.gcd(p._den, *p._nums.values()) == 1
    assert all(not m or m[-1] for m in p.terms)
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


def test_dot_leaves_no_cancelled_monomial():
    # the kernel over integer maps: 2x*y - y*2x + 3 is {monomial 1: 3}
    x, y, one = {1: 1}, {1 << 8: 1}, {0: 1}
    assert _dot([(2, x, y), (-1, y, {1: 2}), (3, one, one)]) == {0: 3}
    assert _dot([]) == {}
    # the start contract: start + sum c*p*q, as if start were the term 1 * start * 1
    rng = random.Random(246)
    for case in range(40):
        polys = [random_poly(rng, stages=2, degree=3) for _ in range(3)]
        start, p, q = (poly._nums for poly in polys)
        kept, c = dict(start), rng.randint(-3, 3)
        terms = [(c, p, q), (rng.randint(-3, 3), q, start)]
        if case % 2:  # the terms cancel the start to zero
            terms = [(-1, start, one), (c, p, q), (-c, q, p)]
        got = _dot(terms, start)
        assert got == _dot(terms + [(1, start, one)]) == oracle_add(start, _dot(terms))
        assert 0 not in got.values() and start == kept
        if case % 2:
            assert got == {}
        # a Poly start over a denominator of 7, the products over one of 3
        first = polys[0] * Fraction(1, 7) + Fraction(1, 7)
        rest = [(c, polys[1], polys[2] * Fraction(1, 3) + Fraction(1, 3))]
        assert sum_of_products(rest, first) == first + sum_of_products(rest)
        assert sum_of_products([(-1, first, Poly.const(1))] + rest, first) == sum_of_products(rest)
