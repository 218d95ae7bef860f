import math
import random
from fractions import Fraction

import pytest

from splitcond import (
    AlphabetMismatch,
    ConstantTermNotOne,
    DegreeBeyondTruncation,
    NCSeries,
    NonzeroConstantTerm,
    TruncationMismatch,
    exp,
    log,
    word_str,
)
from splitcond import series
from splitcond.lyndon import _numbered, _product_steps, _splits
from splitcond.poly import Poly, sum_of_products

from helpers import (
    POLYS,
    _divided_log,
    exp_uncapped,
    ladder_product,
    first_nonzero_degree,
    log_uncapped,
    oracle_series_str,
    positioned,
    random_fraction,
    random_poly,
    random_series,
    rows_to,
    sweep_by_dot,
)


def unit(n, m=2):
    return NCSeries.unit(n, m)


def letter(i, n, m=2, coeff=1):
    return NCSeries.letter(i, n, m, coeff)


# -- product ----------------------------------------------------------------


def test_unit_plus_letter_product():
    f = unit(2) + letter(0, 2)
    g = unit(2) + letter(1, 2)
    assert f * g == NCSeries(2, 2, {(): 1, (0,): 1, (1,): 1, (0, 1): 1})


def test_product_truncates():
    f = unit(1) + letter(0, 1)
    assert f * f == NCSeries(1, 2, {(): 1, (0,): 2})


def test_square_of_letter_sum():
    s = letter(0, 2) + letter(1, 2)
    expected = NCSeries(2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert s * s == expected


def test_product_mismatch_errors():
    with pytest.raises(TruncationMismatch):
        unit(2) * unit(3)
    with pytest.raises(AlphabetMismatch):
        unit(2, 2) * unit(2, 3)


def test_equal_series_hash_equal_and_foreign_operands_are_refused():
    # series built in another order are equal and hash equal; a series equals none at another
    # truncation and no number; +, - and * with an operand that is no series or scalar raise
    f = unit(3) + letter(0, 3, coeff=Fraction(1, 2)) + letter(1, 3)
    g = letter(1, 3) + letter(0, 3, coeff=Fraction(1, 2)) + unit(3)
    assert list(f.terms) != list(g.terms)
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert unit(3) != unit(4)
    assert (unit(3) == 1) is False
    for operation in (lambda: f + 1, lambda: f - "x", lambda: f * "x", lambda: "x" * f):
        with pytest.raises(TypeError):
            operation()


def test_mul_associativity_random():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(1, 5)
        f = random_series(rng, n, symbolic=True)
        g = random_series(rng, n, symbolic=True)
        h = random_series(rng, n, symbolic=True)
        assert (f * g) * h == f * (g * h)


# -- exponential -------------------------------------------------------------


def test_exp_of_weighted_letter():
    a1 = Poly.symbol("a", 1)
    result = exp(letter(0, 2, coeff=a1))
    assert result == NCSeries(2, 2, {(): 1, (0,): a1, (0, 0): a1 * a1 * Fraction(1, 2)})
    assert str(result) == "1 + a1*A + 1/2*a1^2*AA"


def test_exp_of_letter_sum():
    result = exp(letter(0, 2) + letter(1, 2))
    half = Fraction(1, 2)
    expected = NCSeries(
        2, 2, {(): 1, (0,): 1, (1,): 1, (0, 0): half, (0, 1): half, (1, 0): half, (1, 1): half}
    )
    assert result == expected


def test_exp_of_zero():
    assert exp(NCSeries.zero(4)) == unit(4)


def test_exp_rejects_constant_term():
    with pytest.raises(NonzeroConstantTerm):
        exp(unit(3))


# -- logarithm ---------------------------------------------------------------


def test_log_univariate_mercator():
    result = log(unit(3) + letter(0, 3))
    expected = NCSeries(
        3, 2, {(0,): 1, (0, 0): Fraction(-1, 2), (0, 0, 0): Fraction(1, 3)}
    )
    assert result == expected


def test_log_exp_round_trip_symbolic():
    g = letter(0, 3, coeff=Poly.symbol("a", 1)) + letter(1, 3, coeff=Poly.symbol("b", 1))
    assert log(exp(g)) == g


def test_log_of_two_exponentials_degree_2():
    z = log(exp(letter(0, 2)) * exp(letter(1, 2)))
    expected = NCSeries(
        2, 2, {(0,): 1, (1,): 1, (0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}
    )
    assert z == expected


def test_log_rejects_wrong_constant_term():
    with pytest.raises(ConstantTermNotOne):
        log(letter(0, 2))
    with pytest.raises(ConstantTermNotOne):
        log(unit(2).scale(2))


def test_round_trips_random():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 5)
        g = random_series(rng, n, symbolic=True)
        assert log(exp(g)) == g
        f = unit(n) + random_series(rng, n)
        assert exp(log(f)) == f


# -- homogeneous structure -----------------------------------------------------


def test_homogeneous_part_examples():
    f = NCSeries(2, 2, {(): 1, (0,): 1, (0, 1): 1})
    assert f.homogeneous_part(1) == NCSeries(2, 2, {(0,): 1})
    e = exp(letter(0, 2) + letter(1, 2))
    assert e.homogeneous_part(2) == NCSeries(
        2,
        2,
        {w: Fraction(1, 2) for w in ((0, 0), (0, 1), (1, 0), (1, 1))},
    )
    assert e.homogeneous_part(0) == NCSeries(2, 2, {(): 1})


def test_homogeneous_part_beyond_truncation_is_an_error():
    f = unit(3)
    with pytest.raises(DegreeBeyondTruncation):
        f.homogeneous_part(4)


def test_homogeneous_parts_sum_to_series():
    rng = random.Random(31)
    f = random_series(rng, 4, zero_constant=False)
    total = NCSeries.zero(4)
    for j in range(5):
        total = total + f.homogeneous_part(j)
    assert total == f


def test_construction_rejects_overlong_words():
    with pytest.raises(DegreeBeyondTruncation):
        NCSeries(1, 2, {(0, 1): 1})


def test_construction_names_a_word_whose_letters_are_not_indices():
    # a letter string is not a word of letter indices, and a letter past the
    # alphabet is refused the same way
    cases = [("AB", "('A', 'B')"), ("ABC", "('A', 'B', 'C')"), ((0, 2), "(0, 2)"),
             ((0, 1.0), "(0, 1.0)"), ((0, 1, -1), "(0, 1, -1)")]
    for word, shown in cases:
        with pytest.raises(ValueError) as caught:
            NCSeries(2, 2, {word: 1})
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"word {shown} uses letters outside the alphabet"


# -- vanishing-degree equivalences ---------------------------------------------


def test_exp_preserves_first_nonzero_degree():
    # h and exp(h) - 1 vanish through exactly the same initial degrees
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(2, 5)
        h = random_series(rng, n, density=0.5)
        e = exp(h) - unit(h.truncation)
        assert first_nonzero_degree(h) == first_nonzero_degree(e)


def test_exp_agreement_degree_matches_input_agreement():
    # two arguments agree through degree p iff their exponentials do
    rng = random.Random(43)
    for _ in range(50):
        n = rng.randint(2, 5)
        h = random_series(rng, n, density=0.5)
        k = random_series(rng, n, density=0.5)
        assert first_nonzero_degree(h - k) == first_nonzero_degree(exp(h) - exp(k))


def test_exp_matches_powers_of_sum_iff_argument_matches_sum():
    # with C = A + B: exp(Z) agrees with 1, C, C^2/2, ... through degree p
    # exactly when Z - C vanishes through degree p
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(2, 5)
        p = rng.randint(1, n - 1)
        c = letter(0, n) + letter(1, n)
        perturbation = random_series(rng, n, density=0.4)
        # zero out degrees <= p so Z - C starts at degree p+1
        surviving = {w: x for w, x in perturbation.terms.items() if len(w) > p}
        z = c + NCSeries(n, 2, surviving)
        e = exp(z)
        ec = exp(c)
        c_power = NCSeries.unit(n)  # c^j as a repeated product
        for j in range(p + 1):
            assert e.homogeneous_part(j) == ec.homogeneous_part(j)
            factorial = 1
            for i in range(1, j + 1):
                factorial *= i
            assert e.homogeneous_part(j) == c_power.scale(Fraction(1, factorial))
            c_power = c_power * c
        if not NCSeries(n, 2, surviving).is_zero():
            first = first_nonzero_degree(z - c)
            assert first_nonzero_degree(e - ec) == first


def test_scale_and_negate():
    rng = random.Random(53)
    f = random_series(rng, 3)
    assert f.scale(Fraction(1, 2)) + f.scale(Fraction(1, 2)) == f
    assert f + (-f) == NCSeries.zero(3)
    # a scalar on either side of * scales, like scale()
    for c in (Fraction(-2, 3), 5, Poly.symbol("a", 1)):
        assert f * c == f.scale(c) and c * f == f.scale(c)


def test_rendering():
    z = log(exp(letter(0, 2)) * exp(letter(1, 2)))
    assert str(z) == "A + B + 1/2*AB - 1/2*BA"
    assert str(NCSeries.zero(2)) == "0"
    assert word_str(()) == "1"
    mixed = unit(2) + letter(0, 2, coeff=Poly.symbol("a", 1) + Poly.symbol("b", 1))
    assert str(mixed) == "1 + (a1 + b1)*A"


def test_rendering_matches_the_signed_pieces_oracle():
    # the pieces go through Poly's signed join: the zero series, a constant alone, single
    # negative terms first and later, unit and multi-term coefficients, then seeded series
    a1, b1 = Poly.symbol("a", 1), Poly.symbol("b", 1)
    fixed = [
        {}, {(): 3}, {(): Fraction(-1, 2)}, {(): 1}, {(): -1}, {(): a1 - 1},
        {(0,): -1}, {(0, 1): -a1}, {(1,): Fraction(-2, 3), (0, 1): 1},
        {(0,): 1, (1,): 1}, {(): -1, (0,): -1, (1, 0): -b1},
        {(0,): a1 + b1, (1,): -a1 - b1, (0, 0): a1 * b1 - 2},
        {(): -a1 - 1, (1,): Fraction(1, 3) - b1},
    ]
    series = [NCSeries(3, 2, terms) for terms in fixed]
    assert [str(f) for f in series[:5]] == ["0", "3", "-1/2", "1", "-1"]
    rng = random.Random(2501)
    for trial in range(80):
        n, alphabet = rng.randint(0, 4), rng.choice((1, 2, 3))
        series.append(random_series(rng, n, alphabet, trial % 2 == 0, symbolic=True))
        words = [w for w in random_series(rng, n, alphabet, trial % 3 == 0).terms]
        series.append(NCSeries(n, alphabet, {w: random_poly(rng, 2, 3, 3) for w in words}))
    for f in series:
        assert str(f) == oracle_series_str(f), f.terms


def test_coefficient_lookup_beyond_truncation_is_an_error():
    f = unit(2)
    assert f.coefficient((0, 1)).is_zero
    with pytest.raises(DegreeBeyondTruncation):
        f.coefficient((0, 1, 0))


def test_constructor_validation():
    with pytest.raises(ValueError):
        NCSeries(-1)
    with pytest.raises(ValueError):
        NCSeries(2, 0)
    with pytest.raises(ValueError):
        NCSeries(2, 2, {(5,): 1})


def test_capped_horner_matches_uncapped_oracle():
    # polynomial coefficients in several symbols, so products mix monomials; and sparse
    # arguments, whose words all have length >= m, so that Horner's scheme stops at k = N // m:
    # the powers it leaves out hold no word through N
    rng = random.Random(2024)
    for n in range(1, 7):
        for _ in range(3):
            g = random_series(rng, n, symbolic=True, density=0.5)
            assert exp(g) == exp_uncapped(g)
            f = NCSeries.unit(n) + g
            assert log(f) == log_uncapped(f)
            h = g.scale(Poly.symbol("a", 1) + Poly.symbol("b", 2) * Fraction(1, 3))
            assert exp(h) == exp_uncapped(h)
            assert log(NCSeries.unit(n) + h) == log_uncapped(NCSeries.unit(n) + h)
    for case in range(120):
        n = rng.randint(2, 8)
        m = rng.randint(2, n)
        g = random_series(rng, n, symbolic=case % 3 == 0, density=0.15)
        g = NCSeries(n, 2, {w: c for w, c in g.terms.items() if len(w) >= m})
        assert exp(g) == exp_uncapped(g), (n, m, g)
        assert log(NCSeries.unit(n) + g) == log_uncapped(NCSeries.unit(n) + g), (n, m, g)


AB30 = (0, 1) * 30
AB10 = AB30[:20]


@pytest.mark.parametrize("call,arg,expected,passes", [
    (exp, NCSeries.zero(10**18), NCSeries.unit(10**18), 1),
    (log, NCSeries.unit(10**18), NCSeries.zero(10**18), 1),
    (exp, NCSeries.zero(10**6), NCSeries.unit(10**6), 1),
    (exp, NCSeries(60, 2, {AB30: 1}), NCSeries(60, 2, {(): 1, AB30: 1}), 2),
    (log, NCSeries(60, 2, {(): 1, AB30: 1}), NCSeries(60, 2, {AB30: 1}), 2),
    (exp, NCSeries(60, 2, {AB10: 2}),
     NCSeries(60, 2, {(): 1, AB10: 2, AB10 * 2: 2, AB10 * 3: Fraction(4, 3)}), 4),
])
def test_exp_and_log_run_a_pass_per_power_that_reaches_the_truncation(
    monkeypatch, call, arg, expected, passes
):
    # x^k holds no word shorter than k m, m the least length of x's words, so Horner's scheme
    # runs k = N // m .. 0, and x = 0 one pass: a huge truncation costs nothing where no power
    # of x reaches it; the oracle runs N passes, so it checks the small truncations only
    calls = []
    product = series._product
    monkeypatch.setattr(series, "_product", lambda *args: calls.append(args) or product(*args))
    assert call(arg) == expected
    assert len(calls) == passes
    if arg.truncation <= 60:
        assert call(arg) == (exp_uncapped if call is exp else log_uncapped)(arg)


@pytest.mark.parametrize("alphabet,max_truncation", [(2, 6), (3, 6)])
def test_filtered_log_equals_log_on_the_suffix_closure(alphabet, max_truncation):
    # the divided-power Horner loop kept to the suffixes of a few target
    # words is exact there: it gives L |w|! log(f)[w], L = lcm(1..n); f - 1 is
    # one sweep over every split, or, for a product of one-letter exponentials,
    # one product over the factor word, here by the ladders' oracle
    rng = random.Random(307 + alphabet)
    for n in range(1, max_truncation + 1):
        for _ in range(3):
            g = NCSeries.unit(n, alphabet) + random_series(
                rng, n, alphabet, symbolic=True, density=0.5
            )
            # every letter leads a factor, as in a splitting product
            letters = rng.sample(range(alphabet), alphabet) + [rng.randrange(alphabet)]
            coeffs = [Poly.symbol("a", j) * random_fraction(rng) for j in range(1, len(letters) + 1)]
            stages = list(zip(letters, coeffs))
            product = NCSeries.unit(n, alphabet)
            for x, c in stages:
                product = product * exp(letter(x, n, alphabet, c))
            targets = [
                tuple(rng.randrange(alphabet) for _ in range(rng.randint(1, n)))
                for _ in range(rng.randint(1, 4))
            ]
            closure = {w[i:] for w in targets for i in range(len(w) + 1)}
            factors = {w[i:j] for w in targets for j in range(len(w) + 1) for i in range(j)}
            words, factors = _numbered(closure), _numbered(factors)
            divided = [g.coefficient(u) * math.factorial(len(u)) for u in factors]
            steps, splits = _product_steps(words), _splits(words, factors)
            sweep = sweep_by_dot(sum_of_products)
            stage_product = ladder_product(sweep)
            every = range(len(words) - 1)
            for f, times, expanded in [
                (g, lambda acc, top: sweep(acc, divided, splits, top, True), True),
                (product, lambda acc, top: stage_product(acc, stages, rows_to(steps, top)), False),
            ]:
                log_ring = POLYS._replace(expanded=expanded)
                big, got = _divided_log(log_ring, times, every, len(words), n)
                filtered = dict(zip(words, got))
                full = log(f)
                assert set(filtered) == closure
                for w in closure:
                    scale = Fraction(1, big * math.factorial(len(w)))
                    assert filtered[w] * scale == full.coefficient(w)


@pytest.mark.parametrize("letters", [(0,), (1,), (0, 0), (1, 1, 1)])
def test_log_of_a_one_letter_stage_list_keeps_the_other_letters_words(letters):
    # no factor is led by the other letter, yet the log forms its words from the word
    # set it is given; a single stage sweep, like the expanded product's, may also start
    # from zero and subtract nothing, since its rows leave out the split u = ()
    rng = random.Random(311 + len(letters))
    n = 4
    coeffs = [Poly.symbol("a", j) * random_fraction(rng) for j in range(1, len(letters) + 1)]
    product = NCSeries.unit(n)
    for x, c in zip(letters, coeffs):
        product = product * exp(letter(x, n, 2, c))
    targets = [(0, 0, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0, 0)]
    closure = {w[i:] for w in targets for i in range(len(w) + 1)}
    words = _numbered(closure)
    steps = _product_steps(words)
    sweep, factors = sweep_by_dot(sum_of_products), list(zip(letters, coeffs))
    ladder = [coeffs[0] ** j for j in range(n + 1)]  # the one stage's, if one
    full = log(product)
    for expanded in {False, len(letters) == 1}:
        if expanded:  # the one stage's rows from zero: e^{cX} acc - acc
            rows = positioned(steps.get(letters[0], []))
            times = lambda acc, top: sweep(acc, ladder, rows, top, True)
        else:
            times = lambda acc, top: ladder_product(sweep)(acc, factors, rows_to(steps, top))
        args = (times, range(len(words) - 1), len(words), n)
        big, got = _divided_log(POLYS._replace(expanded=expanded), *args)
        got = dict(zip(words, got))
        assert set(got) == closure
        for w in closure:
            assert got[w] * Fraction(1, big * math.factorial(len(w))) == full.coefficient(w), w
