import random
from fractions import Fraction

import pytest

from splitcond import (
    DegreeBeyondTruncation,
    NCSeries,
    NotALieElement,
    SingleLetter,
    bracket_str,
    bracketing,
    expand,
    foliage,
    is_lyndon,
    lie_decompose,
    lyndon_words,
    lyndon_words_of_degree,
    standard_factorization,
)
from splitcond.conditions import _int_dot
from splitcond.lyndon import _Tables
from splitcond.poly import Poly, _dot, _int_sweep, _sweep, sum_of_products

from helpers import (
    back_substitute_by_word,
    homogeneous_at_truncation,
    lie_decompose_by_subtraction,
    longest_lyndon_suffix_factorization,
    necklace_count,
    random_poly,
    random_series,
    strictly_smallest_rotation,
)

A, B = 0, 1


def test_two_letter_enumeration_through_length_3():
    words = lyndon_words(2, 3)
    assert words == [(A,), (A, A, B), (A, B), (A, B, B), (B,)]


def test_single_letter_alphabet():
    assert lyndon_words(1, 4) == [(A,)]


def test_enumeration_is_lexicographic_and_lyndon():
    for alphabet in (2, 3):
        words = lyndon_words(alphabet, 8)
        assert words == sorted(words)
        assert all(strictly_smallest_rotation(w) for w in words)
    assert not is_lyndon(())


def test_duval_against_brute_force_length_10():
    generated = set(lyndon_words(2, 10))
    # enumerate every word up to length 10 and test rotation-minimality directly
    words = [()]
    brute = set()
    for _ in range(10):
        words = [w + (letter,) for w in words for letter in (A, B)]
        brute.update(w for w in words if strictly_smallest_rotation(w))
    assert generated == brute


def test_counts_match_necklace_formula():
    for alphabet in (2, 3):
        words = lyndon_words(alphabet, 8)
        for length in range(1, 9):
            count = sum(1 for w in words if len(w) == length)
            assert count == necklace_count(alphabet, length)


def test_counts_alphabet_2_first_six_lengths():
    counts = [len(lyndon_words_of_degree(2, n)) for n in range(1, 7)]
    assert counts == [2, 1, 2, 3, 6, 9]


def test_standard_factorization_examples():
    assert standard_factorization((A, A, B)) == ((A,), (A, B))
    assert standard_factorization((A, B, B)) == ((A, B), (B,))
    assert standard_factorization((A, A, B, A, B)) == ((A, A, B), (A, B))


def test_standard_factorization_properties():
    for w in lyndon_words(2, 8):
        if len(w) < 2:
            continue
        left, right = standard_factorization(w)
        assert left + right == w
        assert is_lyndon(left) and is_lyndon(right)
        assert left < right
        # right factor is the longest proper Lyndon suffix
        longer = [w[i:] for i in range(1, len(w) - len(right)) if is_lyndon(w[i:])]
        assert not longer


@pytest.mark.parametrize("alphabet", [2, 3])
def test_standard_factorization_is_the_longest_lyndon_suffix(alphabet):
    # the smallest proper suffix against a brute-force Lyndon-suffix search
    for w in lyndon_words(alphabet, 10):
        if len(w) > 1:
            assert standard_factorization(w) == longest_lyndon_suffix_factorization(w)


def test_single_letter_has_no_factorization():
    with pytest.raises(SingleLetter):
        standard_factorization((A,))


def test_bracketing_examples():
    assert bracketing((A, B)) == (A, B)
    assert bracketing((A, A, B)) == (A, (A, B))
    assert bracketing((A, B, B)) == ((A, B), B)
    assert bracket_str(bracketing((A, A, B))) == "[A,[A,B]]"
    assert bracket_str(bracketing((A, B, B))) == "[[A,B],B]"


def test_foliage_inverts_bracketing():
    for w in lyndon_words(2, 7):
        assert foliage(bracketing(w)) == w


def test_expand_examples():
    assert expand((A, B), 2) == NCSeries(2, 2, {(A, B): 1, (B, A): -1})
    assert expand((A, (A, B)), 3) == NCSeries(
        3, 2, {(A, A, B): 1, (A, B, A): -2, (B, A, A): 1}
    )
    assert expand(((A, B), B), 3) == NCSeries(
        3, 2, {(A, B, B): 1, (B, A, B): -2, (B, B, A): 1}
    )


def test_expand_rejects_tight_truncation():
    with pytest.raises(DegreeBeyondTruncation):
        expand((A, (A, B)), 2)


def test_antisymmetry_of_brackets():
    rng = random.Random(61)

    def random_tree(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice((A, B))
        return (random_tree(depth - 1), random_tree(depth - 1))

    for _ in range(30):
        x = random_tree(2)
        y = random_tree(2)
        n = len(foliage(x)) + len(foliage(y))
        assert expand((x, y), n) + expand((y, x), n) == NCSeries.zero(n)


def test_leading_term_of_lyndon_expansions():
    # the expanded bracketing's lexicographically smallest word is the word
    # itself, with coefficient exactly 1
    for w in lyndon_words(2, 6):
        series = expand(bracketing(w), len(w))
        words = sorted(series.terms)
        assert words[0] == w
        assert series.terms[w] == Poly.const(1)


def test_decompose_single_basis_element():
    f = NCSeries(2, 2, {(A, B): Fraction(1, 2), (B, A): Fraction(-1, 2)})
    dec = lie_decompose(f, 2)
    assert dec.coefficients == {(A, B): Poly.const(Fraction(1, 2))}


def test_decompose_round_trip_random_weights():
    rng = random.Random(67)
    for degree in range(1, 7):
        basis = lyndon_words_of_degree(2, degree)
        for _ in range(6):
            weights = {}
            combo = NCSeries.zero(degree)
            for w in basis:
                if rng.random() < 0.7:
                    weight = random_poly(rng, stages=2, degree=2, terms=2)
                    if weight.is_zero:
                        continue
                    weights[w] = weight
                    combo = combo + expand(bracketing(w), degree).scale(weight)
            dec = lie_decompose(combo, degree)
            assert dec.coefficients == weights
            assert dec.reconstruct(degree) == combo


def test_word_ab_alone_is_rejected_with_symmetric_residual():
    f = NCSeries(2, 2, {(A, B): 1})
    with pytest.raises(NotALieElement) as info:
        lie_decompose(f, 2)
    half = Fraction(1, 2)
    assert info.value.residual == NCSeries(2, 2, {(A, B): half, (B, A): half})


def test_decompose_requires_homogeneous_input():
    f = NCSeries(3, 2, {(A,): 1, (A, B): 1})
    with pytest.raises(ValueError):
        lie_decompose(f, 2)


def test_decompose_degree_one_reads_letter_coefficients():
    a1 = Poly.symbol("a", 1)
    f = NCSeries(1, 2, {(A,): a1 - 1, (B,): Poly.const(3)})
    dec = lie_decompose(f, 1)
    assert dec.coefficients == {(A,): a1 - 1, (B,): Poly.const(3)}


def test_bch_degree_3_coefficients():
    from splitcond import exp, log

    a1, b1 = Poly.symbol("a", 1), Poly.symbol("b", 1)
    z = log(exp(NCSeries.letter(A, 3, coeff=a1)) * exp(NCSeries.letter(B, 3, coeff=b1)))
    dec = lie_decompose(homogeneous_at_truncation(z, 3), 3)
    twelfth = Fraction(1, 12)
    assert dec.coefficients == {
        (A, A, B): a1 * a1 * b1 * twelfth,
        (A, B, B): a1 * b1 * b1 * twelfth,
    }


def test_enumeration_argument_validation():
    from splitcond import lyndon_words

    with pytest.raises(ValueError):
        lyndon_words(0, 3)
    with pytest.raises(ValueError):
        lyndon_words(2, 0)


def test_factorization_rejects_non_lyndon_words():
    with pytest.raises(ValueError):
        standard_factorization((B, A))
    with pytest.raises(ValueError):
        standard_factorization((A, B, A, B))  # a square, not Lyndon
    with pytest.raises(ValueError):
        bracketing(())


def test_three_letter_alphabet_round_trip():
    # the machinery is not tied to two letters: decompose a random
    # combination of three-letter Lyndon bracketings
    rng = random.Random(131)
    for degree in (2, 3, 4):
        basis = [w for w in lyndon_words(3, degree) if len(w) == degree]
        weights = {}
        combo = NCSeries.zero(degree, 3)
        for w in basis:
            if rng.random() < 0.5:
                weight = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if weight:
                    weights[w] = Poly.const(weight)
                    combo = combo + expand(bracketing(w), degree, 3).scale(weight)
        decomposition = lie_decompose(combo, degree)
        assert decomposition.coefficients == weights


def _decompose_outcome(decompose, f, degree):
    # coefficients on success, the residual on NotALieElement
    try:
        return "lie", decompose(f, degree).coefficients
    except NotALieElement as exc:
        return "residual", exc.residual


@pytest.mark.parametrize("alphabet,max_degree", [(2, 6), (3, 4)])
def test_decompose_matches_the_subtraction_oracle(alphabet, max_degree):
    # random Lie combinations decompose alike; adding random words (almost
    # never a Lie element) raises the same residual from both solves
    rng = random.Random(149 + alphabet)
    outcomes = set()
    for degree in range(1, max_degree + 1):
        basis = lyndon_words_of_degree(alphabet, degree)
        for _ in range(4):
            truncation = degree + rng.randint(0, 1)
            combo = NCSeries.zero(truncation, alphabet)
            for w in basis:
                if rng.random() < 0.6:
                    weight = random_poly(rng, stages=2, degree=2, terms=2)
                    combo = combo + expand(bracketing(w), truncation, alphabet).scale(weight)
            noise = random_series(rng, truncation, alphabet, density=0.3).homogeneous_part(degree)
            for f in (combo, combo + noise):
                got = _decompose_outcome(lie_decompose, f, degree)
                assert got == _decompose_outcome(lie_decompose_by_subtraction, f, degree)
                outcomes.add(got[0])
    assert outcomes == {"lie", "residual"}


def test_lie_check_expands_no_bracketing(monkeypatch):
    # the Dynkin projection checks membership, and the coordinate read uses
    # the integer bracket tables, so neither expands a bracketing as a series;
    # the word-keyed back-substitution on the same tables reads the same weights
    from splitcond import lyndon

    rng = random.Random(163)
    combo = NCSeries.zero(5)
    weights = {}
    for w in lyndon_words_of_degree(2, 5):
        weights[w] = Poly.const(Fraction(rng.randint(1, 9), 7))
        combo = combo + expand(bracketing(w), 5).scale(weights[w])
    calls = []

    def counted(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(lyndon, "expand", counted)
    assert lie_decompose(combo, 5).coefficients == weights
    tables, one = lyndon._Tables(5, 2), Poly.const(1)
    values = [combo.terms.get(w, Poly()) for w in tables.lyndon[5]]
    assert back_substitute_by_word(values, 5, tables, one, sum_of_products) == weights
    assert calls == []


def random_read_values(rng, count):
    # one draw of Lyndon values per ring, zeros included: ints, Poly, and integer maps
    # over small monomials, so that sums in the read often cancel
    ints = [rng.choice((0, rng.randint(-99, 99))) for _ in range(count)]
    polys = [random_poly(rng, stages=2, degree=2, terms=2) for _ in range(count)]
    monos = (0, 1, 1 << 8, (1 << 8) + 1)
    maps = [{m: rng.choice((-2, -1, 1, 2)) for m in rng.sample(monos, rng.randint(0, 3))}
            for _ in range(count)]
    return ints, polys, maps


def test_read_rows_equal_the_word_keyed_back_substitution():
    # the read is linear and unchecked, so at any values of the Lyndon slots, Lie
    # element or not, the rows swept in place give the old solve's coordinates exactly,
    # through _int_sweep over ints and Poly and through _sweep over integer maps, and
    # leave every other slot as it was
    rng = random.Random(1901)
    tables = _Tables(7, 2)
    words = list(tables.suffixes)
    for q in range(1, 8):
        slots, rows = tables.lyndon_slots[q], tables.read_steps(q)
        assert [words[w] for w, n, runs in rows] == sorted(words[w] for w, n, runs in rows)
        assert all(n == q and w in slots for w, n, runs in rows)
        for _ in range(6):
            ints, polys, maps = random_read_values(rng, len(slots))
            for values, one, dot, sweep, unit, zero in [
                (ints, 1, _int_dot, _int_sweep, [1], 0),
                (polys, Poly.const(1), sum_of_products, _int_sweep, [Poly.const(1)], Poly()),
                (maps, {0: 1}, _dot, _sweep, [0], {}),
            ]:
                acc = [zero] * len(words)
                for i, value in zip(slots, values):
                    acc[i] = value
                before = list(acc)
                sweep(acc, unit, rows)
                read = {words[i]: acc[i] for i in slots if acc[i]}
                assert read == back_substitute_by_word(values, q, tables, one, dot), (q, values)
                assert all(acc[i] is before[i] for i in range(len(words)) if i not in slots)


def test_an_evicted_table_is_freed_with_its_rows():
    # the read's rows live on the table, so a table the cache drops is garbage
    # once it is unreferenced, rows and all
    import gc
    import weakref

    _Tables.cache_clear()
    tables = _Tables(6, 2)
    for q in range(2, 7):  # built once, then kept
        assert tables.read_steps(q) is tables.read_steps(q)
    ref = weakref.ref(tables)
    del tables
    _Tables.cache_clear()
    gc.collect()
    assert ref() is None
