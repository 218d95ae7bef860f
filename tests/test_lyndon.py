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
from splitcond.lyndon import MAX_LYNDON_WORDS, _Tables, lyndon_count
from splitcond.poly import Poly, _int_product
from splitcond.series import word_str

from helpers import (
    INTS,
    MAPS,
    POLYS,
    back_substitute_by_word,
    expand_by_products,
    homogeneous_at_truncation,
    lie_decompose_by_subtraction,
    lie_decompose_by_word,
    lie_decompose_on_the_union_table,
    longest_lyndon_suffix_factorization,
    necklace_count,
    random_poly,
    random_series,
    read_steps_by_word,
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


def _refuse_listing(*args):
    raise AssertionError(f"listed the Lyndon words of {args}")


def test_lyndon_count_is_the_necklace_sum_listing_nothing(monkeypatch):
    # exact through the first degree past the budget, over every alphabet the letters name
    monkeypatch.setattr("splitcond.lyndon.lyndon_words", _refuse_listing)
    for alphabet in range(1, 27):
        total = 0
        for n in range(1, 30):
            total += necklace_count(alphabet, n)
            assert lyndon_count(alphabet, n) == total, (alphabet, n)
            if total > MAX_LYNDON_WORDS:
                break
        assert (total > MAX_LYNDON_WORDS) == (alphabet > 1)
    monkeypatch.undo()
    for alphabet in range(1, 5):
        for n in range(1, 7):
            assert lyndon_count(alphabet, n) == len(lyndon_words(alphabet, n))


def test_lyndon_count_on_extreme_values():
    # the sum stops once past the budget, and after one term over one letter, so an order
    # of 10^18 costs what the first degree past the budget does
    assert lyndon_count(26, 6) > MAX_LYNDON_WORDS
    assert lyndon_count(2, 23) == 766_150 <= MAX_LYNDON_WORDS < lyndon_count(2, 24) == 1_465_020
    assert lyndon_count(26, 4) <= MAX_LYNDON_WORDS < lyndon_count(26, 5)
    assert lyndon_count(1, 10**18) == 1
    for alphabet in range(2, 27):
        past = next(n for n in range(1, 30) if lyndon_count(alphabet, n) > MAX_LYNDON_WORDS)
        assert lyndon_count(alphabet, 10**18) == lyndon_count(alphabet, past)


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


def test_expand_names_a_malformed_tree():
    # a one-element tuple, a triple, a list and a string are none of a leaf (an int)
    # or a node (a pair); the bad subtree is named, however deep it sits
    message = "not a bracket tree: {}; a leaf is an int and a node is a pair"
    for tree, bad in [((0,), (0,)), ((0, 1, 1), (0, 1, 1)), ([0, 1], [0, 1]),
                      ((A, ("B",)), ("B",)), ((A, "B"), "B")]:
        with pytest.raises(ValueError) as caught:
            expand(tree, 3)
        assert type(caught.value) is ValueError
        assert str(caught.value) == message.format(repr(bad))


def test_bracket_str_names_a_malformed_tree():
    # foliage's type and message: a one-element tuple, a triple, a string and a list
    # are none of a leaf or a node, and the bad subtree is named, however deep it sits
    message = "not a bracket tree: {}; a leaf is an int and a node is a pair"
    for tree, bad in [((0,), (0,)), ((0, 1, 2), (0, 1, 2)), ("x", "x"), ([0, 1], [0, 1]),
                      ((A, (B, (A,))), (A,))]:
        with pytest.raises(ValueError) as caught:
            bracket_str(tree)
        assert type(caught.value) is ValueError
        assert str(caught.value) == message.format(repr(bad))


TREE = "not a bracket tree: {}; a leaf is an int and a node is a pair"
# the one letter rule at each way a word enters the Lie layer: a letter is an int but not
# a bool, inside the alphabet where one is known; every other item is refused, named
LETTER_CASES = [
    (lambda: NCSeries(2, 2, {(True,): 1}), "word (True,) uses letters outside the alphabet"),
    (lambda: NCSeries.letter(1, 2).coefficient((True,)),
     "word (True,) uses letters outside the alphabet"),
    (lambda: NCSeries.letter(1, 2).coefficient((0, 2)),
     "word (0, 2) uses letters outside the alphabet"),
    (lambda: NCSeries.letter(1, 2).coefficient("AB"),
     "word ('A', 'B') uses letters outside the alphabet"),
    (lambda: bracket_str((True, 0)), TREE.format("True")),
    (lambda: foliage((A, (B, False))), TREE.format("False")),
    (lambda: expand((A, True), 2), TREE.format("True")),
    (lambda: word_str((True, False)), "letter index True outside 0-25"),
    (lambda: word_str((A, "x")), "letter index 'x' outside 0-25"),
    (lambda: bracketing((0.0, 1.0)), "not a word of letter indices: (0.0, 1.0)"),
    (lambda: bracketing((1.0,)), "not a word of letter indices: (1.0,)"),
    (lambda: standard_factorization((A, "x")), "not a word of letter indices: (0, 'x')"),
    (lambda: standard_factorization((False, True)), "not a word of letter indices: (False, True)"),
    # named, since bracketing and standard_factorization raise the same messages above
    pytest.param(lambda: is_lyndon((0.0, 1.0)), "not a word of letter indices: (0.0, 1.0)",
                 id="is_lyndon-(0.0, 1.0)"),
    pytest.param(lambda: is_lyndon((False, True)), "not a word of letter indices: (False, True)",
                 id="is_lyndon-(False, True)"),
    (lambda: lie_decompose(expand((A, B), 2), 2).coefficient(("x",)),
     "not a word of letter indices: ('x',)"),
]


@pytest.mark.parametrize("call,message", LETTER_CASES)
def test_one_letter_rule_for_words_entering_the_lie_layer(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


def test_the_letter_rule_runs_once_where_a_word_enters(monkeypatch):
    # bracketing checks a word at its entry and standard_factorization at its own, and the
    # recursion on the factors checks nothing again: a degree-12 word is checked twice
    from splitcond import lyndon

    checked, rule = [], lyndon._word
    monkeypatch.setattr(lyndon, "_word", lambda word: checked.append(word) or rule(word))
    word = (0, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1)
    tree = bracketing(word)
    assert checked == [word, word]
    assert tree == (0, ((0, 1), (((0, 1), 1), (((((0, 1), 1), 1), 1), 1))))
    assert foliage(tree) == word


def _random_tree(rng, letters, depth):
    # any bracket tree, Lyndon bracketing or not, repeated letters and [x, x] included
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(letters)
    return (_random_tree(rng, letters, depth - 1), _random_tree(rng, letters, depth - 1))


def test_expand_equals_the_series_product_oracle():
    # each node's commutator of its children's term maps against x*y - y*x formed by two
    # series products, over up to four letters and at a truncation past the degree; then on
    # words packed at ceil(log2 k) bits a letter, one at least, over 1 letter (one bit), 2, 3,
    # 5, 8, 9 (four bits) and all 26 (five), on seeded trees of degree <= 9, Lyndon
    # bracketings or not, with repeated letters, with [x, x] somewhere inside (zero), and
    # single leaves, repr included; a bad leaf is named as a series names it
    rng = random.Random(3307)
    for _ in range(200):
        alphabet = rng.randint(1, 4)
        tree = _random_tree(rng, range(alphabet), 4)
        truncation = len(foliage(tree)) + rng.randint(0, 2)
        got = expand(tree, truncation, alphabet)
        expected = expand_by_products(tree, truncation, alphabet)
        assert got == expected and str(got) == str(expected), tree
    rng = random.Random(3701)
    for alphabet in (1, 2, 3, 5, 8, 9, 26):
        letters = range(alphabet)
        trees = [rng.choice(letters) for _ in range(3)] + [(A, A), ((A, A), A)]
        trees += [_random_tree(rng, rng.sample(letters, min(alphabet, 3)), 3) for _ in range(20)]
        trees += [_random_tree(rng, letters, 4) for _ in range(20)]
        trees += [((t, t), A) for t in trees[-3:]]
        trees += [bracketing(w) for w in lyndon_words(alphabet, 3)]
        for tree in trees:
            if len(foliage(tree)) > 9:
                continue
            truncation = len(foliage(tree)) + rng.randint(0, 1)
            got = expand(tree, truncation, alphabet)
            expected = expand_by_products(tree, truncation, alphabet)
            assert got == expected and repr(got) == repr(expected), (alphabet, tree)
    assert expand((A, A), 2, 1).is_zero() and expand(((A, B), (A, B)), 4).is_zero()
    for tree, alphabet, bad in [((A, 5), 2, 5), (((A, 26), 3), 26, 26), ((A, (B, -1)), 3, -1)]:
        with pytest.raises(ValueError) as caught:
            expand(tree, 4, alphabet)
        assert str(caught.value) == f"word ({bad},) uses letters outside the alphabet"


def test_the_packed_dynkin_projection_equals_the_tuple_projection():
    # theta, the right-nested bracketing, over words packed at ceil(log2 k) bits a letter,
    # equals the tuple-keyed theta word for word, Poly coefficients and dict order aside:
    # on seeded homogeneous maps over up to 7 letters at degrees 1-7 (random words, Lie
    # elements, and both, whose theta is q times the Lie part plus a remainder), empty ones too
    from splitcond.lyndon import _bits, _pack, _unpack
    from splitcond.series import _dynkin

    from helpers import dynkin_by_word

    rng = random.Random(3702)
    for alphabet in range(1, 8):
        bits = _bits(alphabet)
        for degree in range(1, 8 if alphabet < 4 else 6):
            for _ in range(4):
                words = {tuple(rng.randrange(alphabet) for _ in range(degree))
                         for _ in range(rng.randint(0, 6))}
                terms = {w: random_poly(rng, 2, 2, 2) for w in words}
                if rng.random() < 0.5:
                    lie = lyndon_words_of_degree(alphabet, degree)
                    for w in rng.sample(lie, min(len(lie), 2)):
                        expansion = expand(bracketing(w), degree, alphabet).scale(rng.randint(1, 5))
                        terms = (NCSeries(degree, alphabet, terms) + expansion).terms
                packed = {_pack(w, bits): c for w, c in terms.items()}
                got = {_unpack(w, bits): c for w, c in _dynkin(packed, degree, bits).items()}
                assert got == dynkin_by_word(terms, degree), (alphabet, degree, terms)


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


def test_lie_decompose_refuses_tables_over_the_word_budget(monkeypatch):
    # the Lyndon words over the eight distinct letters of a degree-8 bracket number about
    # 2.4e6: refused by their count, before any is listed
    f = expand(bracketing(tuple(range(8))), 8, 8)
    monkeypatch.setattr("splitcond.lyndon.lyndon_words", _refuse_listing)
    with pytest.raises(ValueError) as refused:
        lie_decompose(f, 8)
    assert type(refused.value) is ValueError
    assert str(refused.value) == f"order 8 may need over {MAX_LYNDON_WORDS} Lyndon words"
    monkeypatch.undo()
    # a degree-6 element on all 26 letters, over which the Lyndon words would number about
    # 5e7, is five brackets on six increasing letters each: the budget counts one word's six
    words = [tuple(range(i, i + 6)) for i in range(0, 20, 6)] + [(0, 1, 2, 3, 24, 25)]
    f = NCSeries.zero(6, 26)
    for w in words:
        f = f + expand(bracketing(w), 6, 26)
    assert {x for w in f.terms for x in w} == set(range(26))
    assert lie_decompose(f, 6).coefficients == {w: Poly.const(1) for w in sorted(words)}


def test_lie_decompose_refuses_over_the_word_budget_before_any_other_work(monkeypatch):
    # one word, (AB)^15 at degree 30, neither Lie nor within the budget over two letters:
    # refused by the budget before the Dynkin projection, which would take seconds here
    def refuse(*args):
        raise AssertionError("the Dynkin projection ran over the word budget")

    monkeypatch.setattr("splitcond.series._dynkin", refuse)
    with pytest.raises(ValueError) as refused:
        lie_decompose(NCSeries(30, 2, {(A, B) * 15: 1}), 30)
    assert type(refused.value) is ValueError
    assert str(refused.value) == f"order 30 may need over {MAX_LYNDON_WORDS} Lyndon words"


def test_lie_decompose_builds_no_table(monkeypatch):
    # the coordinates are read off the input's own Lyndon words, so no word table is built
    # and the table cache is left as it was, however many letters the alphabet or the input
    # has: a series on the letters D and H (3 and 7) of a 12-letter alphabet reads the
    # two-letter coordinates relabelled, and each input reads what the union table, the
    # subtraction and the tuple-keyed solve read, repr included (ABCDEFG, whose union table
    # holds 141,280 words, against the other two only)
    from splitcond import lyndon

    built, tables = [], lyndon._Tables
    monkeypatch.setattr(lyndon, "_Tables", lambda *args: built.append(args) or tables(*args))

    def read(f, degree, oracles=(lie_decompose_on_the_union_table, lie_decompose_by_subtraction,
                                 lie_decompose_by_word)):
        cached = tables.cache_info()
        got = lie_decompose(f, degree)
        assert built == [] and tables.cache_info() == cached
        for oracle in oracles:
            expected = oracle(f, degree)
            assert got == expected and repr(got) == repr(expected), oracle
        return got.coefficients

    rng = random.Random(2301)
    relabel = (3, 7)
    for degree in range(1, 11):
        combo, weights = NCSeries.zero(degree), {}
        for w in lyndon_words_of_degree(2, degree):  # every coordinate nonzero, dense
            weights[w] = Poly.const(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            combo = combo + expand(bracketing(w), degree).scale(weights[w])
        assert read(combo, degree) == weights
        if degree < 6:
            terms = {tuple(relabel[x] for x in w): c for w, c in combo.terms.items()}
            got = read(NCSeries(degree, 12, terms), degree)
            assert got == {tuple(relabel[x] for x in w): c for w, c in weights.items()}
    for degree in (1, 3):
        assert read(NCSeries.zero(4, 12), degree) == {}
    assert read(NCSeries.letter(11, 2, 12, coeff=5), 1) == {(11,): 5}
    # [A,[B,C]] + [B,[B,C]] + [[D,E],E] at degree 3, one letter set inside another;
    # [A,[B,[C,D]]] + [E,[E,[E,F]]] at degree 4 and [A,[A,B]] + [B,[B,C]] + [A,[A,C]] at
    # degree 3, letter sets that overlap or not
    for degree, trees in [(3, [(0, (1, 2)), (1, (1, 2)), ((3, 4), 4)]),
                          (4, [(0, (1, (2, 3))), (4, (4, (4, 5)))]),
                          (3, [(0, (0, 1)), (1, (1, 2)), (0, (0, 2))])]:
        f = NCSeries.zero(degree, 12)
        for tree in trees:
            f = f + expand(tree, degree, 12)
        assert read(f, degree) == {foliage(t): 1 for t in trees}
    # E_AAABB holds AABAB at -2, so E_AAABB + 2 E_AABAB is 0 at AABAB, whose coordinate is 2
    f = expand(bracketing((A, A, A, B, B)), 5) + expand(bracketing((A, A, B, A, B)), 5).scale(2)
    assert f.coefficient((A, A, B, A, B)) == 0
    assert read(f, 5) == {(A, A, A, B, B): 1, (A, A, B, A, B): 2}
    word = tuple(range(7))  # one bracket on 7 distinct letters, 64 words
    f = expand(bracketing(word), 7, 7)
    assert read(f, 7, [lie_decompose_by_subtraction, lie_decompose_by_word]) == {word: 1}


@pytest.mark.parametrize("degree", range(1, 7))
def test_lie_decompose_by_letter_set_equals_the_union_table_read(degree):
    # random Lie elements over up to 8 letters (6 at degree 6) whose brackets mix letter sets,
    # one of them inside another: the solve over the input's own words reads what one table
    # over all of the letters reads, and what subtracting expanded bracketings leaves, repr
    # included
    rng = random.Random(3301 + degree)
    for _ in range(8):
        alphabet, least = rng.randint(2, 8 if degree < 6 else 6), min(degree, 2)
        outer = rng.sample(range(alphabet), rng.randint(least, min(degree, alphabet)))
        sets = [outer, rng.sample(outer, rng.randint(least, len(outer)))]
        sets.append(rng.sample(range(alphabet), rng.randint(least, min(degree, alphabet))))
        if len(rest := [x for x in range(alphabet) if x not in outer]) >= least:  # disjoint
            sets.append(rng.sample(rest, min(degree, len(rest))))
        f = NCSeries.zero(degree + rng.randint(0, 1), alphabet)
        for letters in map(sorted, sets):
            words = lyndon_words_of_degree(len(letters), degree)
            for w in rng.sample(words, min(len(words), 4)):
                tree = bracketing(tuple(letters[x] for x in w))
                weight = random_poly(rng, stages=2, degree=2, terms=2)
                f = f + expand_by_products(tree, f.truncation, alphabet).scale(weight)
        got = lie_decompose(f, degree)
        oracles = (lie_decompose_on_the_union_table, lie_decompose_by_subtraction,
                   lie_decompose_by_word)
        for oracle in oracles:
            expected = oracle(f, degree)
            assert got == expected and repr(got) == repr(expected), (oracle, sets)


def _outcome(decompose, f, degree):
    # the decomposition's repr, or the refusal's type, message and residual
    try:
        return repr(decompose(f, degree))
    except ValueError as refused:
        return type(refused), str(refused), repr(getattr(refused, "residual", None))


def test_lie_decompose_equals_the_tuple_keyed_solve():
    # the solve runs on packed keys, ceil(log2 k) bits a letter over the input's k letters,
    # and unpacks its words once at return: on seeded inputs over up to 7 letters (Lie
    # elements whose brackets mix letter sets, the same with one word added, which leaves a
    # residual, random words, and refused inputs) each outcome equals the tuple-keyed
    # solve's, repr, residual and message included (the Lie inputs of the tests above,
    # ABCDEFG among them, are read against it too)
    rng = random.Random(3601)
    for degree in range(1, 7):
        for _ in range(10):
            alphabet = rng.randint(1, 7 if degree < 6 else 5)
            f = NCSeries.zero(degree + rng.randint(0, 1), alphabet)
            for _ in range(rng.randint(1, 3)):
                letters = sorted(rng.sample(range(alphabet), rng.randint(1, min(degree, alphabet))))
                words = lyndon_words_of_degree(len(letters), degree)
                for w in rng.sample(words, min(len(words), 3)):
                    tree = bracketing(tuple(letters[x] for x in w))
                    f = f + expand(tree, f.truncation, alphabet).scale(random_poly(rng, 2, 2, 2))
            word = tuple(rng.randrange(alphabet) for _ in range(degree))
            noise = NCSeries(f.truncation, alphabet, {word: rng.randint(1, 3)})
            for g in (f, f + noise, noise):
                expected = _outcome(lie_decompose_by_word, g, degree)
                assert _outcome(lie_decompose, g, degree) == expected
    refused = [
        (NCSeries(3, 2, {(A,): 1, (A, B): 1}), 2),  # not homogeneous
        (NCSeries(2, 2), 3),  # beyond the truncation
        (NCSeries(2, 2), 0),  # degree 0
        (expand(bracketing(tuple(range(8))), 8, 8), 8),  # over the word budget
        (NCSeries(30, 2, {(A, B) * 15: 1}), 30),
    ]
    for f, degree in refused:
        got = _outcome(lie_decompose, f, degree)
        assert isinstance(got, tuple) and got == _outcome(lie_decompose_by_word, f, degree)


def test_the_packed_rows_equal_the_tuple_keyed_rows():
    # the read's brackets run on packed keys, one bit a letter over two letters, two over
    # three and four, three over five: on a fresh table of each top degree p, read on one
    # memo top degree first at odd p and last at even p, the rows equal the tuple-keyed
    # read's at every degree, over two letters through p = 14 and over 3-5 letters at small p;
    # the tuple-keyed brackets are kept across the tables of an alphabet
    cells = [(p, 2) for p in range(2, 15)] + [(p, 3) for p in range(2, 7)]
    words = {}
    for p, alphabet in cells + [(p, 4) for p in range(2, 6)] + [(p, 5) for p in range(2, 5)]:
        tables, memo = _Tables.__wrapped__(p, alphabet), {}
        for q in range(p, 1, -1) if p % 2 else range(2, p + 1):
            rows = tables.read_steps(q, memo, p)
            assert rows == read_steps_by_word(tables, q, words), (p, alphabet, q)


def test_lie_check_expands_no_bracketing(monkeypatch):
    # the Dynkin projection checks membership, and the coordinate read uses
    # integer bracket expansions, so neither expands a bracketing as a series;
    # the word-keyed back-substitution, over series expansions, reads the same weights
    from splitcond import series

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

    monkeypatch.setattr(series, "expand", counted)
    assert lie_decompose(combo, 5).coefficients == weights
    assert calls == []
    values = [combo.terms.get(w, Poly()) for w in lyndon_words_of_degree(2, 5)]
    assert back_substitute_by_word(POLYS, values, 5, 2) == weights


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
    # element or not, the rows run in place give the old solve's coordinates exactly,
    # through the product kernels by their unit factors, _int_product's 1 over ints and
    # Poly and _map_product's 0 over integer maps, and
    # leave every other slot as it was; on a fresh table of each top degree p, read through
    # p on one memo, so that the degrees below p read memoized brackets and degree p forms
    # its own and keeps none, over two letters and over three, whose Lyndon words share
    # their letters from degree 3 on
    rng = random.Random(1901)
    for p, alphabet in [(p, 2) for p in range(2, 8)] + [(p, 3) for p in range(2, 6)]:
        tables, memo = _Tables.__wrapped__(p, alphabet), {}
        words = list(tables.suffixes)
        for q in range(1, p + 1):
            slots, rows = list(tables.lyndon[q].values()), tables.read_steps(q, memo, p)
            assert [words[w] for w, n, runs in rows] == sorted(words[w] for w, n, runs in rows)
            assert all(n == q and w in slots and runs for w, n, runs in rows)
            for _ in range(6 if q == p else 2):
                ints, polys, maps = random_read_values(rng, len(slots))
                for values, ring, unit in [
                    (ints, INTS, 1), (polys, POLYS, Poly.const(1)), (maps, MAPS, 0)
                ]:
                    acc = [ring.dot([])] * len(words)
                    for i, value in zip(slots, values):
                        acc[i] = value
                    before = list(acc)
                    ring.product(acc, [(A, unit)], {A: rows})
                    read = {words[i]: acc[i] for i in slots if acc[i]}
                    expected = back_substitute_by_word(ring, values, q, alphabet)
                    assert read == expected, (p, alphabet, q, values)
                    assert all(acc[i] is before[i] for i in range(len(words)) if i not in slots)


def test_the_read_expands_only_the_brackets_its_rows_read():
    # over two letters through degree 4 no two Lyndon words of one degree share their
    # letters, so every row is empty and left out, and no bracket is expanded; at p = 5
    # the rows read AAABB and AABBB, of degree p, so only their factors enter the memo.
    # Read top degree first or last, no bracket of the read's top degree enters it, and
    # after a read the table holds its words and rows, and no bracket
    for p in (1, 2, 3, 4):
        tables, memo = _Tables.__wrapped__(p, 2), {}
        assert all(tables.read_steps(q, memo, p) == [] for q in range(1, p + 1))
        assert memo == {}
    kept = [(A,), (A, A, B, B), (A, B), (A, B, B), (A, B, B, B), (B,)]
    rng = random.Random(35)
    for p, alphabet in [(p, 2) for p in range(5, 9)] + [(p, 3) for p in range(2, 6)]:
        for degrees in (range(1, p + 1), range(p, 0, -1)):
            tables, memo = _Tables.__wrapped__(p, alphabet), {}
            for q in degrees:
                tables.read_steps(q, memo, p)
                assert all(len(w) < p for w in memo), (p, alphabet, q)
        if (p, alphabet) == (5, 2):
            assert sorted(memo) == kept
        if (p, alphabet) == (6, 2):  # of 23 when every bracket was kept
            assert len(memo) == 10
        tables = _Tables.__wrapped__(p, alphabet)
        acc = [rng.choice((0, rng.randint(-9, 9))) for _ in tables.suffixes]
        tables.read(_int_product, 1, acc, range(2, p + 1))
        assert tables._reads and set(vars(tables)) == {"suffixes", "lyndon", "_reads"}


def test_an_evicted_table_is_freed_with_its_rows():
    # the read's rows live on the table, so a table the cache drops is garbage
    # once it is unreferenced, rows and all
    import gc
    import weakref

    _Tables.cache_clear()
    tables = _Tables(6, 2)
    for q in range(2, 7):  # built once, then kept
        assert tables.read_steps(q, {}, 6) is tables.read_steps(q, {}, 6)
    ref = weakref.ref(tables)
    del tables
    _Tables.cache_clear()
    gc.collect()
    assert ref() is None
