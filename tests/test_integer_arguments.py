"""A seeded probe of the engine's one integer rule (poly._whole).

Every integer argument of an entry point is anything operator.index takes but a bool.
Any other value raises TypeError, and a value out of range ValueError, each naming the
argument; no value leaks an error from inside the engine.
"""

import random
import time
from fractions import Fraction

import pytest

from splitcond import (
    LieDecomposition,
    NCSeries,
    Poly,
    SymbolicScheme,
    bracketing,
    condition_system,
    exp,
    exp_of_sum,
    expand,
    foliage,
    leading_error_term,
    lie_decompose,
    local_error_series,
    log,
    lyndon_words,
    lyndon_words_of_degree,
    splitting_product,
    verify_scheme,
)
from splitcond.cli import REGISTRY
from splitcond.conditions import ROUTES, check_cost
from splitcond.lyndon import MAX_LYNDON_WORDS
from splitcond.series import _check_tree, _check_words, _truncation

STRANG = REGISTRY["strang"].scheme
TREE = bracketing((0, 0, 1))  # [A,[A,B]], of degree 3
LIE = expand(TREE, 6)  # truncated at 6
GENERIC = SymbolicScheme.generic(2)

NOT_INTEGERS = [2.0, 2.5, True, "3", None, Fraction(3)]
OUT_OF_RANGE = [0, -1]

# per entry point, its integer arguments as (a word its messages name it by, in-range
# values, non-integers it also takes); orders stay <= 6 and stage counts <= 3
ORDER, STAGES = ("order", range(1, 7), ()), ("stage", range(1, 4), ())
CALLS = {
    "verify_scheme": (lambda p, route: verify_scheme(STRANG, p, route), [ORDER]),
    "condition_system": (condition_system, [STAGES, ORDER]),
    "leading_error_term": (lambda p, route: leading_error_term(STRANG, p), [ORDER]),
    "lie_decompose": (lambda q, route: lie_decompose(LIE, q), [("degree", range(1, 7), ())]),
    "expand": (lambda n, k, route: expand(TREE, n, k),
               [("truncation", range(3, 7), ()), ("alphabet", range(2, 4), ())]),
    "LieDecomposition.reconstruct": (lambda n, k, route: lie_decompose(LIE, 3).reconstruct(n, k),
                                     [("truncation", range(3, 7), ()),
                                      ("alphabet", range(2, 4), ())]),
    "check_cost": (lambda p, s, route: check_cost(p, route, s),
                   [ORDER, ("stage", range(1, 4), (None,))]),
    "splitting_product": (lambda n, route: splitting_product(GENERIC, n),
                          [("truncation", range(0, 7), ())]),
    "exp_of_sum": (lambda n, route: exp_of_sum(n), [("truncation", range(0, 7), ())]),
    "local_error_series": (lambda n, route: local_error_series(GENERIC, n),
                           [("truncation", range(0, 7), ())]),
    "SymbolicScheme.generic": (lambda s, route: SymbolicScheme.generic(s), [STAGES]),
    "Poly.symbol": (lambda j, route: Poly.symbol("b", j), [("stage", range(1, 4), ())]),
    "Poly.__pow__": (lambda e, route: Poly.symbol("a", 1) ** e, [("exponent", range(0, 7), ())]),
    "lyndon_words": (lambda k, n, route: lyndon_words(k, n),
                     [("alphabet", range(1, 4), ()), ("degree", range(1, 7), ())]),
    "NCSeries": (lambda n, k, route: NCSeries(n, k),
                 [("truncation", range(0, 7), ()), ("alphabet", range(1, 4), ())]),
    "NCSeries.letter": (lambda i, route: NCSeries.letter(i, 3), [("letter", range(0, 2), ())]),
    "NCSeries.homogeneous_part": (lambda j, route: LIE.homogeneous_part(j),
                                  [("degree", range(0, 7), ())]),
    "ConcreteScheme.padded": (lambda s, route: STRANG.padded(s), [("stage", range(2, 5), ())]),
}


def _cases(rng: random.Random, specs: list):
    # each argument at each out-of-range and non-integer value, the others in range;
    # then a few draws of every argument from all of them
    for at, _ in enumerate(specs):
        for value in OUT_OF_RANGE + NOT_INTEGERS:
            yield [value if i == at else rng.choice(r) for i, (_, r, _) in enumerate(specs)]
    for _ in range(8):
        yield [rng.choice([rng.choice(r)] * 4 + OUT_OF_RANGE + NOT_INTEGERS)
               for _, r, _ in specs]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def test_every_integer_argument_is_one_rule():
    rng = random.Random(3029)
    for name, (call, specs) in CALLS.items():
        for args in _cases(rng, specs):
            route = rng.choice(ROUTES)
            typed = [word for (word, _, takes), v in zip(specs, args)
                     if not _is_int(v) and not any(v is t for t in takes)]
            ranged = [word for (word, r, _), v in zip(specs, args) if _is_int(v) and v not in r]
            where = f"{name}{tuple(args)} on {route}"
            try:
                call(*args, route)
            except (TypeError, ValueError) as exc:
                message = str(exc)
                named = [word for word, _, _ in specs if word in message]
                assert named, f"{where}: {type(exc).__name__}: {message}"
                if typed or ranged:
                    assert set(named) & set(typed + ranged), f"{where}: {message}"
                if isinstance(exc, TypeError):
                    assert set(named) & set(typed), f"{where}: {message}"
                    assert "must be an integer, not" in message, f"{where}: {message}"
            else:
                assert not typed, f"{where} took a non-integer"


# the series entry points list all 2^(N+1) - 1 words through their truncation N: past the word
# budget, from N = 19 on, each is refused before any word is listed; exp and log bound the words
# of their argument's powers the same way over A and B, counted, not listed
REFUSED = {
    "splitting_product": lambda n: splitting_product(GENERIC, n),
    "exp_of_sum": exp_of_sum,
    "local_error_series": lambda n: local_error_series(GENERIC, n),
    "exp": lambda n: exp(NCSeries.letter(0, n) + NCSeries.letter(1, n)),
    "log": lambda n: log(NCSeries.unit(n) + NCSeries.letter(0, n) + NCSeries.letter(1, n)),
}


@pytest.mark.parametrize("name", REFUSED)
@pytest.mark.parametrize("n", [19, 20, 30, 10**18])
def test_the_series_entry_points_refuse_past_the_word_budget(name, n):
    start = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        REFUSED[name](n)
    assert time.perf_counter() - start < 0.25
    assert str(refused.value) == f"truncation degree {n} may need over {MAX_LYNDON_WORDS} words"


def _alternating(d: int):
    # the right-nested tree [A,[B,[A,...]]] of degree d, whose letter counts are as even as can be
    tree = (d - 1) % 2
    for x in range(d - 2, -1, -1):
        tree = (x % 2, tree)
    return tree


def _balanced(d: int):
    # the Lyndon word A^(d//2) B^(d - d//2)
    return (0,) * (d // 2) + (1,) * (d - d // 2)


# a bracket tree of degree d with letter counts c_x expands to at most min(2^(d-1), d!/prod c_x!)
# words: over two letters, as even as can be, 705,432 at degree 22 and 1,352,078 at 23, from
# where each is refused before any word is listed
REFUSED_TREES = {
    "expand": lambda d: expand(_alternating(d), d),
    "expand of a bracketing": lambda d: expand(bracketing(_balanced(d)), d),
    "LieDecomposition.reconstruct": lambda d: LieDecomposition(d, {_balanced(d): 1}).reconstruct(d),
}


@pytest.mark.parametrize("name", REFUSED_TREES)
@pytest.mark.parametrize("d", [23, 24, 26, 30])
def test_the_bracket_expansions_refuse_past_the_word_budget(name, d):
    start = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        REFUSED_TREES[name](d)
    assert time.perf_counter() - start < 0.25
    message = f"bracket tree of degree {d} may need over {MAX_LYNDON_WORDS} words"
    assert str(refused.value) == message


def test_the_word_budget_takes_the_even_tree_of_degree_22_and_a_bracketing_of_30_words():
    assert _check_tree(foliage(_alternating(22))) is None  # 705,432 words at most
    word = (0,) * 29 + (1,)  # ad_A^29 B: the 30 words A^i B A^(29-i)
    assert len(expand(bracketing(word), 30).terms) == 30
    assert len(LieDecomposition(30, {word: 1}).reconstruct(30).terms) == 30


# the Lyndon listings count their words first, by lyndon_count: over two letters 766,150 through
# degree 23, and 1,465,020 through 24, from where each is refused before any word is listed
REFUSED_LISTINGS = {
    "lyndon_words": lambda n: lyndon_words(2, n),
    "lyndon_words_of_degree": lambda n: lyndon_words_of_degree(2, n),
}


@pytest.mark.parametrize("name", REFUSED_LISTINGS)
@pytest.mark.parametrize("n", [24, 30, 10**18])
def test_the_lyndon_listings_refuse_past_the_word_budget(name, n):
    start = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        REFUSED_LISTINGS[name](n)
    assert time.perf_counter() - start < 0.25
    assert str(refused.value) == f"max degree {n} may need over {MAX_LYNDON_WORDS} Lyndon words"


def test_the_word_budget_takes_truncation_18():
    assert _truncation(18) == 18  # 524,287 words; 19 lists 1,048,575


def test_exp_and_log_count_the_words_of_their_argument_s_powers():
    # the smaller of sum k^n, k the letters, and the concatenations of the argument's words
    pair = NCSeries.letter(0, 18) + NCSeries.letter(1, 18)
    assert _check_words(pair) is None  # 524,287 words over A and B; 19 lists 1,048,575
    assert _check_words(NCSeries.letter(0, 999_999)) is None  # A^n for n <= N: 1,000,000 words
    with pytest.raises(ValueError, match="^truncation degree 1000000 may need over 1000000 words$"):
        exp(NCSeries.letter(0, 10**6))
    fibonacci = {(0, 1): 1, (1,): 1}  # AB and B: c[n] = c[n-1] + c[n-2], 832,039 words to 27
    assert _check_words(NCSeries(27, 2, fibonacci)) is None
    with pytest.raises(ValueError, match="^truncation degree 28 may need over 1000000 words$"):
        exp(NCSeries(28, 2, fibonacci))
    assert len(exp(NCSeries(30, 2, {(0, 1): 1})).terms) == 16  # (AB)^j, j <= 15
    assert len(log(NCSeries(30, 2, {(): 1, (0, 1): 1})).terms) == 15
