"""Lyndon words and the Lyndon basis of the free Lie algebra.

Provides Duval's enumeration of Lyndon words, the standard right
factorization (smallest proper suffix), the nested-commutator bracketing it
induces, expansion of bracket trees into word series, the Lyndon-basis
coordinates of homogeneous Lie elements, and the word tables through a degree
that the order-condition recurrence reads: the words are numbered once, longest
first, and every table is rows of slots, so the recurrence indexes lists.

A Lyndon bracketing expands to its own word, with coefficient 1, plus larger
words only (Reutenauer, Free Lie Algebras, 1993), so a unitriangular solve at
the Lyndon words, per degree one table of rows that a sweep kernel runs in place,
reads the coordinates of a Lie element.  lie_decompose first checks membership
by the Dynkin-Specht-Wever projection and reports the complement it annihilates.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from .poly import _ZERO, Poly, _int_sweep
from .series import DegreeBeyondTruncation, NCSeries, Word, add_terms, word_str

# A bracket tree: a letter index at the leaves, or a commutator [left, right].
BracketTree = Union[int, tuple["BracketTree", "BracketTree"]]


class SingleLetter(ValueError):
    """Single-letter words have no standard factorization."""


class NotALieElement(ValueError):
    """Input series is not in the free Lie algebra; carries the residual."""

    def __init__(self, residual: NCSeries):
        super().__init__(f"not a Lie element, residual {residual}")
        self.residual = residual


def is_lyndon(word: Word) -> bool:
    """Brute-force test: strictly smaller than every proper cyclic rotation."""
    n = len(word)
    if n == 0:
        return False
    doubled = word + word
    return all(word < doubled[i : i + n] for i in range(1, n))


def lyndon_words(alphabet_size: int, max_degree: int) -> list[Word]:
    """All Lyndon words of length <= max_degree, in lexicographic order (Duval)."""
    if alphabet_size < 1:
        raise ValueError("alphabet size must be >= 1")
    if max_degree < 1:
        raise ValueError("max degree must be >= 1")
    if alphabet_size == 1:
        max_degree = 1  # A is the one Lyndon word over one letter
    out: list[Word] = []
    w = [-1]
    while w:
        w[-1] += 1
        out.append(tuple(w))
        m = len(w)
        while len(w) < max_degree:
            w.append(w[len(w) - m])
        while w and w[-1] == alphabet_size - 1:
            w.pop()
    return out


def lyndon_words_of_degree(alphabet_size: int, degree: int) -> list[Word]:
    """Lyndon words of one exact length, in lexicographic order."""
    return [w for w in lyndon_words(alphabet_size, degree) if len(w) == degree]


def standard_factorization(word: Word) -> tuple[Word, Word]:
    """Split a Lyndon word w = u·v, v the smallest (and longest Lyndon) proper suffix.

    Both factors are again Lyndon and u < v, so the split can be recursed to
    build the standard bracketing.
    """
    word = tuple(word)
    if len(word) == 1:
        raise SingleLetter(f"cannot factor the single-letter word {word_str(word)}")
    if not is_lyndon(word):
        raise ValueError(f"{word_str(word)} is not a Lyndon word")
    cut = min(range(1, len(word)), key=lambda i: word[i:])
    return word[:cut], word[cut:]


def bracketing(word: Word) -> BracketTree:
    """Standard bracketing of a Lyndon word, e.g. AAB -> [A, [A, B]]."""
    word = tuple(word)
    if not word:
        raise ValueError("cannot bracket the empty word")
    if len(word) == 1:
        return word[0]
    left, right = standard_factorization(word)
    return (bracketing(left), bracketing(right))


def foliage(tree: BracketTree) -> Word:
    """Left-to-right leaf sequence of a bracket tree."""
    if isinstance(tree, int):
        return (tree,)
    left, right = tree
    return foliage(left) + foliage(right)


def bracket_str(tree: BracketTree) -> str:
    if isinstance(tree, int):
        return word_str((tree,))
    left, right = tree
    return f"[{bracket_str(left)},{bracket_str(right)}]"


def expand(tree: BracketTree, truncation: int, alphabet_size: int = 2) -> NCSeries:
    """Expand nested commutators into a homogeneous word series, [x,y] = xy - yx."""
    if len(foliage(tree)) > truncation:
        raise DegreeBeyondTruncation(
            f"bracket tree of degree {len(foliage(tree))} exceeds truncation {truncation}"
        )
    if isinstance(tree, int):
        return NCSeries.letter(tree, truncation, alphabet_size)
    left, right = tree
    ls = expand(left, truncation, alphabet_size)
    rs = expand(right, truncation, alphabet_size)
    return ls * rs - rs * ls


class LieDecomposition(NamedTuple):
    """Coefficients of a homogeneous Lie element over the Lyndon basis."""

    degree: int
    coefficients: dict[Word, Poly]

    def coefficient(self, word: Word) -> Poly:
        return self.coefficients.get(tuple(word), Poly())

    def reconstruct(self, truncation: int, alphabet_size: int = 2) -> NCSeries:
        """Sum of coefficient * expanded bracketing over the basis words."""
        total = NCSeries.zero(truncation, alphabet_size)
        for word, coeff in self.coefficients.items():
            total = total + expand(bracketing(word), truncation, alphabet_size).scale(coeff)
        return total

    def items(self) -> Iterator[tuple[Word, Poly]]:
        return iter(sorted(self.coefficients.items()))

    def __str__(self) -> str:
        parts = [f"{word_str(w)}: {c}" for w, c in self.items()]
        return "{" + ", ".join(parts) + "}"


def _numbered(words) -> dict[Word, int]:
    # each word to its slot, longest first so () is last: the map lists them in slot order
    return {w: i for i, w in enumerate(sorted(words, key=len, reverse=True))}


def _product_steps(slot: dict[Word, int]) -> dict[int, list]:
    # per first letter X, rows (w, |w|, [(C(|w|, j), j, v)]) of the numbered suffix-closed
    # words' slots at w = X^j v, j <= the leading run of X: in divided powers, (e^{cX} G)[w]
    # less G[w]
    words, steps = list(slot), {}
    tail = [slot[w[1:]] for w in words[:-1]]  # the slot of each word less its first letter
    for i, w in enumerate(words[:-1]):
        n, j, v, rows = len(w), 0, i, []
        while j < n and w[j] == w[0]:
            j, v = j + 1, tail[v]
            rows.append((math.comb(n, j), j, v))
        steps.setdefault(w[0], []).append((i, n, rows))
    return steps


def _splits(slot: dict[Word, int], factor: dict[Word, int]) -> list:
    # rows (w, |w|, [(C(|w|, i), u, v)]) of the numbered words' slots at every split w = uv,
    # u != (), u a slot of the numbered factors
    words, rows = list(slot), []
    tail = [slot[w[1:]] for w in words[:-1]]
    for i, w in enumerate(words[:-1]):
        n, v, runs = len(w), i, []
        for j in range(1, n + 1):
            v = tail[v]
            runs.append((math.comb(n, j), factor[w[:j]], v))
        rows.append((i, n, runs))
    return rows


# one instance per (p, alphabet size); a process works at a few degrees only
@functools.lru_cache(maxsize=16)
class _Tables:
    """Scheme-independent tables through degree p, each built on its first use.

    The Lyndon words' suffixes are numbered once, longest first, () last (suffixes maps each
    to its slot), and so are their factors, for the int path's expanded product; a table is
    rows (w, |w|, [(c, j or u, v)]) of slots, so the recurrence's accumulators are lists.
    """

    def __init__(self, p: int, alphabet_size: int):
        words = lyndon_words(alphabet_size, p)
        self.lyndon = [[w for w in words if len(w) == q] for q in range(p + 1)]  # by degree
        self.suffixes = _numbered({w[i:] for w in words for i in range(len(w) + 1)})
        self.lyndon_slots = [[self.suffixes[w] for w in ws] for ws in self.lyndon]
        self.last = frozenset(map(self.suffixes.get, words))  # what the log's last pass forms
        self._brackets, self._reads = {(x,): {(x,): 1} for x in range(alphabet_size)}, {}

    # the product on the suffixes or their factors, the int log's splits, and those splits
    # and the systems' sweep by e^{a_1 A} at the Lyndon words: all the log's last pass forms
    suffix_steps = functools.cached_property(lambda self: _product_steps(self.suffixes))
    factors = functools.cached_property(
        lambda self: _numbered({v[:i] for v in self.suffixes for i in range(len(v) + 1)})
    )
    factor_steps = functools.cached_property(lambda self: _product_steps(self.factors))
    log_steps = functools.cached_property(lambda self: _splits(self.suffixes, self.factors))
    last_log_steps = functools.cached_property(
        lambda self: [row for row in self.log_steps if row[0] in self.last])
    last_stage_steps = functools.cached_property(
        lambda self: [row for row in self.suffix_steps[0] if row[0] in self.last])

    def bracket(self, w: Word) -> dict[Word, int]:
        # E_w, the standard bracketing of the Lyndon word w expanded over ints
        if w not in self._brackets:
            left, right = map(self.bracket, standard_factorization(w))
            pairs = [(u, v, cu * cv) for u, cu in left.items() for v, cv in right.items()]
            terms = {u + v: c for u, v, c in pairs}, {v + u: -c for u, v, c in pairs}
            self._brackets[w] = add_terms(*terms)
        return self._brackets[w]

    def read_steps(self, q: int) -> list:
        # rows (w, q, [(-E_l[w], 0, l)]) at degree q's Lyndon slots in lexicographic order,
        # l < w Lyndon: swept in place with factor 0 the unit, c_w = f[w] - sum E_l[w] c_l
        if q not in self._reads:
            rows, kin = [], {}  # E_l holds l once and larger words of l's letters only
            for w, i in zip(self.lyndon[q], self.lyndon_slots[q]):
                earlier = kin.setdefault(tuple(sorted(w)), [])  # (E_l, l) so far, w's letters
                rows.append((i, q, [(-e[w], 0, l) for e, l in earlier if w in e]))
                earlier.append((self.bracket(w), i))
            self._reads[q] = rows
        return self._reads[q]


def _dynkin(terms: dict[Word, Poly], degree: int) -> dict[Word, Poly]:
    # theta, the right-nested bracketing, by left quotients of a homogeneous
    # term map: theta(a) = a and theta(a·u) = a·theta(u) - theta(u)·a
    if degree == 1:
        return terms
    out: dict[Word, Poly] = {}
    for a in {w[0] for w in terms}:
        theta = _dynkin({w[1:]: c for w, c in terms.items() if w[0] == a}, degree - 1)
        out = add_terms(out, {(a,) + u: c for u, c in theta.items()})
        out = add_terms(out, {u + (a,): -c for u, c in theta.items()})
    return out


def lie_decompose(f: NCSeries, degree: int) -> LieDecomposition:
    """Write a homogeneous degree-q series as a Lyndon-basis combination.

    The Dynkin-Specht-Wever projection theta(f)/q, theta the right-nested
    bracketing, fixes the Lie elements of degree q and annihilates a
    complement.  Raises NotALieElement, carrying the residual f - theta(f)/q,
    when that residual is nonzero; for degree 2 the word AB alone leaves the
    symmetric residual (AB + BA)/2.  Otherwise reads the coordinates by the
    triangular solve over the Lyndon words of degree q, _Tables.read_steps.
    """
    if degree < 1:
        raise ValueError("decomposition degree must be >= 1")
    if any(len(w) != degree for w in f.terms):
        raise ValueError(f"input is not homogeneous of degree {degree}")
    if degree > f.truncation:
        raise DegreeBeyondTruncation(f"degree {degree} exceeds truncation degree {f.truncation}")
    lie_part = NCSeries._of(f.truncation, f.alphabet_size, _dynkin(f.terms, degree))
    residual = f - lie_part.scale(Fraction(1, degree))
    if not residual.is_zero():
        raise NotALieElement(residual)
    tables = _Tables(degree, f.alphabet_size)
    words = dict(zip(tables.lyndon[degree], tables.lyndon_slots[degree]))
    acc = {i: f.terms.get(w, _ZERO) for w, i in words.items()}  # by the unit factor, the int 1
    _int_sweep(acc, [1], tables.read_steps(degree) if any(acc.values()) else ())
    return LieDecomposition(degree, {w: acc[i] for w, i in words.items() if acc[i]})
