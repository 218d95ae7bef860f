"""Lyndon words and the Lyndon basis of the free Lie algebra.

Provides Duval's enumeration of Lyndon words, the standard right
factorization (longest proper Lyndon suffix), the nested-commutator
bracketing it induces, expansion of bracket trees into word series, and the
decomposition of homogeneous Lie elements in the Lyndon basis.

The decomposition exploits that the expansion of a Lyndon bracketing has its
own word as the lexicographically smallest word, with coefficient 1, so
reading coefficients off in lexicographic word order solves a triangular
system.  The solve leaves a nonzero remainder exactly when the input is
not a Lie element; only then is the Dynkin-Specht-Wever projection
(right-nested bracketing divided by the degree), which leaves Lie elements
untouched, built to report the complement as NotALieElement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .poly import Poly
from .series import DegreeBeyondTruncation, NCSeries, Word, word_str

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
    """Split a Lyndon word w = u·v with v the longest proper Lyndon suffix.

    Both factors are again Lyndon and u < v, so the split can be recursed to
    build the standard bracketing.
    """
    word = tuple(word)
    if len(word) == 1:
        raise SingleLetter(f"cannot factor the single-letter word {word_str(word)}")
    if not is_lyndon(word):
        raise ValueError(f"{word_str(word)} is not a Lyndon word")
    for cut in range(1, len(word)):
        if is_lyndon(word[cut:]):
            return word[:cut], word[cut:]
    raise AssertionError("unreachable: every Lyndon word ends in a Lyndon suffix")


def bracketing(word: Word) -> BracketTree:
    """Standard bracketing of a Lyndon word, e.g. AAB -> [A, [A, B]]."""
    word = tuple(word)
    if not word:
        raise ValueError("cannot bracket the empty word")
    if len(word) == 1:
        return word[0]
    left, right = standard_factorization(word)
    return (bracketing(left), bracketing(right))


def right_nested_bracketing(word: Word) -> BracketTree:
    """Right-to-left nesting of an arbitrary word: ABC -> [A, [B, C]]."""
    word = tuple(word)
    if not word:
        raise ValueError("cannot bracket the empty word")
    tree: BracketTree = word[-1]
    for letter in reversed(word[:-1]):
        tree = (letter, tree)
    return tree


def foliage(tree: BracketTree) -> Word:
    """Left-to-right leaf sequence of a bracket tree."""
    if isinstance(tree, int):
        return (tree,)
    left, right = tree
    return foliage(left) + foliage(right)


def tree_degree(tree: BracketTree) -> int:
    return len(foliage(tree))


def bracket_str(tree: BracketTree) -> str:
    if isinstance(tree, int):
        return word_str((tree,))
    left, right = tree
    return f"[{bracket_str(left)},{bracket_str(right)}]"


def expand(tree: BracketTree, truncation: int, alphabet_size: int = 2) -> NCSeries:
    """Expand nested commutators into a homogeneous word series, [x,y] = xy - yx."""
    if tree_degree(tree) > truncation:
        raise DegreeBeyondTruncation(
            f"bracket tree of degree {tree_degree(tree)} exceeds truncation {truncation}"
        )
    if isinstance(tree, int):
        return NCSeries.letter(tree, truncation, alphabet_size)
    left, right = tree
    ls = expand(left, truncation, alphabet_size)
    rs = expand(right, truncation, alphabet_size)
    return ls * rs - rs * ls


@dataclass(frozen=True)
class LieDecomposition:
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


def lie_decompose(f: NCSeries, degree: int) -> LieDecomposition:
    """Write a homogeneous degree-q series as a Lyndon-basis combination.

    Processes Lyndon words of degree q in lexicographic order, reading off
    the coefficient at the leading word and subtracting that basis expansion
    (back-substitution through the triangular system).  Raises
    NotALieElement, carrying the non-Lie residual, when the input is outside
    the free Lie algebra; for degree 2 the word AB alone leaves the
    symmetric residual (AB + BA)/2.
    """
    if degree < 1:
        raise ValueError("decomposition degree must be >= 1")
    if any(len(w) != degree for w in f.terms):
        raise ValueError(f"input is not homogeneous of degree {degree}")

    work = f
    coefficients: dict[Word, Poly] = {}
    for word in lyndon_words_of_degree(f.alphabet_size, degree):
        coeff = work.coefficient(word)
        if coeff.is_zero:
            continue
        coefficients[word] = coeff
        work = work - expand(bracketing(word), f.truncation, f.alphabet_size).scale(coeff)
    if not work.is_zero():
        # the solve clears exactly the Lie elements.  The Dynkin projection
        # theta(w)/q, theta the right-nested bracketing, fixes Lie elements
        # of degree q and annihilates a complement: report that complement.
        lie_part = NCSeries.zero(f.truncation, f.alphabet_size)
        for word, coeff in f.terms.items():
            bracket = right_nested_bracketing(word)
            lie_part = lie_part + expand(bracket, f.truncation, f.alphabet_size).scale(coeff)
        raise NotALieElement(f - lie_part.scale(Fraction(1, degree)))
    return LieDecomposition(degree, coefficients)
