"""Words, Lyndon words and the word tables of the order-condition recurrence.

Provides the word helpers of the package (a word is a tuple of letter indices, 0 -> A, 1 -> B,
...), Duval's enumeration of Lyndon words, the standard right factorization (smallest proper
suffix), the nested-commutator bracketing it induces, the Lyndon-basis coordinates as
LieDecomposition, and the word tables through a degree that the order-condition recurrence reads:
the words are numbered once, longest first, and every table is rows of slots, so the recurrence
indexes lists.  Expanding a bracket tree into a series, and lie_decompose, live in the series
layer, splitcond.series, which the engine never loads.

A Lyndon bracketing expands to its own word once plus larger words of its letters only (Reutenauer,
Free Lie Algebras, 1993), so a unitriangular solve reads the coordinates of a Lie element: the
tables' per degree, in blocks of one letter content, as rows a product kernel runs in place, at the
degrees where two Lyndon words share their letters, expanding a bracket only where a row reads it,
for that read alone and kept below its top degree.  Every bracket is one commutator of term maps
over words packed into ints.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Union

from .poly import Poly, _whole

if TYPE_CHECKING:
    from .series import NCSeries

Word = tuple[int, ...]

_LETTER_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# A bracket tree: a letter index at the leaves, or a commutator [left, right].
BracketTree = Union[int, tuple["BracketTree", "BracketTree"]]
# the Lyndon words a word table or the CLI's listing may hold, the words splitting_product and
# exp_of_sum may list, and those a bracket tree may expand to
MAX_LYNDON_WORDS = 10**6


class SingleLetter(ValueError):
    """Single-letter words have no standard factorization."""


def add_terms(left: Mapping, right: Mapping) -> dict:
    """Term map of left + right, dropping the terms that cancel."""
    out = dict(left)
    for key, value in right.items():
        if key in out:
            value = out.pop(key) + value
        if value:
            out[key] = value
    return out


def _is_letter(x, alphabet_size: int | None = None) -> bool:
    """The one letter rule: an int but not a bool, inside the alphabet where one is known."""
    return (isinstance(x, int) and not isinstance(x, bool)
            and (alphabet_size is None or 0 <= x < alphabet_size))


def _word(word, alphabet_size: int | None = None) -> Word:
    """The word as a tuple of letters by the one letter rule; ValueError naming it otherwise."""
    word = tuple(word)
    if all(_is_letter(i, alphabet_size) for i in word):
        return word
    if alphabet_size is None:
        raise ValueError(f"not a word of letter indices: {word!r}")
    raise ValueError(f"word {word!r} uses letters outside the alphabet")


def word_str(word: Word) -> str:
    """Render a word as a letter string, e.g. (0, 0, 1) -> "AAB"; letters are 0-25."""
    if not word:
        return "1"
    if bad := [i for i in word if not _is_letter(i, len(_LETTER_NAMES))]:
        raise ValueError(f"letter index {bad[0]!r} outside 0-25")
    return "".join(_LETTER_NAMES[i] for i in word)


def is_lyndon(word: Word) -> bool:
    """Brute-force test: strictly smaller than every proper cyclic rotation."""
    return _is_lyndon(_word(word))


def _is_lyndon(word: Word) -> bool:
    # is_lyndon on a word whose letters are checked
    n = len(word)
    if n == 0:
        return False
    doubled = word + word
    return all(word < doubled[i : i + n] for i in range(1, n))


def _lyndon_key(key: int, bits: int) -> bool:
    # _is_lyndon on a word packed at bits a letter: below every proper rotation of its letters
    n = key.bit_length() - 1
    body, mask = key ^ 1 << n, (1 << n) - 1
    return all(body < (body << i | body >> n - i) & mask for i in range(bits, n, bits))


def lyndon_count(alphabet_size: int, max_degree: int) -> int:
    """The number of Lyndon words of length <= max_degree over k letters, listing none: each
    L(n) by Witt's identity sum_{d | n} d L(d) = k^n (Reutenauer, Free Lie Algebras, 1993), summed
    until past MAX_LYNDON_WORDS (over one letter, to n = 1): a huge max_degree costs a few terms."""
    counts = [0]  # counts[n] = L(n)
    for n in range(1, max_degree + 1):
        rest = sum(d * counts[d] for d in range(1, n) if n % d == 0)
        counts.append((alphabet_size**n - rest) // n)
        if sum(counts) > MAX_LYNDON_WORDS or alphabet_size == 1:
            break
    return sum(counts)


def lyndon_words(alphabet_size: int, max_degree: int) -> list[Word]:
    """All Lyndon words of length <= max_degree, in lexicographic order (Duval), counted first:
    ValueError, listing none, past MAX_LYNDON_WORDS (over two letters, from degree 24 on)."""
    if (alphabet_size := _whole(alphabet_size, "alphabet size")) < 1:
        raise ValueError("alphabet size must be >= 1")
    if (max_degree := _whole(max_degree, "max degree")) < 1:
        raise ValueError("max degree must be >= 1")
    if lyndon_count(alphabet_size, max_degree) > MAX_LYNDON_WORDS:
        raise ValueError(f"max degree {max_degree} may need over {MAX_LYNDON_WORDS} Lyndon words")
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
    word = _word(word)
    if len(word) == 1:
        raise SingleLetter(f"cannot factor the single-letter word {word_str(word)}")
    if not _is_lyndon(word):
        raise ValueError(f"{word_str(word)} is not a Lyndon word")
    return _factor(word)


def _factor(word: Word) -> tuple[Word, Word]:
    # the standard factorization of a Lyndon word of two letters or more, checked by the caller
    cut = min(range(1, len(word)), key=lambda i: word[i:])
    return word[:cut], word[cut:]


def bracketing(word: Word) -> BracketTree:
    """Standard bracketing of a Lyndon word, e.g. AAB -> [A, [A, B]]."""
    if not (word := _word(word)):
        raise ValueError("cannot bracket the empty word")
    if len(word) == 1:
        return word[0]
    return tuple(map(_bracketing, standard_factorization(word)))


def _bracketing(word: Word) -> BracketTree:
    # the standard bracketing of a Lyndon word whose letters and order are checked
    return word[0] if len(word) == 1 else tuple(map(_bracketing, _factor(word)))


def foliage(tree: BracketTree) -> Word:
    """Left-to-right leaf sequence of a bracket tree."""
    if _is_letter(tree):
        return (tree,)
    left, right = _node(tree)
    return foliage(left) + foliage(right)


def _node(tree) -> tuple:
    if isinstance(tree, tuple) and len(tree) == 2:  # else neither a leaf nor a node
        return tree
    raise ValueError(f"not a bracket tree: {tree!r}; a leaf is an int and a node is a pair")


def bracket_str(tree: BracketTree) -> str:
    if _is_letter(tree):
        return word_str((tree,))
    left, right = _node(tree)
    return f"[{bracket_str(left)},{bracket_str(right)}]"


def _pack(word, bits: int) -> int:
    # the word's letters, each below 2^bits, bits apiece behind a sentinel 1: words of one length
    # order as their keys do, and u·v is (u - 1 << |v|) + v, |v| the bits behind v's sentinel
    key = 1
    for x in word:
        key = key << bits | x
    return key


def _unpack(key: int, bits: int) -> Word:
    mask = (1 << bits) - 1
    return tuple(key >> i & mask for i in range(key.bit_length() - 1 - bits, -1, -bits))


def _bits(letters: int) -> int:
    # the bits a packed letter takes over so many letters, one at least
    return max(1, (letters - 1).bit_length())


def _commutator(left: dict, right: dict) -> dict:
    # [x, y] = xy - yx over homogeneous term maps {packed word: coefficient}, dropping what cancels
    m, n = (next(iter(x), 1).bit_length() - 1 for x in (left, right))  # an empty map pairs none
    pairs = [(u, v, cu * cv) for u, cu in left.items() for v, cv in right.items()]
    return add_terms({(u - 1 << n) + v: c for u, v, c in pairs},
                     {(v - 1 << m) + u: -c for u, v, c in pairs})


def _bracket(memo: dict, w: Word, top: int, bits: int) -> dict[int, int]:
    # E_w, the standard bracketing of the Lyndon word w expanded over ints from its factors', its
    # words packed at bits a letter, kept in its call's memo below degree top, the largest the call
    # reads, which is no factor's
    if (e := memo.get(w)) is None:
        e = ({1 << bits | w[0]: 1} if len(w) == 1
             else _commutator(*(_bracket(memo, u, top, bits) for u in _factor(w))))
        if len(w) < top:
            memo[w] = e
    return e


class LieDecomposition(NamedTuple):
    """Coefficients of a homogeneous Lie element over the Lyndon basis."""

    degree: int
    coefficients: dict[Word, Poly]

    def coefficient(self, word: Word) -> Poly:
        return self.coefficients.get(_word(word), Poly())

    def reconstruct(self, truncation: int, alphabet_size: int = 2) -> NCSeries:
        """Sum of coefficient * expanded bracketing over the basis words; ValueError, listing no
        word, where one bracketing may pass the word budget, as expand refuses."""
        from .series import NCSeries, _check_tree, expand  # the series layer loads on first use

        total = NCSeries.zero(truncation, alphabet_size)
        for word in self.coefficients:
            _check_tree(_word(word))
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
    # per first letter X, rows (w, |w|, [(C(|w|, j), v)]) of the numbered suffix-closed
    # words' slots at w = X^j v, the j-th run, j <= the leading run of X: in divided powers,
    # (e^{cX} G)[w] less G[w]
    words, steps = list(slot), {}
    tail = [slot[w[1:]] for w in words[:-1]]  # the slot of each word less its first letter
    for i, w in enumerate(words[:-1]):
        n, j, v, rows = len(w), 0, i, []
        while j < n and w[j] == w[0]:
            j, v = j + 1, tail[v]
            rows.append((math.comb(n, j), v))
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
    """Scheme-independent tables through degree p, each built on its first use; ValueError,
    before any word is listed, over MAX_LYNDON_WORDS Lyndon words, every entry point's budget.

    The Lyndon words' suffixes are numbered once, longest first, () last (suffixes maps each
    to its slot, lyndon[q] degree q's Lyndon words, in order), and so are their factors; a
    table is rows (w, |w|, runs) of slots, so the recurrence's accumulators are lists: a
    product's runs (c, v), the j-th for n^j, the log's splits (c, u, v).  The read's rows per
    degree are built on first use from brackets over packed words, and kept, [] where none.
    """

    def __init__(self, p: int, alphabet_size: int):
        if lyndon_count(alphabet_size, p) > MAX_LYNDON_WORDS:
            raise ValueError(f"order {p} may need over {MAX_LYNDON_WORDS} Lyndon words")
        words = lyndon_words(alphabet_size, p)
        self.suffixes = _numbered({w[i:] for w in words for i in range(len(w) + 1)})
        self.lyndon = [{w: self.suffixes[w] for w in words if len(w) == q} for q in range(p + 1)]
        self._reads = {}

    # the product on the suffixes or their factors, and the int log's splits of the suffixes
    suffix_steps = functools.cached_property(lambda self: _product_steps(self.suffixes))
    factors = functools.cached_property(
        lambda self: _numbered({v[:i] for v in self.suffixes for i in range(len(v) + 1)})
    )
    factor_steps = functools.cached_property(lambda self: _product_steps(self.factors))
    log_steps = functools.cached_property(lambda self: _splits(self.suffixes, self.factors))

    def read_steps(self, q: int, memo: dict, top: int) -> list:
        # nonempty rows (w, q, [(-E_l[w], l)]) of degree q's Lyndon slots, lexicographic, l < w
        # Lyndon of w's letters (E_l holds no other word), run by the unit factor: c_w -= E_l[w] c_l
        if q not in self._reads:
            blocks, runs = {}, {i: [] for i in self.lyndon[q].values()}  # (w, key, slot)s
            bits = _bits(len(self.lyndon[1]))  # by letter content, keys packed as _bracket's
            for w, i in self.lyndon[q].items():
                blocks.setdefault(tuple(sorted(w)), []).append((w, _pack(w, bits), i))
            for block in blocks.values():
                for k, (l, _, i) in enumerate(block[:-1]):
                    e = _bracket(memo, l, top, bits)
                    for _, w, j in block[k + 1 :]:
                        if c := e.get(w):
                            runs[j].append((-c, i))
            self._reads[q] = [(i, q, r) for i, r in runs.items() if r]
        return self._reads[q]

    def read(self, product, unit, acc, degrees) -> None:
        # the Lyndon read: acc's Lyndon slots to coordinates, in place by the product kernel and its
        # ring's unit factor, at the degrees whose values do not all vanish and whose rows, if
        # built, are not none, listed first (the rest unbuilt), since rows never cross a degree;
        # one bracket memo serves this read alone.  A degree whose blocks of one letter content
        # are all single words (over two letters, through degree 4) builds [] and expands nothing
        reads = self._reads
        read = [q for q in degrees
                if reads.get(q, True) and any(map(acc.__getitem__, self.lyndon[q].values()))]
        memo = {}
        for q in read:
            product(acc, [(0, unit)], {0: self.read_steps(q, memo, read[-1])})
