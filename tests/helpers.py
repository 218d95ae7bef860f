"""Shared test oracles: independent implementations used to check the library.

Everything here is deliberately written from first principles (brute force,
closed forms, generic numerics) so the tests do not reuse the code paths they
are checking.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import numpy as np

from splitcond import (
    ConcreteScheme,
    ConditionSystem,
    LieDecomposition,
    NCSeries,
    NotALieElement,
    NotOrderP,
    SymbolicScheme,
    bracketing,
    exp,
    log,
    lyndon_words_of_degree,
    verify_scheme,
)
from splitcond.lyndon import _Tables
from splitcond.poly import (
    _ONE, _ZERO, MAX_EXPONENT, Poly, _dot, _int_product, _map_product, sum_of_products
)
from splitcond.series import Word, word_str


# ---------------------------------------------------------------------------
# the recurrence's rings with a dot kernel start + sum c*x*y, which forms the log's
# constants and its "- acc" step, and the log by Horner's scheme that drives one int
# sweep by G or one product call a pass: the reference for poly._int_log and
# poly._map_log, which run every pass in one call


def _int_dot(terms: list[tuple[int, int, int]], start: int = 0) -> int:
    for c, x, y in terms:
        start += c * x * y
    return start


class OracleRing(NamedTuple):
    """A ring with its dot kernel; zero is read as the library's _Ring reads it."""

    one: Any
    dot: Callable
    product: Callable
    unit: Any
    expanded: bool

    @property
    def zero(self):
        return self.dot([])


INTS = OracleRing(1, _int_dot, _int_product, 1, True)
MAPS = OracleRing({0: 1}, _dot, _map_product, 0, False)
# the recurrence's ring over Poly values, kernels by Poly arithmetic: the oracle the
# library's int and integer-map rings are checked against
POLYS = OracleRing(_ONE, sum_of_products, _int_product, 1, False)


def _int_sweep(acc: list, f, rows: list, top: int) -> None:
    # acc[w] <- sum c f[x] acc[v] at each row (w, |w|, [(c, x, v)]) with |w| <= top, over ints:
    # the int log's pass by G, from zero; rows longest first read the old acc[v]
    for w, n, runs in rows:
        if n <= top:
            total = 0
            for c, x, v in runs:
                total += c * f[x] * acc[v]
            acc[w] = total


def _divided_log(ring, times: Callable, last, size: int, p: int) -> tuple:
    # L |w|! D^|w| log(F)[w], L = lcm(1..p), at size suffix-closed slots, () last: Horner's scheme
    # acc <- c_k + F acc - acc, c_k = L (-1)^(k+1) / k, at |w| <= p - k, times(acc, p - k) forming
    # F acc in place (F acc - acc if expanded, subtracting nothing; else the last pass at last only)
    one, dot, _, _, expanded = ring
    big, acc = math.lcm(*range(1, p + 1)), [dot([])] * size
    for k in range(p, -1, -1):
        old = acc[:]
        times(acc, p - k)
        for w in () if expanded else range(size - 1) if k else last:  # less acc, but at ()
            if old[w]:
                acc[w] = dot([(-1, one, old[w])], acc[w])
        acc[-1] = dot([((-1) ** (k + 1) * big // k, one, one)] if k else [])
    return big, acc


def int_log_by_sweeps(acc: list, g: list, rows: list, p: int) -> int:
    """poly._int_log's contract by the old log: a sweep by G a pass, from zero, into acc."""
    times = lambda acc, top: _int_sweep(acc, g, rows, top)
    big, acc[:] = _divided_log(INTS, times, (), len(acc), p)
    return big


def stage_log(ring: OracleRing) -> Callable:
    """poly._map_log's contract by the old log over ring, F acc by ring.product on the rows
    each pass keeps, into acc."""

    def log(acc: list, factors: list, steps: dict, last, p: int) -> int:
        times = lambda acc, top: ring.product(acc, factors, rows_to(steps, top))
        big, acc[:] = _divided_log(ring, times, last, len(acc), p)
        return big

    return log


def symbol_point(stages: int) -> list[Poly]:
    """The symbols in canonical index order a1, b1, a2, b2, ... as Poly values."""
    return [Poly.symbol(kind, j) for j in range(1, stages + 1) for kind in "ab"]


# ---------------------------------------------------------------------------
# randomized exact inputs


def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_poly(rng: random.Random, stages: int = 4, degree: int = 4, terms: int = 4) -> Poly:
    """Random sparse polynomial in a1..as, b1..bs with small rational coefficients."""
    total = Poly()
    for _ in range(rng.randint(0, terms)):
        factor = Poly.const(random_fraction(rng))
        for _ in range(rng.randint(0, degree)):
            kind = rng.choice(("a", "b"))
            stage = rng.randint(1, stages)
            factor = factor * Poly.symbol(kind, stage)
        total = total + factor
    return total


def random_series(
    rng: random.Random,
    truncation: int,
    alphabet_size: int = 2,
    zero_constant: bool = True,
    symbolic: bool = False,
    density: float = 0.6,
) -> NCSeries:
    """Random truncated series; coefficients are rationals or small polynomials."""
    terms = {}
    words: list[tuple[int, ...]] = [()]
    for _ in range(truncation):
        words = [w + (letter,) for w in words for letter in range(alphabet_size)]
        for w in words:
            if rng.random() < density:
                if symbolic and rng.random() < 0.3:
                    terms[w] = Poly.symbol(rng.choice(("a", "b")), rng.randint(1, 3)) * (
                        random_fraction(rng)
                    )
                else:
                    terms[w] = Poly.const(random_fraction(rng))
    if not zero_constant:
        terms[()] = Poly.const(random_fraction(rng))
    return NCSeries(truncation, alphabet_size, terms)


def first_nonzero_degree(series: NCSeries, start: int = 1) -> int | None:
    for j in range(start, series.truncation + 1):
        if not series.homogeneous_part(j).is_zero():
            return j
    return None


def homogeneous_at_truncation(series: NCSeries, degree: int) -> NCSeries:
    """Degree-q slice of a series, rebuilt at truncation exactly q."""
    picked = {w: c for w, c in series.terms.items() if len(w) == degree}
    return NCSeries(degree, series.alphabet_size, picked)


# ---------------------------------------------------------------------------
# the {monomial: Fraction} ring, one reduced Fraction per term: the reference
# for Poly, which keeps integer numerators over one common denominator


def oracle_add(p: dict, q: dict) -> dict:
    total = dict(p)
    for mono, coeff in q.items():
        total[mono] = total.get(mono, Fraction(0)) + coeff
    return {m: c for m, c in total.items() if c}


def oracle_mul(p: dict, q: dict) -> dict:
    total: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            width = max(len(m1), len(m2))
            padded = [m + (0,) * (width - len(m)) for m in (m1, m2)]
            mono = tuple(x + y for x, y in zip(*padded))
            total[mono] = total.get(mono, Fraction(0)) + c1 * c2
    return {m: c for m, c in total.items() if c}


def oracle_evaluate(p: dict, point) -> Fraction:
    # point: values in symbol-index order a1, b1, a2, b2, ...
    total = Fraction(0)
    for mono, coeff in p.items():
        for index, e in enumerate(mono):
            coeff *= Fraction(point[index]) ** e
        total += coeff
    return total


def oracle_str(p: dict) -> str:
    """A {monomial: Fraction} map as Poly prints it, read symbol by symbol from the tuples.

    Graded lexicographic, highest first: degree, then the exponent tuple; the
    factors of a monomial kind-major, a1*a2*...*b1*b2; the sign pulled out.
    """
    pieces = []
    for mono, coeff in sorted(p.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True):
        order = [*range(0, len(mono), 2), *range(1, len(mono), 2)]
        names = [f"{'ab'[i % 2]}{i // 2 + 1}" + f"^{mono[i]}" * (mono[i] > 1) for i in order]
        body = "*".join(name for name, i in zip(names, order) if mono[i])
        magnitude = abs(coeff)
        text = str(magnitude) if not body else body if magnitude == 1 else f"{magnitude}*{body}"
        pieces.append(("+ " if coeff > 0 else "- ") + text)
    joined = " ".join(pieces) or "+ 0"
    return joined[2:] if joined[0] == "+" else "-" + joined[2:]


def oracle_series_str(f: NCSeries) -> str:
    """An NCSeries as it prints, from its own (sign, body) pieces, the first piece apart.

    Words by (length, word); a single-term coefficient's sign pulled out, a longer
    coefficient parenthesised, a unit coefficient left off; the zero series prints as 0.
    """
    if not f.terms:
        return "0"
    pieces: list[tuple[str, str]] = []
    for word in sorted(f.terms, key=lambda w: (len(w), w)):
        poly, sign = f.terms[word], "+"
        nums = list(poly._nums.values())
        if len(nums) == 1 and nums[0] < 0:
            sign, poly = "-", -poly
        wrapped = str(poly) if len(nums) == 1 else f"({poly})"
        if not word:
            pieces.append((sign, wrapped))
        elif poly == 1:
            pieces.append((sign, word_str(word)))
        else:
            pieces.append((sign, f"{wrapped}*{word_str(word)}"))
    first_sign, first_body = pieces[0]
    text = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# uncapped Horner exp and log: every accumulator is formed through the full
# truncation with plain series products, the reference for the library's
# degree-capped loops


def exp_uncapped(g: NCSeries) -> NCSeries:
    unit = NCSeries.unit(g.truncation, g.alphabet_size)
    result = unit
    for k in range(g.truncation, 0, -1):
        result = unit + (g * result).scale(Fraction(1, k))
    return result


def log_uncapped(f: NCSeries) -> NCSeries:
    unit = NCSeries.unit(f.truncation, f.alphabet_size)
    x = f - unit
    acc = NCSeries.zero(f.truncation, f.alphabet_size)
    for k in range(f.truncation, 0, -1):
        acc = unit.scale(Fraction(1, k)) - (x * acc)
    return x * acc


# ---------------------------------------------------------------------------
# the splitting product as a left-to-right product of series exponentials,
# every word formed: the reference for the library's closed-form factors,
# multiplied right to left at a suffix-closed set of words


def splitting_product_by_exp(scheme: SymbolicScheme, truncation: int) -> NCSeries:
    """The series of e^{a_1 A} e^{b_1 B} ... e^{a_s A} e^{b_s B}."""
    result = NCSeries.unit(truncation)
    for a_j, b_j in zip(scheme.a, scheme.b):
        result = result * exp(NCSeries.letter(0, truncation, coeff=a_j))
        result = result * exp(NCSeries.letter(1, truncation, coeff=b_j))
    return result


# ---------------------------------------------------------------------------
# the recurrence's tables and accumulators keyed by word tuples: the reference
# for the library's tables over numbered slots, and for its lists indexed by slot


def positioned(rows: list) -> list:
    """A product's or the read's rows (w, |w|, [(c, v)]) as (w, |w|, [(c, j, v)]), j the run's
    1-based position, which its n^j reads."""
    return [(w, n, [(c, j, v) for j, (c, v) in enumerate(runs, 1)]) for w, n, runs in rows]


def rows_to(steps: dict, top: int) -> dict:
    """A product's steps at |w| <= top only, the rows a pass of the log runs."""
    return {x: [row for row in rows if row[1] <= top] for x, rows in steps.items()}


def product_steps_by_word(words) -> dict[int, list]:
    """Per first letter X, longest first, (w, [(C(|w|, j), j, v)]) over w = X^j v.

    1 <= j <= the leading run of X: in divided powers, (e^{cX} G)[w] less G[w].
    """
    steps: dict[int, list] = {}
    for w in sorted((w for w in words if w), key=len, reverse=True):
        run = next((j for j, x in enumerate(w) if x != w[0]), len(w))
        rows = [(math.comb(len(w), j), j, w[j:]) for j in range(1, run + 1)]
        steps.setdefault(w[0], []).append((w, rows))
    return steps


def splits_by_word(words) -> list:
    """The nonempty words longest first, each with (C(|w|, i), w[:i], w[i:]), 1 <= i <= |w|."""
    return [(w, [(math.comb(len(w), i), w[:i], w[i:]) for i in range(1, len(w) + 1)])
            for w in sorted(filter(None, words), key=len, reverse=True)]


def rows_by_word(rows, words, factors=None) -> list:
    """Slot rows (w, |w|, [(c, x, v)]) read back as (w, [(c, x, v)]) over word tuples.

    w and v are slots of words, numbered in order; x is a slot of factors when factors
    is given, and is kept as it stands (a power of a ladder) otherwise.  Checks each
    row's length.
    """
    words, factors, out = list(words), factors and list(factors), []
    for w, n, runs in rows:
        assert len(words[w]) == n, (words[w], n)
        out.append((words[w], [(c, x if factors is None else factors[x], words[v])
                               for c, x, v in runs]))
    return out


def sweep_by_dot(dot, lift=lambda x: x):
    """acc[w] <- acc[w] + sum c lift(f[x]) acc[v] at each row (w, |w|, [(c, x, v)]), |w| <= top.

    The per-row loop the sweep kernels replace: one dot call per row, over ints,
    integer maps or Poly, acc a list indexed by slot.  Rows come longest first; with
    zero each row starts from dot([]) instead of acc[w].  lift turns a factor into a
    dot operand, such as a packed monomial m into {m: 1}.
    """

    def sweep(acc, f, rows, top=math.inf, zero=False):
        for w, n, runs in rows:
            if n <= top:
                start = dot([]) if zero else acc[w]
                acc[w] = dot([(c, lift(f[x]), acc[v]) for c, x, v in runs], start)

    return sweep


def monomial_map(mono: int) -> dict[int, int]:
    """The packed monomial mono as the integer map {mono: 1}."""
    return {mono: 1}


# ---------------------------------------------------------------------------
# the stage ladders and the sweep kernels the fused product kernels replace: the
# reference for poly._int_product and poly._map_product


def int_sweep(acc: list, f, rows: list, top: int = MAX_EXPONENT, zero: bool = False) -> None:
    """acc[w] <- acc[w] (0 if zero) + sum c f[x] acc[v] at each row (w, |w|, [(c, x, v)]).

    Over ints or Poly at |w| <= top: rows longest first read the old acc[v], and the
    Lyndon read's rows, in lexicographic order, read solved values.
    """
    for w, n, runs in rows:
        if n <= top:
            total = 0 if zero else acc[w]
            for c, x, v in runs:
                total += c * f[x] * acc[v]
            acc[w] = total


def map_sweep(acc: list, f: list[int], rows: list, top: int = MAX_EXPONENT, zero=False) -> None:
    """acc[w] <- acc[w] ({} if zero) + sum c x^f[j] acc[v] at each row (w, |w|, [(c, j, v)]).

    Over integer maps at |w| <= top, f[j] a packed monomial added to each key; rows in
    int_sweep's orders, and each row gets a new map, so no start is mutated.
    """
    for w, n, runs in rows:
        if n <= top:
            total = {} if zero else dict(acc[w])
            for c, j, v in runs:
                shift = f[j]
                for m, x in acc[v].items():
                    m += shift
                    total[m] = total.get(m, 0) + c * x
            acc[w] = {m: x for m, x in total.items() if x} if 0 in total.values() else total


def ladder_product(sweep, power=pow):
    """The fused product kernels' contract by ladders: one sweep a factor, right to left.

    A factor (X, x) sweeps the rows steps[X], each run at its position j, by its ladder
    [power(x, 0) .. power(x, t)], t the most runs of a row; the int ring's power is pow,
    over ints or Poly, and the map ring's j times the factor's packed unit monomial,
    map_ladder's.
    """

    def product(acc, factors, steps):
        for letter, x in reversed(factors):
            rows = positioned(steps.get(letter, []))
            longest = max((len(runs) for _, _, runs in rows), default=0)
            sweep(acc, [power(x, j) for j in range(longest + 1)], rows)

    return product


def map_ladder(k: int, j: int) -> int:
    """x^j for the symbol x named k >= 1, index k - 1, as a packed monomial; 0 for k = 0."""
    return j << 8 * k >> 8


def divided_product_by_word(ring, a, b, words, lift=lambda x: x) -> dict:
    """G[w] = |w|! D^|w| F[w] on the suffix-closed words, keyed by word.

    Right to left over the nonzero stage ladders [n^0 .. n^top], one call of the
    ring's dot per word and stage, from product_steps_by_word.
    """
    steps = product_steps_by_word(words)
    g = dict.fromkeys(words, ring.dot([]))
    g[()] = ring.one
    ladders = [(x, n) for pair in zip(a, b) for x, n in enumerate(pair) if n[-1]]
    for letter, powers in reversed(ladders):
        for w, runs in steps.get(letter, []):
            g[w] = ring.dot([(c, lift(powers[j]), g[v]) for c, j, v in runs], g[w])
    return g


# ---------------------------------------------------------------------------
# the Lyndon read as a word-keyed back-substitution: the reference for the read's
# slot rows, swept in place by the kernels


def back_substitute_by_word(ring, values, degree: int, alphabet_size: int) -> dict:
    """The nonzero Lyndon coordinates of one degree, keyed by word.

    The solve the read's rows replace, with the ring's unit and dot, over every
    earlier Lyndon word; E_l is the series expansion of l's standard bracketing, so
    no bracket table of the library enters.
    """
    # c_w = f[w] - sum_{l<w} E_l[w] c_l over the Lyndon words of one degree, in lexicographic
    # order, the values f[w] in that order; unchecked: exact for Lie elements
    solved: list[tuple[dict[Word, int], Any]] = []
    out = {}
    for word, value in zip(lyndon_words_of_degree(alphabet_size, degree), values):
        if coeff := ring.dot([(-e[word], c, ring.one) for e, c in solved if word in e], value):
            out[word] = coeff
            terms = expand_by_products(bracketing(word), degree, alphabet_size).terms
            solved.append(({w: int(c.constant()) for w, c in terms.items()}, coeff))
    return out


# ---------------------------------------------------------------------------
# the logarithm of the splitting product by Horner's scheme over the expanded
# product, keyed by word: the reference for the condition systems' log, which
# multiplies by the stages' one-letter exponentials instead, and for the int
# path's log over numbered slots


def divided_log_by_expanded_product(ring, a, b, words, p: int, last, lift=lambda x: x):
    """L |w|! D^|w| log(F)[w] at the words of last, L = lcm(1..p), over the expanded F.

    The logarithm the stage sweeps replace: G = |w|! D^|w| F[w] is formed on every
    factor of the suffix-closed words, then Horner's scheme multiplies by G - 1 at
    every split w = uv, u != (), on the words of length <= p - k; the last pass forms
    only last.  a and b are the stage ladders [n^0 .. n^p], over ints or, lifted to
    integer maps by lift, packed monomials; only the ring's unit and dot are used.
    Returns L and a map keyed by word.
    """
    factors = {w[:i] for w in words for i in range(len(w) + 1)}
    g = divided_product_by_word(ring, a, b, factors, lift)
    big, one, dot = math.lcm(*range(1, p + 1)), ring.one, ring.dot
    acc = dict.fromkeys(words, dot([]))
    for k in range(p, -1, -1):
        for w, splits in splits_by_word(words):
            if len(w) <= p - k and (k or w in last):
                acc[w] = dot([(c, g[u], acc[v]) for c, u, v in splits])
        acc[()] = dot([((-1) ** (k + 1) * big // k, one, one)] if k else [])
    return big, acc


def lyndon_slots(tables) -> list[int]:
    """The slots of a _Tables's Lyndon words, every degree's, in degree then word order."""
    return [i for words in tables.lyndon for i in words.values()]


def divided_log_lyndon_last_pass(ring, sweep, g, tables, p: int) -> list:
    """The expanded-G log whose last pass forms only the Lyndon words' slots.

    Horner's scheme acc <- c_k + (G - 1) acc, each pass a sweep by G from zero over
    tables.log_steps, as the library's int log runs it, except that the last pass
    (k = 0) keeps to the log_steps rows at the Lyndon slots; the other slots keep the
    previous pass's values.  sweep(acc, g, rows, top) starts each row from zero, and
    the ring's unit and dot form the constants.  Over the slots of tables.suffixes.
    """
    slots = set(lyndon_slots(tables))
    last_rows = [row for row in tables.log_steps if row[0] in slots]
    big, acc = math.lcm(*range(1, p + 1)), [ring.dot([])] * len(tables.suffixes)
    for k in range(p, -1, -1):
        sweep(acc, g, tables.log_steps if k else last_rows, p - k)
        acc[-1] = ring.dot([((-1) ** (k + 1) * big // k, ring.one, ring.one)] if k else [])
    return acc


# ---------------------------------------------------------------------------
# the multinomial Taylor-derivative formula, the reference for the Taylor
# route's q!-scaled local-error coefficients


def _compositions(total: int, parts: int):
    # all tuples of `parts` nonnegative integers summing to `total`
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def taylor_derivative(scheme: SymbolicScheme, q: int) -> NCSeries:
    """q-th t-derivative at 0 of the local error, via the multinomial formula.

    sum over compositions k of q into s parts of
        multinomial(q; k) * prod_j sum_l C(k_j, l) a_j^l b_j^{k_j-l} A^l B^{k_j-l}
    minus (A+B)^q.  Homogeneous of degree q; equals q! times the degree-q
    part of local_error_series.
    """
    if q == 0:
        return NCSeries.zero(0)
    total = NCSeries.zero(q)
    for k in _compositions(q, scheme.stages):
        multinomial = math.factorial(q)
        for kj in k:
            multinomial //= math.factorial(kj)
        product = NCSeries.unit(q)
        for j, kj in enumerate(k):
            factor_terms = {}
            for l in range(kj + 1):
                word = (0,) * l + (1,) * (kj - l)
                coeff = (scheme.a[j] ** l) * (scheme.b[j] ** (kj - l)) * math.comb(kj, l)
                factor_terms[word] = factor_terms.get(word, Poly()) + coeff
            product = product * NCSeries(q, 2, factor_terms)
        total = total + product.scale(multinomial)
    ab = NCSeries.letter(0, q) + NCSeries.letter(1, q)
    ab_power = NCSeries.unit(q)
    for _ in range(q):
        ab_power = ab_power * ab
    return total - ab_power


# ---------------------------------------------------------------------------
# counting and word oracles


def _mobius(n: int) -> int:
    result, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    if n > 1:
        result = -result
    return result


def necklace_count(alphabet_size: int, length: int) -> int:
    """Number of Lyndon words of one length: (1/n) sum_{d|n} mu(d) m^(n/d)."""
    total = sum(
        _mobius(d) * alphabet_size ** (length // d)
        for d in range(1, length + 1)
        if length % d == 0
    )
    assert total % length == 0
    return total // length


def strictly_smallest_rotation(word: tuple[int, ...]) -> bool:
    """Brute-force Lyndon test: word precedes all of its proper rotations."""
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


def longest_lyndon_suffix_factorization(word: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Split w = u·v with v the longest proper suffix that is a Lyndon word."""
    cut = next(i for i in range(1, len(word)) if strictly_smallest_rotation(word[i:]))
    return word[:cut], word[cut:]


# ---------------------------------------------------------------------------
# the dense Lyndon-basis solve: subtract each basis expansion from the whole
# series and check the remainder, the reference for the library's
# back-substitution at the Lyndon words


def right_nested_bracketing(word: tuple[int, ...]):
    """Right-to-left nesting of an arbitrary word: ABC -> [A, [B, C]]."""
    word = tuple(word)
    if not word:
        raise ValueError("cannot bracket the empty word")
    tree = word[-1]
    for letter in reversed(word[:-1]):
        tree = (letter, tree)
    return tree


def expand_by_products(tree, truncation: int, alphabet_size: int = 2) -> NCSeries:
    """Nested commutators as word series, [x, y] = x*y - y*x by two series products a node."""
    if isinstance(tree, int):
        return NCSeries.letter(tree, truncation, alphabet_size)
    left, right = tree
    ls = expand_by_products(left, truncation, alphabet_size)
    rs = expand_by_products(right, truncation, alphabet_size)
    return ls * rs - rs * ls


def lie_decompose_on_the_union_table(f: NCSeries, degree: int) -> LieDecomposition:
    """The Lyndon read of a homogeneous Lie element on one table over every letter it uses.

    The letters are relabelled in order onto 0..k-1, which keeps every row; the zero
    series is read on one letter.  Unchecked: exact for Lie elements.
    """
    letters = sorted({x for w in f.terms for x in w}) or [0]
    tables = _Tables(degree, len(letters))
    words = {tuple(letters[x] for x in w): i for w, i in tables.lyndon[degree].items()}
    acc = {i: f.terms.get(w, _ZERO) for w, i in words.items()}
    tables.read(_int_product, 1, acc, [degree])
    return LieDecomposition(degree, {w: acc[i] for w, i in words.items() if acc[i]})


def lie_decompose_by_subtraction(f: NCSeries, degree: int) -> LieDecomposition:
    """Lyndon-basis coefficients of a homogeneous series by series subtraction.

    In lexicographic order, reads the coefficient at each Lyndon word off the
    remainder and subtracts that multiple of the word's expanded bracketing.
    A nonzero final remainder raises NotALieElement with the complement of
    the Dynkin projection theta(w)/q, theta the right-nested bracketing.
    """
    if degree < 1:
        raise ValueError("decomposition degree must be >= 1")
    if any(len(w) != degree for w in f.terms):
        raise ValueError(f"input is not homogeneous of degree {degree}")
    work = f
    coefficients: dict[tuple[int, ...], Poly] = {}
    for word in lyndon_words_of_degree(f.alphabet_size, degree):
        coeff = work.coefficient(word)
        if coeff.is_zero:
            continue
        coefficients[word] = coeff
        bracket = expand_by_products(bracketing(word), f.truncation, f.alphabet_size)
        work = work - bracket.scale(coeff)
    if not work.is_zero():
        lie_part = NCSeries.zero(f.truncation, f.alphabet_size)
        for word, coeff in f.terms.items():
            bracket = right_nested_bracketing(word)
            nested = expand_by_products(bracket, f.truncation, f.alphabet_size)
            lie_part = lie_part + nested.scale(coeff)
        raise NotALieElement(f - lie_part.scale(Fraction(1, degree)))
    return LieDecomposition(degree, coefficients)


def bracket_by_word(word: tuple[int, ...], memo: dict) -> dict[tuple[int, ...], int]:
    """E_w over ints on tuple words, every bracket kept in memo: xy - yx word by word over the
    expansions of the longest-Lyndon-suffix factors."""
    if word not in memo:
        if len(word) == 1:
            memo[word] = {word: 1}
        else:
            u, v = longest_lyndon_suffix_factorization(word)
            left, right, terms = bracket_by_word(u, memo), bracket_by_word(v, memo), {}
            for x, cx in left.items():
                for y, cy in right.items():
                    terms[x + y] = terms.get(x + y, 0) + cx * cy
                    terms[y + x] = terms.get(y + x, 0) - cx * cy
            memo[word] = {w: c for w, c in terms.items() if c}
    return memo[word]


def read_steps_by_word(tables, q: int, memo: dict) -> list:
    """The rows of tables.read_steps at degree q, over tuple words: per Lyndon slot w in order,
    (w, q, [(-E_l[w], l)]) over the Lyndon words l < w of w's letters whose E_l holds w."""
    blocks, runs = {}, {i: [] for i in tables.lyndon[q].values()}
    for w, i in tables.lyndon[q].items():
        blocks.setdefault(tuple(sorted(w)), []).append((w, i))
    for block in blocks.values():
        for k, (l, i) in enumerate(block[:-1]):
            e = bracket_by_word(l, memo)
            for w, j in block[k + 1 :]:
                if w in e:
                    runs[j].append((-e[w], i))
    return [(i, q, r) for i, r in runs.items() if r]


def dynkin_by_word(terms: dict, degree: int) -> dict:
    """theta, the right-nested bracketing, of a homogeneous term map over tuple words, by left
    quotients: theta(a) = a and theta(a·u) = a theta(u) - theta(u) a, words concatenated."""
    if degree == 1:
        return terms
    out = {}
    for a in {w[0] for w in terms}:
        theta = dynkin_by_word({w[1:]: c for w, c in terms.items() if w[0] == a}, degree - 1)
        for u, c in theta.items():
            out[(a,) + u] = out.get((a,) + u, 0) + c
            out[u + (a,)] = out.get(u + (a,), 0) - c
    return {w: c for w, c in out.items() if c}


def lie_decompose_by_word(f: NCSeries, degree: int) -> LieDecomposition:
    """lie_decompose with its forward solve over tuple words: the same checks in the same order,
    then the least Lyndon word of f left holds its coordinate c, and c E_w leaves the Lyndon
    words E_w holds, a word first met there included."""
    import heapq

    from splitcond.lyndon import MAX_LYNDON_WORDS, lyndon_count
    from splitcond.poly import _whole
    from splitcond.series import DegreeBeyondTruncation

    if (degree := _whole(degree, "decomposition degree")) < 1:
        raise ValueError("decomposition degree must be >= 1")
    if any(len(w) != degree for w in f.terms):
        raise ValueError(f"input is not homogeneous of degree {degree}")
    if degree > f.truncation:
        raise DegreeBeyondTruncation(f"degree {degree} exceeds truncation degree {f.truncation}")
    if lyndon_count(max((len(set(w)) for w in f.terms), default=1), degree) > MAX_LYNDON_WORDS:
        raise ValueError(f"order {degree} may need over {MAX_LYNDON_WORDS} Lyndon words")
    lie_part = NCSeries._of(f.truncation, f.alphabet_size, dynkin_by_word(f.terms, degree))
    residual = f - lie_part.scale(Fraction(1, degree))
    if not residual.is_zero():
        raise NotALieElement(residual)
    memo, coefficients = {}, {}
    values = {w: c for w, c in f.terms.items() if strictly_smallest_rotation(w)}
    heap = sorted(values)
    while heap:
        w = heapq.heappop(heap)
        if c := values.pop(w):
            coefficients[w] = c
            for u, e in bracket_by_word(w, memo).items():
                if u != w and strictly_smallest_rotation(u):
                    if u not in values:
                        heapq.heappush(heap, u)
                    values[u] = sum_of_products([(-e, c, _ONE)], values.get(u, _ZERO))
    return LieDecomposition(degree, coefficients)


def conditions_bch_dense(scheme: SymbolicScheme, p: int) -> list[tuple[int, tuple, Poly]]:
    """(degree, Lyndon word, coefficient) of log(product) - (A+B) through degree p.

    Each homogeneous part of the dense logarithm is decomposed by series
    subtraction, with the Lie check, in the entry order of conditions_bch.
    """
    deviation = (
        log(splitting_product_by_exp(scheme, p)) - NCSeries.letter(0, p) - NCSeries.letter(1, p)
    )
    entries = []
    for q in range(1, p + 1):
        coefficients = lie_decompose_by_subtraction(deviation.homogeneous_part(q), q)
        for word in lyndon_words_of_degree(2, q):
            entries.append((q, word, coefficients.coefficient(word)))
    return entries


# ---------------------------------------------------------------------------
# closed-form oracle for the logarithm of a product of two exponentials
#
# For X = x1*A + x2*B + x3*[A,B] + x4*[A,[A,B]] + x5*[B,[B,A]] and Y of the
# same shape, the first coefficients of log(e^X e^Y) in that same span have
# the classical closed forms below.  Used as an independent check of the
# series log engine.


def log_pair_coefficients(a: Fraction, b: Fraction) -> tuple[Fraction, ...]:
    """Coefficients (x1..x5) of log(e^{aA} e^{bB}) through degree 3."""
    return (
        a,
        b,
        a * b / 2,
        a * a * b / 12,
        a * b * b / 12,
    )


def combine_log_coefficients(
    x: tuple[Fraction, ...], y: tuple[Fraction, ...]
) -> tuple[Fraction, ...]:
    """Coefficients of log(e^X e^Y) through degree 3, from those of X and Y."""
    x1, x2, x3, x4, x5 = x
    y1, y2, y3, y4, y5 = y
    cross = x1 * y2 - y1 * x2
    return (
        x1 + y1,
        x2 + y2,
        x3 + y3 + cross / 2,
        x4 + y4 + (x1 * y3 - y1 * x3) / 2 + cross * (x1 - y1) / 12,
        x5 + y5 - (x2 * y3 - y2 * x3) / 2 - cross * (x2 - y2) / 12,
    )


def lie_span_series(coeffs: tuple[Fraction, ...], truncation: int = 3) -> NCSeries:
    """x1*A + x2*B + x3*[A,B] + x4*[A,[A,B]] + x5*[B,[B,A]] as a word series."""
    from splitcond import expand

    x1, x2, x3, x4, x5 = coeffs
    total = NCSeries.zero(truncation)
    for coeff, tree in (
        (x1, 0),
        (x2, 1),
        (x3, (0, 1)),
        (x4, (0, (0, 1))),
        (x5, (1, (1, 0))),
    ):
        total = total + expand(tree, truncation).scale(coeff)
    return total


# ---------------------------------------------------------------------------
# exact rational witnesses on the low-order solution manifolds


def solve_linear_exact(
    matrix: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction] | None:
    """Gaussian elimination over Fractions; None when the system is singular."""
    n = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def leading_error_term_by_bch(scheme: ConcreteScheme, p: int) -> LieDecomposition:
    """The leading error term as the logarithm gives it, refused as leading_error_term refuses.

    The BCH residuals at order p + 1 are the Lyndon coordinates of log(product) - (A + B):
    NotOrderP unless every one through degree p vanishes, else those at degree p + 1.
    """
    residuals = verify_scheme(scheme, p + 1, "bch").residuals
    if any(r for q, _, r in residuals if q <= p):
        raise NotOrderP(f"{scheme} does not satisfy the order-{p} conditions")
    return LieDecomposition(p + 1, {w: Poly.const(r) for q, w, r in residuals if q > p and r})


def strang_composition(weights) -> ConcreteScheme:
    """The merged product S(w1)...S(wk) of Strang steps, k + 1 stages."""
    w = [Fraction(x) for x in weights]
    a = [w[0] / 2] + [(x + y) / 2 for x, y in zip(w, w[1:])] + [w[-1] / 2]
    return ConcreteScheme(a, w + [Fraction(0)])


def order1_witness(rng: random.Random, stages: int) -> ConcreteScheme:
    """Random rational scheme with coefficient sums exactly 1."""
    a = [random_fraction(rng) for _ in range(stages - 1)]
    b = [random_fraction(rng) for _ in range(stages - 1)]
    a.append(1 - sum(a, Fraction(0)))
    b.append(1 - sum(b, Fraction(0)))
    return ConcreteScheme(tuple(a), tuple(b))


def order2_witness(rng: random.Random, stages: int, degree2_poly: Poly) -> ConcreteScheme:
    """Random rational point of {sum a = 1, sum b = 1, degree-2 condition = 0}.

    Fixes random a with sum 1 and all b's except the last two, then solves
    the remaining 2x2 linear system in b exactly.  The degree-2 condition
    polynomial is affine-linear in b once a is fixed.
    """
    assert stages >= 2
    for _ in range(50):
        a = [random_fraction(rng) for _ in range(stages - 1)]
        a.append(1 - sum(a, Fraction(0)))
        b_fixed = [random_fraction(rng) for _ in range(stages - 2)]

        def poly_at(bn_minus1: Fraction, bn: Fraction, poly: Poly) -> Fraction:
            b = b_fixed + [bn_minus1, bn]
            return poly.evaluate(ConcreteScheme(tuple(a), tuple(b)).point())

        # affine in the two unknowns: c0 + c1*x + c2*y
        c0 = poly_at(Fraction(0), Fraction(0), degree2_poly)
        c1 = poly_at(Fraction(1), Fraction(0), degree2_poly) - c0
        c2 = poly_at(Fraction(0), Fraction(1), degree2_poly) - c0
        matrix = [[Fraction(1), Fraction(1)], [c1, c2]]
        rhs = [1 - sum(b_fixed, Fraction(0)), -c0]
        solution = solve_linear_exact(matrix, rhs)
        if solution is not None:
            b = tuple(b_fixed) + (solution[0], solution[1])
            return ConcreteScheme(tuple(a), b)
    raise RuntimeError("could not build an order-2 witness (singular draws)")


# ---------------------------------------------------------------------------
# numeric root-refinement oracle


def _float_system(system: ConditionSystem) -> tuple[list[list[tuple[float, tuple[int, ...]]]], int]:
    """Flatten condition polynomials to (coeff, exponent-vector) term lists.

    Variables are ordered a1..as, b1..bs.
    """
    stages = system.stages
    polys = []
    for entry in system.entries:
        terms = []
        for mono, coeff in entry.polynomial.terms.items():
            # a monomial lists exponents interleaved a1, b1, a2, b2, ...
            vec = [0] * (2 * stages)
            for i, e in enumerate(mono):
                vec[(i % 2) * stages + i // 2] = e
            terms.append((float(coeff), tuple(vec)))
        if entry.rhs != 0:
            terms.append((float(-entry.rhs), (0,) * (2 * stages)))
        polys.append(terms)
    return polys, 2 * stages


def _eval_float(terms, x: np.ndarray) -> float:
    total = 0.0
    for coeff, vec in terms:
        value = coeff
        for xi, e in zip(x, vec):
            if e:
                value *= xi**e
        total += value
    return total


def _grad_float(terms, x: np.ndarray) -> np.ndarray:
    grad = np.zeros(len(x))
    for coeff, vec in terms:
        for i, e in enumerate(vec):
            if e == 0:
                continue
            value = coeff * e * x[i] ** (e - 1)
            for j, ej in enumerate(vec):
                if j != i and ej:
                    value *= x[j] ** ej
            grad[i] += value
    return grad


def refine_witnesses(
    system: ConditionSystem, count: int, seed: int, iterations: int = 80
) -> list[ConcreteScheme]:
    """Gauss-Newton refinement from random starts toward the solution set.

    Returns `count` schemes with the refined floating-point coordinates
    converted exactly to rationals.  When the system has no real solutions
    the iteration simply stalls at a nonzero residual; those points are still
    useful witnesses (they must be rejected by any equivalent system).
    """
    polys, nvars = _float_system(system)
    rng = np.random.default_rng(seed)
    witnesses = []
    while len(witnesses) < count:
        x = rng.uniform(-1.5, 1.5, nvars)
        for _ in range(iterations):
            values = np.array([_eval_float(p, x) for p in polys])
            if np.max(np.abs(values)) < 1e-14:
                break
            jac = np.array([_grad_float(p, x) for p in polys])
            step, *_ = np.linalg.lstsq(jac, -values, rcond=None)
            if not np.isfinite(step).all():
                break
            limit = np.max(np.abs(step))
            if limit > 1.0:
                step = step / limit
            x = x + step
        if not np.isfinite(x).all():
            continue
        stages = system.stages
        a = tuple(Fraction(float(v)) for v in x[:stages])
        b = tuple(Fraction(float(v)) for v in x[stages:])
        witnesses.append(ConcreteScheme(a, b))
    return witnesses


def max_abs_residual(system: ConditionSystem, scheme: ConcreteScheme) -> float:
    return max((abs(float(r)) for _, _, r in system.residuals(scheme)), default=0.0)
