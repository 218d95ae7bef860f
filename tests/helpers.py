"""Shared test oracles: independent implementations used to check the library.

Everything here is deliberately written from first principles (brute force,
closed forms, generic numerics) so the tests do not reuse the code paths they
are checking.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from splitcond import ConcreteScheme, ConditionSystem, NCSeries, SymbolicScheme
from splitcond.poly import Poly


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
