"""Floating-point confirmation of scheme orders on random linear matrix flows.

A scheme of order p should show one-step error O(t^{p+1}) when the abstract
generators are replaced by concrete matrices.  empirical_order() draws a
seeded random matrix pair, measures the Frobenius local error on a geometric
grid of step sizes, and fits the slope on the log-log points.

The matrices are PCG64 draws seeded by numpy's SeedSequence, generated here in
pure Python: bit for bit the doubles of numpy.random.default_rng(seed).uniform(-1, 1),
whatever numpy is installed, and without importing numpy.random.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .conditions import ConcreteScheme
from .poly import _whole

DEFAULT_GRID = tuple(2.0**-k for k in range(4, 11))

# Error floor: points below this multiple of machine epsilon are roundoff,
# not truncation error, and would corrupt the slope fit.
EPS_FLOOR = 100 * np.finfo(float).eps

_PADE_ORDER = 7


class NonFinite(ArithmeticError):
    """Matrix exponential overflowed or produced non-finite entries."""


class DimensionMismatch(ValueError):
    """Operands are not square matrices of one common dimension."""


class DegenerateFit(RuntimeError):
    """Too few usable points remain above the roundoff floor."""


def _pade_coefficients(m: int) -> np.ndarray:
    # numerator coefficients of the diagonal [m/m] approximant to exp
    coeffs = [
        Fraction(
            math.factorial(2 * m - k) * math.factorial(m),
            math.factorial(2 * m) * math.factorial(k) * math.factorial(m - k),
        )
        for k in range(m + 1)
    ]
    return np.array([float(c) for c in coeffs])


_PADE_C = _pade_coefficients(_PADE_ORDER)


def matrix_exp(matrix: np.ndarray) -> np.ndarray:
    """Dense matrix exponential by scaling and squaring.

    Scales the argument below norm 1/2, applies the fixed diagonal Padé
    approximant, and squares back up.  Raises NonFinite when the result
    overflows double precision.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFinite("input matrix has non-finite entries")
    n = m.shape[0]

    norm = np.linalg.norm(m, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    scaled = m / (2.0**squarings)

    # Pade(x) = p(x)/p(-x) with p the one-sided polynomial; split into even
    # and odd parts so one solve gives the rational approximant.
    powers = [np.eye(n)]
    for _ in range(_PADE_ORDER):
        powers.append(powers[-1] @ scaled)
    even = sum(_PADE_C[k] * powers[k] for k in range(0, _PADE_ORDER + 1, 2))
    odd = sum(_PADE_C[k] * powers[k] for k in range(1, _PADE_ORDER + 1, 2))
    result = np.linalg.solve(even - odd, even + odd)

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            result = result @ result
    if not np.isfinite(result).all():
        raise NonFinite("matrix exponential overflowed")
    return result


def scheme_step(
    scheme: ConcreteScheme, a_mat: np.ndarray, b_mat: np.ndarray, t: float
) -> np.ndarray:
    """One step of the splitting scheme: exp(a_1 t A) exp(b_1 t B) ... applied in order."""
    a_mat = np.asarray(a_mat, dtype=float)
    b_mat = np.asarray(b_mat, dtype=float)
    if a_mat.shape != b_mat.shape or a_mat.ndim != 2 or a_mat.shape[0] != a_mat.shape[1]:
        raise DimensionMismatch(
            f"matrices must be square and equally sized, got {a_mat.shape} and {b_mat.shape}"
        )
    step = np.eye(a_mat.shape[0])
    for a_j, b_j in zip(scheme.a, scheme.b):
        if a_j != 0:
            step = step @ matrix_exp(_as_float(a_j) * t * a_mat)
        if b_j != 0:
            step = step @ matrix_exp(_as_float(b_j) * t * b_mat)
    return step


def _as_float(value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        raise NonFinite("stage coefficient too large for a float") from None


class ConvergenceReport(NamedTuple):
    """Local-error measurements and the fitted log-log slope."""

    scheme_name: str
    dimension: int
    seed: int
    step_sizes: tuple[float, ...]
    errors: tuple[float, ...]
    used: tuple[bool, ...]
    slope: float
    fit_residual: float
    scaling: tuple[float, float]

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme_name,
            "n": self.dimension,
            "seed": self.seed,
            "pairs": [[t, e] for t, e in zip(self.step_sizes, self.errors)],
            "slope": self.slope,
            "residual": self.fit_residual,
            "scaling": list(self.scaling),
        }


def _dimension_and_seed(dimension, seed) -> tuple[int, int]:
    dimension, seed = _whole(dimension, "dimension"), _whole(seed, "seed")
    if dimension < 1:
        raise ValueError("matrix dimension must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return dimension, seed


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, multiplier: int):
    # SeedSequence's hash step, whose constant advances on each call
    def hash32(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * multiplier & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hash32


def _pcg64_uniform(seed: int, count: int):
    """The first count doubles of default_rng(seed).uniform(-1, 1), SeedSequence's PCG64."""
    entropy = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    # mix each slot of the pool into the others, then each entropy word past the pool
    for src in range(max(4, len(entropy))):
        for dst in range(4):
            if src != dst:
                hashed = hashmix(pool[src] if src < 4 else entropy[src])
                mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashed) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    # generate_state(4, uint64): eight words, read as little-endian pairs
    state_hash = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [state_hash(pool[i % 4]) for i in range(8)]
    words = [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]
    # PCG64 seeding: the LCG steps once from 0, adds the state word, and steps again
    increment = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
    state = ((increment + (words[0] << 64 | words[1])) * _PCG64_MULTIPLIER + increment) & _MASK128
    for _ in range(count):
        state = (state * _PCG64_MULTIPLIER + increment) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        yield -1.0 + 2.0 * ((x >> 11) * 2.0**-53)


def random_generator_pair(
    dimension: int, seed: int
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Seeded matrices with entries uniform in [-1, 1], scaled to unit spectral norm."""
    n, seed = _dimension_and_seed(dimension, seed)
    draws = np.fromiter(_pcg64_uniform(seed, 2 * n * n), float, 2 * n * n)
    a_mat, b_mat = draws.reshape(2, n, n)
    scale_a = float(np.linalg.norm(a_mat, 2))
    scale_b = float(np.linalg.norm(b_mat, 2))
    return a_mat / scale_a, b_mat / scale_b, scale_a, scale_b


def empirical_order(
    scheme: ConcreteScheme,
    dimension: int,
    seed: int,
    grid: tuple[float, ...] = DEFAULT_GRID,
) -> ConvergenceReport:
    """Measure the one-step error slope of a scheme on a random matrix flow.

    Deterministic for fixed (scheme, dimension, seed, grid): the matrices
    are those of numpy.random.default_rng(seed).uniform(-1, 1), A then B,
    under any numpy.  The dimension is a positive int and the seed a
    non-negative int (anything operator.index takes, but not a bool); any
    other raises TypeError, and a value out of range ValueError.
    """
    dimension, seed = _dimension_and_seed(dimension, seed)
    grid = tuple(float(t) for t in grid)
    if any(t2 >= t1 for t1, t2 in zip(grid, grid[1:])):
        raise ValueError("step-size grid must be strictly decreasing")
    if grid and (grid[0] > 2.0**-3 or grid[-1] < 2.0**-14):
        raise ValueError("step sizes must lie within [2^-14, 2^-3]")

    a_mat, b_mat, scale_a, scale_b = random_generator_pair(dimension, seed)
    summed = a_mat + b_mat

    errors = []
    for t in grid:
        exact = matrix_exp(t * summed)
        approx = scheme_step(scheme, a_mat, b_mat, t)
        errors.append(float(np.linalg.norm(approx - exact, "fro")))

    used = tuple(bool(e > EPS_FLOOR) for e in errors)
    xs = np.log([t for t, u in zip(grid, used) if u])
    ys = np.log([e for e, u in zip(errors, used) if u])
    if len(xs) < 3:
        raise DegenerateFit(
            f"only {len(xs)} grid points above the roundoff floor, need >= 3"
        )
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    residual = float(np.sqrt(np.mean((ys - fitted) ** 2)))

    return ConvergenceReport(
        scheme_name=scheme.name or "unnamed",
        dimension=dimension,
        seed=seed,
        step_sizes=grid,
        errors=tuple(errors),
        used=used,
        slope=float(slope),
        fit_residual=residual,
        scaling=(scale_a, scale_b),
    )
