import hashlib
import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from splitcond import (
    ConcreteScheme,
    DegenerateFit,
    DimensionMismatch,
    NonFinite,
    empirical_order,
    matrix_exp,
    scheme_step,
)
from splitcond.cli import REGISTRY
from splitcond.numeric import DEFAULT_GRID, _pcg64_uniform, random_generator_pair

F = Fraction

LIE_TROTTER = REGISTRY["lie-trotter"].scheme
STRANG = REGISTRY["strang"].scheme
PAPER3 = REGISTRY["paper-order3"].scheme


def test_exp_of_zero_matrix():
    assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_exp_of_diagonal():
    result = matrix_exp(np.diag([1.0, 2.0]))
    expected = np.diag([math.e, math.e**2])
    assert np.allclose(result, expected, rtol=1e-13, atol=0)


def test_exp_inverse_property():
    rng = np.random.default_rng(5)
    for _ in range(5):
        m = rng.uniform(-1, 1, (5, 5))
        m *= 2.0 / np.linalg.norm(m, 2)
        product = matrix_exp(m) @ matrix_exp(-m)
        assert np.allclose(product, np.eye(5), atol=1e-12)


def test_exp_matches_scipy_up_to_norm_10():
    rng = np.random.default_rng(11)
    for scale in (0.1, 1.0, 10.0):
        m = rng.uniform(-1, 1, (6, 6))
        m *= scale / np.linalg.norm(m, 2)
        ours = matrix_exp(m)
        reference = scipy.linalg.expm(m)
        rel = np.linalg.norm(ours - reference) / np.linalg.norm(reference)
        assert rel < 1e-13


def test_exp_overflow_raises():
    with pytest.raises(NonFinite):
        matrix_exp(np.diag([1000.0, 1000.0]))
    with pytest.raises(NonFinite):
        matrix_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_exp_requires_square():
    with pytest.raises(DimensionMismatch):
        matrix_exp(np.zeros((2, 3)))


def test_scheme_step_at_zero_is_identity():
    rng = np.random.default_rng(13)
    a = rng.uniform(-1, 1, (4, 4))
    b = rng.uniform(-1, 1, (4, 4))
    assert np.allclose(scheme_step(STRANG, a, b, 0.0), np.eye(4), atol=1e-15)


def test_scheme_step_exact_for_commuting_generators():
    a = np.diag([0.3, -0.7, 1.1])
    b = np.diag([-0.2, 0.5, 0.4])
    t = 0.37
    step = scheme_step(ConcreteScheme((F(1),), (F(1),)), a, b, t)
    assert np.allclose(step, matrix_exp(t * (a + b)), atol=1e-14)


def test_scheme_step_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        scheme_step(STRANG, np.zeros((3, 3)), np.zeros((4, 4)), 0.1)


def test_lie_trotter_leading_error_is_half_commutator():
    rng = np.random.default_rng(17)
    a = rng.uniform(-1, 1, (4, 4))
    b = rng.uniform(-1, 1, (4, 4))
    t = 1e-3
    step = scheme_step(LIE_TROTTER, a, b, t)
    err = np.linalg.norm(step - matrix_exp(t * (a + b)), "fro")
    predicted = 0.5 * t**2 * np.linalg.norm(a @ b - b @ a, "fro")
    assert 0.9 < err / predicted < 1.1


def test_empirical_order_slopes():
    slopes = {
        "lie-trotter": (2, 0.15),
        "strang": (3, 0.15),
        "paper-order3": (4, 0.2),
    }
    for name, (target, tolerance) in slopes.items():
        report = empirical_order(REGISTRY[name].scheme, 4, seed=1)
        assert abs(report.slope - target) < tolerance


def test_empirical_order_is_deterministic():
    first = empirical_order(STRANG, 4, seed=3)
    second = empirical_order(STRANG, 4, seed=3)
    assert first == second
    assert first.errors == second.errors


def test_empirical_order_records_scaling():
    report = empirical_order(STRANG, 4, seed=9)
    assert all(s > 0 for s in report.scaling)
    payload = report.to_json_dict()
    assert payload["scheme"] == "strang"
    assert len(payload["pairs"]) == len(DEFAULT_GRID)
    assert payload["scaling"] == list(report.scaling)


def test_empirical_order_degenerate_fit_on_scalars():
    # 1x1 generators commute, the splitting is exact, every error sits below
    # the roundoff floor
    with pytest.raises(DegenerateFit):
        empirical_order(STRANG, 1, seed=2)


def test_empirical_order_grid_validation():
    with pytest.raises(ValueError):
        empirical_order(STRANG, 4, seed=1, grid=(0.25, 0.5))
    with pytest.raises(ValueError):
        empirical_order(STRANG, 4, seed=1, grid=(0.5, 0.25))
    with pytest.raises(ValueError):
        empirical_order(STRANG, 0, seed=1)


# -- the seeded matrices ------------------------------------------------------------

STREAM_SEEDS = (*range(9), 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_draws_are_numpys_default_rng_bit_for_bit(seed):
    for n in (1, 4, 16, 64):
        draws = np.fromiter(_pcg64_uniform(seed, 2 * n * n), float).reshape(2, n, n)
        rng = np.random.default_rng(seed)
        assert np.array_equal(draws[0], rng.uniform(-1, 1, (n, n)))
        assert np.array_equal(draws[1], rng.uniform(-1, 1, (n, n)))


def test_draws_match_a_pin_taken_from_numpy():
    # default_rng(seed).uniform(-1, 1, (n, n)) twice, as little-endian doubles, at the
    # benchmark's converge seeds and dimensions; pure-Python floats, so any machine agrees
    digest = hashlib.sha256()
    for seed in range(1, 9):
        for n in (4, 16):
            draws = list(_pcg64_uniform(seed, 2 * n * n))
            digest.update(struct.pack(f"<{len(draws)}d", *draws))
    assert digest.hexdigest() == (
        "64ceb1fe4d331fe65db9a09ade580859ce8299b710e8bc475c675ff9fbe366b1"
    )


def test_generator_pair_is_the_scaled_draws():
    a_mat, b_mat, scale_a, scale_b = random_generator_pair(3, 5)
    draws = np.fromiter(_pcg64_uniform(5, 18), float).reshape(2, 3, 3)
    assert np.array_equal(a_mat, draws[0] / scale_a)
    assert np.array_equal(b_mat, draws[1] / scale_b)
    assert scale_a == np.linalg.norm(draws[0], 2)


@pytest.mark.parametrize("seed", [1.5, "3", None, True, Fraction(3)])
def test_seed_must_be_an_integer(seed):
    for call in (random_generator_pair, lambda n, s: empirical_order(STRANG, n, s)):
        with pytest.raises(TypeError, match="^seed must be an integer"):
            call(4, seed)


@pytest.mark.parametrize("dimension", [1.5, "4", True, None])
def test_dimension_must_be_an_integer(dimension):
    for call in (random_generator_pair, lambda n, s: empirical_order(STRANG, n, s)):
        with pytest.raises(TypeError, match="^dimension must be an integer"):
            call(dimension, 1)


def test_negative_seed_and_small_dimension_raise_value_error():
    for call in (random_generator_pair, lambda n, s: empirical_order(STRANG, n, s)):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            call(4, -1)
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            call(0, 1)


def test_numpy_integers_are_stored_as_plain_ints():
    report = empirical_order(STRANG, np.int32(4), np.int64(3))
    assert type(report.seed) is int and type(report.dimension) is int
    assert report == empirical_order(STRANG, 4, 3)
    assert json.loads(json.dumps(report.to_json_dict()))["seed"] == 3
