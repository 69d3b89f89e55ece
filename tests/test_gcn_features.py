"""Unit tests for feature/weight matrix generation."""

import numpy as np
import pytest

from kernel_oracles import generate_feature_matrix
from repro.gcn.features import (
    generate_feature_csr,
    generate_weight_matrix,
    measured_density,
)


@pytest.mark.parametrize("density", [0.01, 0.1, 0.5, 1.0])
def test_density_is_respected(density, rng):
    matrix = generate_feature_matrix(400, 50, density, rng)
    assert measured_density(matrix) == pytest.approx(density, abs=0.05)


def test_zero_density(rng):
    matrix = generate_feature_matrix(10, 10, 0.0, rng)
    assert not matrix.any()


def test_values_non_negative(rng):
    matrix = generate_feature_matrix(20, 20, 0.8, rng)
    assert matrix.min() >= 0.0


def test_invalid_density_rejected(rng):
    with pytest.raises(ValueError):
        generate_feature_matrix(5, 5, 1.5, rng)
    with pytest.raises(ValueError):
        generate_feature_matrix(5, 5, -0.1, rng)


def test_feature_csr_matches_dense_density(rng):
    csr = generate_feature_csr(200, 30, 0.2, np.random.default_rng(0))
    dense = generate_feature_matrix(200, 30, 0.2, np.random.default_rng(0))
    np.testing.assert_allclose(csr.to_dense(), dense)


def test_weight_matrix_fully_dense(rng):
    weight = generate_weight_matrix(64, 16, rng)
    assert measured_density(weight) == 1.0
    assert weight.shape == (64, 16)


def test_weight_matrix_scale(rng):
    weight = generate_weight_matrix(1000, 1000, rng)
    expected_scale = np.sqrt(2.0 / 2000)
    assert np.std(weight) == pytest.approx(expected_scale, rel=0.1)


def test_weight_matrix_custom_scale(rng):
    weight = generate_weight_matrix(100, 100, rng, scale=0.5)
    assert np.std(weight) == pytest.approx(0.5, rel=0.1)


def test_measured_density_empty():
    assert measured_density(np.zeros((0, 5))) == 0.0


def test_measured_density_tolerance():
    matrix = np.array([[1e-6, 1.0], [0.0, 2.0]])
    assert measured_density(matrix, tolerance=1e-3) == pytest.approx(0.5)


def test_reproducibility():
    a = generate_feature_matrix(50, 20, 0.3, np.random.default_rng(9))
    b = generate_feature_matrix(50, 20, 0.3, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)
