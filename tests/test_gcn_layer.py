"""Unit tests for GCN layers and models."""

import numpy as np
import pytest

from repro.gcn.layer import GCNLayer, GCNModel, build_model_for_dataset
from repro.gcn.reference import gcn_layer_forward, layer_output_reference, relu
from repro.sparse.convert import dense_to_csr
from repro.sparse.csr import CSRMatrix


@pytest.fixture
def toy_layer(rng):
    adjacency = dense_to_csr(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    features = rng.standard_normal((3, 4))
    weight = rng.standard_normal((4, 2))
    return GCNLayer(adjacency=adjacency, features=features, weight=weight, name="toy")


def test_layer_shapes(toy_layer):
    assert toy_layer.num_nodes == 3
    assert toy_layer.in_features == 4
    assert toy_layer.out_features == 2


def test_layer_forward_matches_reference(toy_layer):
    expected = relu(
        toy_layer.adjacency.to_dense() @ toy_layer.features.to_dense() @ toy_layer.weight
    )
    np.testing.assert_allclose(toy_layer.forward(), expected)
    np.testing.assert_allclose(layer_output_reference(toy_layer), expected)


def test_layer_forward_without_relu(toy_layer):
    toy_layer.apply_relu = False
    expected = toy_layer.adjacency.to_dense() @ toy_layer.features.to_dense() @ toy_layer.weight
    np.testing.assert_allclose(toy_layer.forward(), expected)


def test_combination_product(toy_layer):
    np.testing.assert_allclose(
        toy_layer.combination(), toy_layer.features.to_dense() @ toy_layer.weight
    )


def test_features_stored_as_csr(rng):
    dense = rng.standard_normal((3, 4))
    dense[dense < 0] = 0.0
    layer = GCNLayer(adjacency=dense_to_csr(np.eye(3)), features=dense, weight=np.ones((4, 2)))
    assert isinstance(layer.features, CSRMatrix)
    assert layer.features.nnz == int((dense != 0).sum())
    np.testing.assert_array_equal(layer.features.to_dense(), dense)
    csr = dense_to_csr(dense)
    assert GCNLayer(adjacency=layer.adjacency, features=csr, weight=layer.weight).features is csr


def test_feature_density(toy_layer):
    dense = toy_layer.features.to_dense()
    assert toy_layer.feature_density == pytest.approx((dense != 0).mean())


def test_dimension_validation(rng):
    adjacency = dense_to_csr(np.eye(3))
    with pytest.raises(ValueError):
        GCNLayer(adjacency=adjacency, features=rng.standard_normal((4, 2)), weight=rng.standard_normal((2, 2)))
    with pytest.raises(ValueError):
        GCNLayer(adjacency=adjacency, features=rng.standard_normal((3, 2)), weight=rng.standard_normal((3, 2)))
    non_square = dense_to_csr(np.ones((3, 4)))
    with pytest.raises(ValueError):
        GCNLayer(adjacency=non_square, features=rng.standard_normal((3, 2)), weight=rng.standard_normal((2, 2)))


def test_gcn_layer_forward_helper(toy_layer):
    out = gcn_layer_forward(toy_layer.adjacency, toy_layer.features.to_dense(), toy_layer.weight)
    np.testing.assert_allclose(out, toy_layer.forward())


def test_relu():
    np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def test_model_validation(toy_layer, rng):
    bad_next = GCNLayer(
        adjacency=toy_layer.adjacency,
        features=rng.standard_normal((3, 5)),
        weight=rng.standard_normal((5, 3)),
        name="bad",
    )
    with pytest.raises(ValueError):
        GCNModel(layers=[toy_layer, bad_next])
    with pytest.raises(ValueError):
        GCNModel(layers=[])


def test_model_forward_threads_activations(small_model):
    output = small_model.forward()
    assert output.shape == (small_model.num_nodes, small_model.layers[-1].out_features)
    assert np.isfinite(output).all()


def test_build_model_for_dataset(small_dataset, small_model):
    assert small_model.num_layers == small_dataset.num_layers
    assert small_model.num_nodes == small_dataset.num_nodes
    widths = small_dataset.feature_lengths
    for i, layer in enumerate(small_model.layers):
        assert layer.in_features == widths[i]
        assert layer.out_features == widths[i + 1]


def test_build_model_feature_densities(small_dataset, small_model):
    # Layer 0's measured density tracks the published X(0) density.
    assert small_model.layers[0].feature_density == pytest.approx(
        small_dataset.density_x0, abs=0.02
    )
    assert small_model.layers[1].feature_density == pytest.approx(
        small_dataset.density_x1, abs=0.05
    )


def test_build_model_reproducible(small_dataset):
    a = build_model_for_dataset(small_dataset, seed=11)
    b = build_model_for_dataset(small_dataset, seed=11)
    np.testing.assert_array_equal(a.layers[0].weight, b.layers[0].weight)


def test_final_layer_has_no_relu(small_model):
    assert small_model.layers[-1].apply_relu is False
    assert small_model.layers[0].apply_relu is True
