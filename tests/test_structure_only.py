"""Workload bundles are structure-only, and the reference paths still agree.

A bundle's X exists only as CSR and no phase carries a dense RHS, yet the
functional-verification paths (``compute_output``, ``reference_output``,
``GCNModel.forward``, the Figure 3 densities) return exactly what they return
for the same model drawn densely by the oracle in ``kernel_oracles.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from kernel_oracles import generate_feature_matrix
from repro.accelerators.hygcn import HyGCNSimulator
from repro.accelerators.workload import build_model_workloads
from repro.analysis.sparsity import layer_matrix_densities
from repro.core.accelerator import GrowSimulator
from repro.core.dataflow import RowStationaryDataflow
from repro.gcn.features import generate_weight_matrix
from repro.harness.config import ExperimentConfig
from repro.harness.workloads import clear_caches, get_bundle
from repro.sparse.convert import dense_to_csr

NUM_NODES = 300
SEED = 3


@pytest.fixture(scope="module")
def bundle():
    config = ExperimentConfig(
        datasets=("cora",), seed=SEED, num_nodes_override={"cora": NUM_NODES}
    )
    clear_caches()
    yield get_bundle("cora", config)
    clear_caches()


@pytest.fixture(scope="module")
def dense_oracle(bundle):
    """Per-layer (X, W) drawn as dense arrays from the model's RNG stream."""
    dataset = bundle.dataset
    rng = np.random.default_rng(SEED)
    widths = dataset.feature_lengths
    layers = []
    for index in range(dataset.num_layers):
        features = generate_feature_matrix(
            dataset.num_nodes, widths[index], dataset.feature_density(index), rng
        )
        weight = generate_weight_matrix(widths[index], widths[index + 1], rng)
        layers.append((features, weight))
    return layers


def reachable_arrays(root):
    """Every ndarray reachable from ``root`` through attributes and containers."""
    seen: set[int] = set()
    stack = [root]
    arrays = []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, bool, type(None))):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return arrays


def test_bundle_holds_no_dense_feature_sized_array(bundle):
    widest = max(bundle.dataset.feature_lengths[:-1])
    dense_x_bytes = NUM_NODES * widest * 8
    arrays = reachable_arrays(bundle)
    assert arrays, "the walk must reach the CSR arrays"
    largest = max(arrays, key=lambda array: array.nbytes)
    assert largest.nbytes < dense_x_bytes, largest.shape


def test_bundle_phases_carry_no_dense_rhs(bundle):
    for workload in bundle.workloads:
        for phase in workload.phases:
            assert phase.dense is None, (workload.name, phase.name)


def test_bundle_features_match_dense_oracle(bundle, dense_oracle):
    for layer, (features, weight) in zip(bundle.model.layers, dense_oracle):
        expected = dense_to_csr(features)
        np.testing.assert_array_equal(layer.features.indptr, expected.indptr)
        np.testing.assert_array_equal(layer.features.indices, expected.indices)
        np.testing.assert_array_equal(layer.features.data, expected.data)
        np.testing.assert_array_equal(layer.weight, weight)


def test_verification_outputs_bit_identical_to_dense_oracle(bundle, dense_oracle):
    adjacency = bundle.model.layers[0].adjacency
    grow = GrowSimulator()
    workloads = build_model_workloads(bundle.model, materialize=True)
    for workload, (features, weight) in zip(workloads, dense_oracle):
        x_csr, xw = dense_to_csr(features), features @ weight
        np.testing.assert_array_equal(workload.aggregation.dense, xw)
        np.testing.assert_array_equal(
            workload.combination.reference_output(), x_csr.matmul_dense(weight)
        )
        np.testing.assert_array_equal(
            workload.aggregation.reference_output(), adjacency.matmul_dense(xw)
        )
        np.testing.assert_array_equal(
            grow.compute_output(workload.combination),
            RowStationaryDataflow.execute(x_csr, weight),
        )
        np.testing.assert_array_equal(
            grow.compute_output(workload.aggregation),
            RowStationaryDataflow.execute(adjacency, xw),
        )


def test_forward_bit_identical_to_dense_oracle(bundle, dense_oracle):
    model = bundle.model
    activations = dense_oracle[0][0]
    for layer, (_, weight) in zip(model.layers, dense_oracle):
        activations = layer.adjacency.matmul_dense(activations @ weight)
        if layer.apply_relu:
            activations = np.maximum(activations, 0.0)
    np.testing.assert_array_equal(model.forward(), activations)


def test_layer_densities_bit_identical_to_dense_oracle(bundle, dense_oracle):
    for index, (features, weight) in enumerate(dense_oracle):
        xw = features @ weight
        assert layer_matrix_densities(bundle.model, index) == {
            "A": bundle.model.layers[index].adjacency.density,
            "X": float((features != 0).sum()) / features.size,
            "XW": float((xw != 0).sum()) / xw.size,
            "W": float((weight != 0).sum()) / weight.size,
        }


def test_hygcn_reads_feature_density_from_structure(bundle, dense_oracle):
    hygcn = HyGCNSimulator()
    for layer, workload, (features, _) in zip(bundle.model.layers, bundle.workloads, dense_oracle):
        expected = int(layer.adjacency.nnz * features.shape[1] * float((features != 0).mean()))
        assert hygcn.run_layer(workload).phases[0].mac_operations == expected
        assert hygcn.run_layer_from_gcn(layer).phases[0].mac_operations == expected
