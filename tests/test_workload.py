"""Unit tests for the SpDeGEMM workload descriptions."""

import numpy as np
import pytest

from repro.accelerators.workload import (
    SpDeGemmPhase,
    build_layer_workload,
    build_model_workloads,
)
from repro.sparse.convert import dense_to_csr


def test_build_layer_workload_shapes(small_model):
    layer = small_model.layers[0]
    workload = build_layer_workload(layer)
    assert workload.combination.sparse.shape == (layer.num_nodes, layer.in_features)
    assert workload.combination.dense_shape == layer.weight.shape
    assert workload.aggregation.sparse.shape == (layer.num_nodes, layer.num_nodes)
    assert workload.aggregation.dense_shape == (layer.num_nodes, layer.out_features)


def test_combination_rhs_is_resident(small_workloads):
    for workload in small_workloads:
        assert workload.combination.rhs_resident is True
        assert workload.aggregation.rhs_resident is False


def test_phase_mac_operations(small_workloads):
    phase = small_workloads[0].aggregation
    assert phase.mac_operations == phase.sparse.nnz * phase.rhs_cols
    assert small_workloads[0].mac_operations == (
        small_workloads[0].combination.mac_operations + phase.mac_operations
    )


def test_phase_byte_helpers(small_workloads):
    phase = small_workloads[0].aggregation
    assert phase.rhs_row_bytes == phase.rhs_cols * 8
    assert phase.output_bytes == phase.output_shape[0] * phase.output_shape[1] * 8
    assert phase.dense_bytes == phase.dense_shape[0] * phase.dense_shape[1] * 8


def test_aggregation_dense_is_combination_output(small_model):
    layer = small_model.layers[0]
    workload = build_layer_workload(layer, materialize=True)
    np.testing.assert_allclose(workload.aggregation.dense, layer.combination())


def test_reference_output(small_workloads):
    phase = small_workloads[0].aggregation
    np.testing.assert_allclose(
        phase.reference_output(), phase.sparse.matmul_dense(phase.dense)
    )


def test_reference_output_requires_dense(small_model):
    workload = build_layer_workload(small_model.layers[0], materialize=False)
    assert workload.aggregation.dense is None
    with pytest.raises(ValueError):
        workload.aggregation.reference_output()


def test_phase_dimension_validation(rng):
    sparse = dense_to_csr(rng.standard_normal((4, 5)))
    with pytest.raises(ValueError):
        SpDeGemmPhase(name="bad", sparse=sparse, dense_shape=(6, 3))
    with pytest.raises(ValueError):
        SpDeGemmPhase(
            name="bad", sparse=sparse, dense_shape=(5, 3), dense=rng.standard_normal((5, 4))
        )


def test_build_model_workloads(small_model):
    workloads = build_model_workloads(small_model)
    assert len(workloads) == small_model.num_layers
    assert all(w.num_nodes == small_model.num_nodes for w in workloads)
