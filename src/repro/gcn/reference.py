"""Numpy reference execution of GCN inference.

Every accelerator simulator in this repository optionally checks its computed
output against these reference kernels, which guarantees that the dataflow
models (row-wise, outer-product, tiled) are functionally equivalent.
"""

from __future__ import annotations

import numpy as np

from repro.gcn.layer import GCNLayer, GCNModel
from repro.sparse.csr import CSRMatrix


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def gcn_layer_forward(
    adjacency: CSRMatrix,
    features: np.ndarray,
    weight: np.ndarray,
    apply_relu: bool = True,
) -> np.ndarray:
    """Reference single-layer forward pass ``sigma(A (X W))``."""
    xw = np.asarray(features, dtype=np.float64) @ np.asarray(weight, dtype=np.float64)
    out = adjacency.matmul_dense(xw)
    return relu(out) if apply_relu else out


def gcn_model_forward(model: GCNModel) -> np.ndarray:
    """Reference end-to-end forward pass of a model (delegates to the model)."""
    return model.forward()


def layer_output_reference(layer: GCNLayer) -> np.ndarray:
    """Reference output of one already-constructed layer."""
    return gcn_layer_forward(
        layer.adjacency, layer.features.to_dense(), layer.weight, layer.apply_relu
    )
