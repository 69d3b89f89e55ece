"""Workload descriptions consumed by the accelerator simulators.

A GCN layer executed in the ``A (X W)`` order is two consecutive sparse-dense
GEMMs (paper Section II-B):

* combination — sparse-or-dense X times dense W, and
* aggregation  — sparse A times the dense XW produced by combination.

A :class:`SpDeGemmPhase` describes one such GEMM; a :class:`LayerWorkload`
bundles the two phases of one layer.  Simulators only ever see these
descriptions, so GROW and the baselines are guaranteed to run identical work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gcn.layer import GCNLayer, GCNModel
from repro.sparse.csr import CSRMatrix


@dataclass
class SpDeGemmPhase:
    """One sparse-dense GEMM: ``output = sparse @ dense``.

    Attributes:
        name: ``"combination"`` or ``"aggregation"``.
        sparse: the LHS matrix in CSR form (A for aggregation, X for combination).
        dense_shape: shape of the dense RHS matrix (K, N).
        dense: the materialised RHS, set only for functional verification
            (``build_layer_workload(..., materialize=True)``); the cycle
            models read ``dense_shape`` alone, so simulation bundles leave
            it ``None``.
        rhs_resident: True when the RHS is small enough to be pinned on-chip
            for the whole phase (the weight matrix W during combination).
    """

    name: str
    sparse: CSRMatrix
    dense_shape: tuple[int, int]
    dense: np.ndarray | None = None
    rhs_resident: bool = False

    def __post_init__(self) -> None:
        if self.sparse.n_cols != self.dense_shape[0]:
            raise ValueError(
                f"phase {self.name}: sparse columns ({self.sparse.n_cols}) must match "
                f"dense rows ({self.dense_shape[0]})"
            )
        if self.dense is not None and tuple(self.dense.shape) != tuple(self.dense_shape):
            raise ValueError("dense matrix shape does not match dense_shape")

    @property
    def output_shape(self) -> tuple[int, int]:
        return (self.sparse.n_rows, self.dense_shape[1])

    @property
    def rhs_cols(self) -> int:
        return self.dense_shape[1]

    @property
    def rhs_row_bytes(self) -> int:
        """Bytes of one dense RHS row (64-bit values)."""
        return self.dense_shape[1] * 8

    @property
    def mac_operations(self) -> int:
        """Effectual MACs: one per sparse non-zero per RHS column."""
        return self.sparse.nnz * self.dense_shape[1]

    @property
    def output_bytes(self) -> int:
        """Bytes of the dense output matrix."""
        return self.output_shape[0] * self.output_shape[1] * 8

    @property
    def dense_bytes(self) -> int:
        """Bytes of the full dense RHS matrix."""
        return self.dense_shape[0] * self.dense_shape[1] * 8

    def reference_output(self) -> np.ndarray:
        """Ground-truth product, available when the dense RHS is materialised."""
        if self.dense is None:
            raise ValueError(f"phase {self.name} has no materialised dense matrix")
        return self.sparse.matmul_dense(self.dense)


@dataclass
class LayerWorkload:
    """The two SpDeGEMM phases of one GCN layer, in execution order."""

    name: str
    combination: SpDeGemmPhase
    aggregation: SpDeGemmPhase

    @property
    def phases(self) -> list[SpDeGemmPhase]:
        return [self.combination, self.aggregation]

    @property
    def num_nodes(self) -> int:
        return self.aggregation.sparse.n_rows

    @property
    def mac_operations(self) -> int:
        return self.combination.mac_operations + self.aggregation.mac_operations


def build_layer_workload(layer: GCNLayer, materialize: bool = False) -> LayerWorkload:
    """Build the workload of one GCN layer.

    Args:
        layer: the GCN layer (adjacency, features, weights).
        materialize: when True, the dense RHS matrices (W and the XW
            product, computed here) are stored on the phases so
            :meth:`SpDeGemmPhase.reference_output` and ``compute_output`` can
            verify functional correctness.  The default builds the
            structure-only workload the cycle models consume.
    """
    weight = layer.weight
    combination = SpDeGemmPhase(
        name="combination",
        sparse=layer.features,
        dense_shape=weight.shape,
        dense=weight if materialize else None,
        rhs_resident=True,
    )
    aggregation = SpDeGemmPhase(
        name="aggregation",
        sparse=layer.adjacency,
        dense_shape=(layer.num_nodes, layer.out_features),
        dense=layer.combination() if materialize else None,
        rhs_resident=False,
    )
    return LayerWorkload(name=layer.name, combination=combination, aggregation=aggregation)


def build_model_workloads(model: GCNModel, materialize: bool = False) -> list[LayerWorkload]:
    """Build the per-layer workloads of a whole GCN model."""
    return [build_layer_workload(layer, materialize=materialize) for layer in model.layers]
