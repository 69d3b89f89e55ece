"""HyGCN baseline: hybrid two-engine GCN accelerator.

HyGCN (Yan et al., HPCA 2020) predates the unified SpDeGEMM designs.  It
executes the ``(A X) W`` order with two separate engines: an aggregation
engine for the sparse-sparse product ``A X`` and a combination (systolic)
engine for the dense product ``(AX) W``.  The paper's Section II-C identifies
its two weaknesses, which this model reproduces:

* the ``(A X) W`` order performs many more MACs than ``A (X W)`` when the
  input features are wide (Figure 2);
* the two engines can be load-imbalanced, so one of them idles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accelerators.base import (
    KB,
    NNZ_BYTES,
    AcceleratorConfig,
    AcceleratorResult,
    PhaseStats,
)
from repro.accelerators.workload import LayerWorkload
from repro.gcn.layer import GCNLayer
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class HyGCNConfig:
    """HyGCN architecture parameters.

    The total compute throughput is split between the two engines so the
    comparison against unified designs is iso-resource.

    Attributes:
        arch: shared architecture parameters (num_macs is the total).
        aggregation_share: fraction of the MACs assigned to the aggregation engine.
        edge_window_rows: size (in feature rows) of the aggregation engine's
            input-feature window cache; references inside the window hit.
    """

    arch: AcceleratorConfig = field(default_factory=AcceleratorConfig)
    aggregation_share: float = 0.5
    edge_window_rows: int = 256
    buffer_bytes: int = 384 * KB


class HyGCNSimulator:
    """Cycle-accounting model of HyGCN executing the ``(A X) W`` order."""

    name = "hygcn"

    def __init__(self, config: HyGCNConfig | None = None) -> None:
        self.config = config or HyGCNConfig()

    def _aggregation_engine(self, adjacency: CSRMatrix, features: CSRMatrix) -> PhaseStats:
        """Sparse-sparse engine computing ``A X`` with a sliding window cache."""
        cfg = self.config
        arch = cfg.arch
        granularity = arch.access_granularity
        num_features = features.n_cols
        feature_row_bytes = num_features * 8
        row_lines = -(-feature_row_bytes // granularity)

        # The window cache captures references to feature rows whose id is
        # within ``edge_window_rows`` of the destination row (HyGCN's vertex
        # interval / edge sharding).
        row_of_nnz = np.repeat(np.arange(adjacency.n_rows), adjacency.row_nnz())
        in_window = np.abs(adjacency.indices - row_of_nnz) < cfg.edge_window_rows
        window_misses = int((~in_window).sum())
        window_hits = int(in_window.sum())

        lhs_requested = adjacency.nnz * NNZ_BYTES
        lhs_transferred = -(-lhs_requested // granularity) * granularity
        # Window fills: each distinct feature row is loaded once per window pass.
        fills = adjacency.n_rows * row_lines * granularity
        miss_traffic = window_misses * row_lines * granularity
        output_bytes = -(-adjacency.n_rows * num_features * 8 // granularity) * granularity

        # (A X) MACs: only non-zero feature entries contribute.  We use the
        # measured feature density to scale the ideal count.
        density = features.density
        mac_ops = int(adjacency.nnz * num_features * density)
        macs = max(1.0, arch.num_macs * cfg.aggregation_share)
        compute_cycles = mac_ops / macs
        dram_read = lhs_transferred + fills + miss_traffic
        memory_cycles = (dram_read + output_bytes) / arch.bytes_per_cycle
        return PhaseStats(
            name="aggregation",
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            mac_operations=mac_ops,
            dram_read_bytes=dram_read,
            dram_write_bytes=output_bytes,
            requested_read_bytes=lhs_requested + (window_misses + adjacency.n_rows) * feature_row_bytes,
            sram_access_bytes={"aggregation_buffer": dram_read},
            extra={"window_hit_rate": window_hits / max(1, adjacency.nnz)},
        )

    def _combination_engine(self, num_nodes: int, in_features: int, out_features: int) -> PhaseStats:
        """Dense systolic engine computing ``(AX) W``."""
        cfg = self.config
        arch = cfg.arch
        granularity = arch.access_granularity
        mac_ops = num_nodes * in_features * out_features
        macs = max(1.0, arch.num_macs * (1.0 - cfg.aggregation_share))
        compute_cycles = mac_ops / macs
        ax_bytes = -(-num_nodes * in_features * 8 // granularity) * granularity
        weight_bytes = -(-in_features * out_features * 8 // granularity) * granularity
        output_bytes = -(-num_nodes * out_features * 8 // granularity) * granularity
        dram_read = ax_bytes + weight_bytes
        memory_cycles = (dram_read + output_bytes) / arch.bytes_per_cycle
        return PhaseStats(
            name="combination",
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            mac_operations=mac_ops,
            dram_read_bytes=dram_read,
            dram_write_bytes=output_bytes,
            requested_read_bytes=dram_read,
            sram_access_bytes={"combination_buffer": dram_read},
        )

    def run_layer_from_gcn(self, layer: GCNLayer) -> AcceleratorResult:
        """Simulate one GCN layer directly (HyGCN needs X, not XW)."""
        agg = self._aggregation_engine(layer.adjacency, layer.features)
        comb = self._combination_engine(layer.num_nodes, layer.in_features, layer.out_features)
        # The two engines are pipelined; the slower one bounds throughput and
        # the imbalance is reported for analysis.
        slower = max(agg.total_cycles, comb.total_cycles)
        imbalance = abs(agg.total_cycles - comb.total_cycles) / max(slower, 1.0)
        result = AcceleratorResult(accelerator=self.name, workload=layer.name)
        result.phases = [agg, comb]
        result.extra["pipeline_cycles"] = slower
        result.extra["load_imbalance"] = imbalance
        result.sram_capacities = {"buffer": self.config.buffer_bytes}
        return result

    def run_layer(self, workload: LayerWorkload) -> AcceleratorResult:
        """Simulate a layer given the standard workload description.

        HyGCN computes ``(A X) W``, so it reads the structure of X (the
        combination phase's sparse matrix) and only the shape of W; the
        dense XW the other dataflows stream never enters.
        """
        agg = self._aggregation_engine(workload.aggregation.sparse, workload.combination.sparse)
        comb = self._combination_engine(
            workload.num_nodes, workload.combination.dense_shape[0], workload.combination.dense_shape[1]
        )
        result = AcceleratorResult(accelerator=self.name, workload=workload.name)
        result.phases = [agg, comb]
        slower = max(agg.total_cycles, comb.total_cycles)
        result.extra["pipeline_cycles"] = slower
        result.extra["load_imbalance"] = abs(agg.total_cycles - comb.total_cycles) / max(slower, 1.0)
        result.sram_capacities = {"buffer": self.config.buffer_bytes}
        return result
