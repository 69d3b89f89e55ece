"""GCN layer and model descriptions.

A :class:`GCNLayer` bundles everything one graph-convolution layer needs:
the normalised adjacency A (sparse), the input feature matrix X (sparse, at
the Table I density), and the weight matrix W (dense).  A :class:`GCNModel`
stacks layers, threading each layer's output features into the next layer's
input, which is how multi-layer inference is simulated end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gcn.features import generate_feature_csr, generate_weight_matrix
from repro.graph.datasets import SyntheticDataset
from repro.graph.graph import Graph
from repro.sparse.convert import dense_to_csr
from repro.sparse.csr import CSRMatrix


@dataclass
class GCNLayer:
    """One graph-convolution layer, ``X_out = sigma(A @ X @ W)``.

    Attributes:
        adjacency: normalised adjacency matrix A in CSR form.
        features: input feature matrix X in CSR form, the layer's only copy
            of X (a dense array is accepted and compressed).  The reference
            paths (:meth:`combination`, :meth:`forward`) densify it on
            demand; the simulators read only its structure.
        weight: dense weight matrix W.
        name: label used in reports (e.g. ``"cora-layer0"``).
        apply_relu: whether the non-linearity is applied to the output.
    """

    adjacency: CSRMatrix
    features: CSRMatrix
    weight: np.ndarray
    name: str = "layer"
    apply_relu: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.features, CSRMatrix):
            self.features = dense_to_csr(self.features)
        self.weight = np.asarray(self.weight, dtype=np.float64)
        n = self.adjacency.n_rows
        if self.adjacency.n_cols != n:
            raise ValueError("adjacency matrix must be square")
        if self.features.n_rows != n:
            raise ValueError(
                f"feature rows ({self.features.n_rows}) must equal number of nodes ({n})"
            )
        if self.weight.shape[0] != self.features.n_cols:
            raise ValueError(
                "weight rows must equal feature columns: "
                f"{self.weight.shape[0]} vs {self.features.n_cols}"
            )

    @property
    def num_nodes(self) -> int:
        return self.adjacency.n_rows

    @property
    def in_features(self) -> int:
        return self.features.n_cols

    @property
    def out_features(self) -> int:
        return self.weight.shape[1]

    @property
    def feature_density(self) -> float:
        """Measured density of the input feature matrix."""
        return self.features.density

    def combination(self) -> np.ndarray:
        """The combination product ``XW`` (dense; X is densified, not cached)."""
        return self.features.to_dense() @ self.weight

    def forward(self, features: np.ndarray | None = None) -> np.ndarray:
        """Reference forward pass ``sigma(A (X W))``.

        ``features`` is a dense X to use in place of the layer's own; the
        model threads each layer's output into the next layer this way.
        """
        xw = self.combination() if features is None else features @ self.weight
        out = self.adjacency.matmul_dense(xw)
        if self.apply_relu:
            out = np.maximum(out, 0.0)
        return out


@dataclass
class GCNModel:
    """A stack of GCN layers sharing one adjacency matrix."""

    layers: list[GCNLayer]
    name: str = "gcn"

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("model must have at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_features != nxt.in_features:
                raise ValueError(
                    f"layer width mismatch: {prev.name} outputs {prev.out_features}, "
                    f"{nxt.name} expects {nxt.in_features}"
                )

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_nodes(self) -> int:
        return self.layers[0].num_nodes

    def forward(self) -> np.ndarray:
        """Reference end-to-end forward pass, re-threading features layer to layer."""
        activations = self.layers[0].features.to_dense()
        for layer in self.layers:
            activations = layer.forward(activations)
        return activations


def build_model_for_dataset(
    dataset: SyntheticDataset,
    seed: int = 0,
    graph: Graph | None = None,
) -> GCNModel:
    """Construct a GCN model matching a dataset's published configuration.

    The feature widths and feature densities come from the dataset spec
    (Table I).  Layer 1's input features are generated at the published X(1)
    density rather than taken from layer 0's output, so each layer's sparsity
    structure matches the paper's characterisation independently of the
    numerical forward pass.  Each X is generated straight into CSR
    (:func:`~repro.gcn.features.generate_feature_csr`).
    """
    rng = np.random.default_rng(seed)
    source_graph = graph if graph is not None else dataset.graph
    adjacency = source_graph.normalized_adjacency()
    layers: list[GCNLayer] = []
    widths = dataset.feature_lengths
    for layer_idx in range(dataset.num_layers):
        in_width, out_width = widths[layer_idx], widths[layer_idx + 1]
        density = dataset.feature_density(layer_idx)
        features = generate_feature_csr(dataset.num_nodes, in_width, density, rng)
        weight = generate_weight_matrix(in_width, out_width, rng)
        layers.append(
            GCNLayer(
                adjacency=adjacency,
                features=features,
                weight=weight,
                name=f"{dataset.name}-layer{layer_idx}",
                apply_relu=layer_idx < dataset.num_layers - 1,
            )
        )
    return GCNModel(layers=layers, name=dataset.name)
