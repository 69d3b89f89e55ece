"""Feature and weight matrix generation with controlled density.

The paper's Table I reports the density of the input feature matrix X(0) and
the hidden feature matrix X(1) for every dataset; the weight matrices W are
always fully dense.  These generators produce matrices with exactly those
densities so the characterisation experiments (Figures 3, 5, 6) reproduce the
published sparsity structure.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.sparse.csr import CSRMatrix

#: Elements per row chunk of :func:`generate_feature_csr`: its dense
#: transients stay at about 8 MB each whatever the matrix size.  Much
#: smaller chunks cost time elsewhere: glibc raises its dynamic mmap
#: threshold to the largest freed mmapped block, and 1 MB chunks left it so
#: low that DSE pool workers page-faulted every multi-MB cycle-model
#: temporary afresh (about 6x the minor faults, 40 % more dse-sizing wall).
_CHUNK_ELEMENTS = 1 << 20


def generate_feature_csr(
    num_rows: int,
    num_cols: int,
    density: float,
    rng: np.random.Generator | None = None,
) -> CSRMatrix:
    """Feature matrix X in CSR with the requested fraction of non-zero entries.

    Non-zero positions are uniformly random; values are positive (as produced
    by a ReLU), drawn from a half-normal distribution.

    X is generated a few rows at a time and never exists densely, yet
    ``rng`` is consumed exactly as by one whole-matrix draw: all
    ``num_rows * num_cols`` normals, then (for ``density < 1``) as many
    uniforms for the mask.  The values, their positions and the generator
    state afterwards therefore do not depend on the chunk size.  Because the
    normal sampler consumes a data-dependent number of raw draws, a discard
    pass first moves ``rng`` to the start of the uniform stream; a copy taken
    before it then redraws the normals chunk by chunk beside the uniforms.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    chunk_rows = max(1, _CHUNK_ELEMENTS // max(num_cols, 1))
    starts = range(0, num_rows, chunk_rows)
    shapes = [(min(chunk_rows, num_rows - start), num_cols) for start in starts]
    masked = density < 1.0
    normals = rng
    if masked:
        normals = copy.deepcopy(rng)
        for shape in shapes:
            rng.standard_normal(shape)
    counts = [np.zeros(1, dtype=np.int64)]
    indices = [np.empty(0, dtype=np.int64)]
    data = [np.empty(0, dtype=np.float64)]
    for shape in shapes:
        chunk = normals.standard_normal(shape)
        np.abs(chunk, out=chunk)
        if masked:
            chunk *= rng.random(shape) < density
        flat = np.flatnonzero(chunk)
        counts.append(np.bincount(flat // num_cols, minlength=shape[0]))
        indices.append(flat % num_cols)
        data.append(chunk.reshape(-1)[flat])
    return CSRMatrix(
        shape=(num_rows, num_cols),
        indptr=np.cumsum(np.concatenate(counts)),
        indices=np.concatenate(indices),
        data=np.concatenate(data),
    )


def generate_weight_matrix(
    num_rows: int,
    num_cols: int,
    rng: np.random.Generator | None = None,
    scale: float | None = None,
) -> np.ndarray:
    """Fully dense weight matrix with Glorot-style initialisation."""
    if rng is None:
        rng = np.random.default_rng(0)
    if scale is None:
        scale = float(np.sqrt(2.0 / (num_rows + num_cols)))
    return rng.standard_normal((num_rows, num_cols)) * scale


def measured_density(matrix: np.ndarray, tolerance: float = 0.0) -> float:
    """Fraction of entries whose magnitude exceeds ``tolerance``."""
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        return 0.0
    return float((np.abs(matrix) > tolerance).sum()) / matrix.size
