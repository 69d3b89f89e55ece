"""Reference implementations of simulator kernels, kept as test oracles.

They compute the HDN ID list's hit mask by binary search, GCNAX's tile
statistics by hash ``np.unique``, and a feature matrix as one dense draw;
``test_kernel_oracles.py`` checks the simulator's O(nnz) kernels and the
chunked CSR feature generator against them.
"""

from __future__ import annotations

import numpy as np

from repro.accelerators.gcnax import _TileStats
from repro.sparse.convert import dense_to_csr
from repro.sparse.csr import CSRMatrix


def searchsorted_lookup(node_ids: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """HDN ID list membership by binary search of the sorted, distinct ids."""
    ids = np.unique(np.asarray(node_ids, dtype=np.int64))
    columns = np.asarray(columns, dtype=np.int64)
    if ids.size == 0:
        return np.zeros(columns.shape, dtype=bool)
    pos = np.searchsorted(ids, columns)
    pos[pos == ids.size] = 0
    return ids[pos] == columns


def hash_tile_statistics(sparse, tile_rows: int, tile_cols: int) -> _TileStats:
    """GCNAX tile statistics from hash ``np.unique`` over tile and pair keys."""
    n_rows, n_cols = sparse.shape
    grid_cols = (n_cols + tile_cols - 1) // tile_cols
    row_of_nnz = np.repeat(np.arange(n_rows), sparse.row_nnz())
    if row_of_nnz.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return _TileStats(num_tiles=0, nnz_per_tile=empty, distinct_cols_per_tile=empty)
    tile_row = row_of_nnz // tile_rows
    tile_col = sparse.indices // tile_cols
    tile_id = tile_row * grid_cols + tile_col

    occupied, nnz_per_tile = np.unique(tile_id, return_counts=True)

    pair_key = tile_id * np.int64(n_cols) + sparse.indices
    unique_pairs = np.unique(pair_key)
    pair_tile = unique_pairs // np.int64(n_cols)
    distinct_per_tile = np.searchsorted(occupied, pair_tile)
    distinct_counts = np.bincount(distinct_per_tile, minlength=occupied.size)

    return _TileStats(
        num_tiles=int(occupied.size),
        nnz_per_tile=nnz_per_tile.astype(np.int64),
        distinct_cols_per_tile=distinct_counts.astype(np.int64),
    )


def generate_feature_matrix(
    num_rows: int,
    num_cols: int,
    density: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Dense feature matrix drawn in one shot: all normals, then the mask.

    Non-zero positions are uniformly random; values are positive (as produced
    by a ReLU), drawn from a half-normal distribution.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    matrix = rng.standard_normal((num_rows, num_cols))
    np.abs(matrix, out=matrix)
    if density >= 1.0:
        return matrix
    mask = rng.random((num_rows, num_cols)) < density
    matrix *= mask
    return matrix


def dense_feature_csr(
    num_rows: int, num_cols: int, density: float, rng: np.random.Generator
) -> CSRMatrix:
    """:func:`generate_feature_matrix` compressed with ``dense_to_csr``."""
    return dense_to_csr(generate_feature_matrix(num_rows, num_cols, density, rng))
