"""Differential tests: the simulator kernels against their reference oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracles import dense_feature_csr, hash_tile_statistics, searchsorted_lookup
from repro.accelerators.gcnax import _tile_statistics
from repro.core.hdn_cache import HDNIdList
from repro.gcn import features
from repro.sparse.csr import CSRMatrix

id_lists = st.lists(st.integers(min_value=0, max_value=40), max_size=12)


@st.composite
def csr_matrices(draw):
    """Small CSR matrices: empty rows, unsorted and repeated column indices."""
    n_rows = draw(st.integers(min_value=0, max_value=24))
    n_cols = draw(st.integers(min_value=0, max_value=24))
    columns = st.integers(min_value=0, max_value=max(n_cols - 1, 0))
    rows = [
        draw(st.lists(columns, max_size=8 if n_cols else 0)) for _ in range(n_rows)
    ]
    indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows], dtype=np.int64)))
    indices = np.array([col for row in rows for col in row], dtype=np.int64)
    return CSRMatrix(
        shape=(n_rows, n_cols),
        indptr=indptr,
        indices=indices,
        data=np.ones(indices.size),
    )


def assert_same_tile_stats(sparse, tile_rows, tile_cols):
    got = _tile_statistics(sparse, tile_rows, tile_cols)
    want = hash_tile_statistics(sparse, tile_rows, tile_cols)
    assert got.num_tiles == want.num_tiles
    np.testing.assert_array_equal(got.nnz_per_tile, want.nnz_per_tile)
    np.testing.assert_array_equal(got.distinct_cols_per_tile, want.distinct_cols_per_tile)
    assert got.nnz_per_tile.dtype == want.nnz_per_tile.dtype == np.int64
    assert got.distinct_cols_per_tile.dtype == np.int64


@given(
    csr_matrices(),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=200, deadline=None)
def test_tile_statistics_match_hash_oracle(sparse, tile_rows, tile_cols):
    assert_same_tile_stats(sparse, tile_rows, tile_cols)


def test_tile_statistics_match_oracle_on_edge_shapes():
    # Empty matrix, all-empty rows, unit tiles, and a column count that is
    # not a multiple of the tile width.
    assert_same_tile_stats(CSRMatrix.empty((0, 0)), 4, 4)
    assert_same_tile_stats(CSRMatrix.empty((7, 5)), 2, 3)
    dense = np.zeros((9, 11))
    dense[[0, 0, 3, 8, 8], [10, 2, 5, 0, 10]] = 1.0
    sparse = CSRMatrix.from_dense(dense)
    for tile_rows, tile_cols in [(1, 1), (4, 4), (9, 11), (2, 20)]:
        assert_same_tile_stats(sparse, tile_rows, tile_cols)


def test_tile_statistics_match_oracle_on_power_law_graph(large_workloads):
    sparse = large_workloads[0].aggregation.sparse
    for tile_rows, tile_cols in [(32, 32), (16, 64), (1, 1)]:
        assert_same_tile_stats(sparse, tile_rows, tile_cols)


@given(
    st.lists(id_lists, min_size=1, max_size=4),
    st.lists(st.integers(min_value=-5, max_value=60), max_size=30),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_id_list_lookup_matches_searchsorted_oracle(loads, columns, capacity, universe):
    # Successive loads reuse the bitmap, columns repeat and fall outside it,
    # and a load may be empty or grow the bitmap past ``universe``.
    id_list = HDNIdList(capacity=capacity, universe=universe)
    columns = np.array(columns, dtype=np.int64)
    for load in loads:
        id_list.load(np.array(load, dtype=np.int64))
        resident = list(dict.fromkeys(load))[:capacity]
        np.testing.assert_array_equal(id_list.node_ids, resident)
        np.testing.assert_array_equal(
            id_list.lookup(columns), searchsorted_lookup(resident, columns)
        )


def test_id_list_lookup_matches_oracle_on_empty_inputs():
    id_list = HDNIdList(capacity=4, universe=8)
    columns = np.array([0, 3, 3, 7, 8, 100, -1])
    np.testing.assert_array_equal(id_list.lookup(columns), searchsorted_lookup([], columns))
    id_list.load(np.array([3, 100]))
    np.testing.assert_array_equal(
        id_list.lookup(columns), searchsorted_lookup([3, 100], columns)
    )
    assert id_list.lookup(np.empty(0, dtype=np.int64)).shape == (0,)


def assert_same_feature_csr(num_rows, num_cols, density, seed, chunk_rows=None):
    got_rng = np.random.default_rng(seed)
    want_rng = np.random.default_rng(seed)
    chunk_elements = features._CHUNK_ELEMENTS if chunk_rows is None else chunk_rows * num_cols
    with mock.patch.object(features, "_CHUNK_ELEMENTS", chunk_elements):
        got = features.generate_feature_csr(num_rows, num_cols, density, got_rng)
    want = dense_feature_csr(num_rows, num_cols, density, want_rng)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)
    # The stream continues exactly where the one-shot draw left it, so the
    # weight matrix drawn next is unchanged.
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    np.testing.assert_array_equal(got_rng.standard_normal(3), want_rng.standard_normal(3))


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=12),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_chunked_feature_csr_matches_dense_oracle(num_rows, num_cols, density, seed, chunk_rows):
    assert_same_feature_csr(num_rows, num_cols, density, seed, chunk_rows)


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
@pytest.mark.parametrize(
    "num_rows, chunk_rows",
    [(0, 4), (3, 8), (10, 4), (12, 4), (1, 1)],
    ids=["no-rows", "under-one-chunk", "ragged-last-chunk", "whole-chunks", "single-row"],
)
def test_chunked_feature_csr_matches_oracle_on_edge_shapes(num_rows, chunk_rows, density):
    assert_same_feature_csr(num_rows, 7, density, seed=11, chunk_rows=chunk_rows)


def test_chunked_feature_csr_matches_oracle_with_default_chunks():
    # Two default-sized chunks, the second one ragged.
    num_cols = 64
    num_rows = features._CHUNK_ELEMENTS // num_cols + 1000
    assert_same_feature_csr(num_rows, num_cols, 0.05, seed=2)
