"""Tests of grid banding and rating bucketing."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidPartitionError
from repro.sparse import (
    SparseRatingMatrix,
    balanced_boundaries,
    bucket_ratings,
    uniform_boundaries,
)


class TestUniformBoundaries:
    def test_covers_extent(self):
        bounds = uniform_boundaries(100, 4)
        assert bounds[0] == 0 and bounds[-1] == 100
        assert len(bounds) == 5

    def test_strictly_increasing(self):
        bounds = uniform_boundaries(10, 7)
        assert np.all(np.diff(bounds) > 0)

    def test_single_part(self):
        assert uniform_boundaries(10, 1).tolist() == [0, 10]

    def test_extent_equal_parts(self):
        bounds = uniform_boundaries(5, 5)
        assert bounds.tolist() == [0, 1, 2, 3, 4, 5]

    def test_rejects_too_many_parts(self):
        with pytest.raises(InvalidPartitionError):
            uniform_boundaries(3, 4)

    def test_rejects_non_positive_parts(self):
        with pytest.raises(InvalidPartitionError):
            uniform_boundaries(10, 0)


class TestBalancedBoundaries:
    def test_balances_skewed_counts(self):
        counts = np.array([100, 1, 1, 1, 1, 1, 1, 1, 1, 100])
        bounds = balanced_boundaries(counts, 2)
        left = counts[bounds[0]:bounds[1]].sum()
        right = counts[bounds[1]:bounds[2]].sum()
        assert abs(int(left) - int(right)) <= 100

    def test_covers_extent(self):
        counts = np.ones(50, dtype=int)
        bounds = balanced_boundaries(counts, 5)
        assert bounds[0] == 0 and bounds[-1] == 50
        assert np.all(np.diff(bounds) > 0)

    def test_zero_counts_fall_back_to_uniform(self):
        bounds = balanced_boundaries(np.zeros(10, dtype=int), 2)
        assert bounds.tolist() == [0, 5, 10]

    def test_rejects_more_parts_than_indices(self):
        with pytest.raises(InvalidPartitionError):
            balanced_boundaries(np.ones(3, dtype=int), 5)

    def test_balanced_on_real_counts(self, small_matrix):
        bounds = balanced_boundaries(small_matrix.row_counts(), 6)
        sums = [
            small_matrix.row_counts()[bounds[i]:bounds[i + 1]].sum()
            for i in range(6)
        ]
        assert max(sums) <= 2.0 * small_matrix.nnz / 6


class TestGridBucketing:
    def test_every_rating_in_exactly_one_block(self, small_matrix, grid_from_bounds):
        rows = balanced_boundaries(small_matrix.row_counts(), 4)
        cols = balanced_boundaries(small_matrix.col_counts(), 3)
        grid = grid_from_bounds(small_matrix, rows, cols)
        assert grid.total_nnz == small_matrix.nnz
        all_indices = np.concatenate([block.indices for block in grid.iter_blocks()])
        assert len(np.unique(all_indices)) == small_matrix.nnz

    def test_blocks_respect_ranges(self, small_matrix, grid_from_bounds):
        rows = uniform_boundaries(small_matrix.n_rows, 3)
        cols = uniform_boundaries(small_matrix.n_cols, 2)
        grid = grid_from_bounds(small_matrix, rows, cols)
        for block in grid.iter_blocks():
            if block.nnz == 0:
                continue
            r = small_matrix.rows[block.indices]
            c = small_matrix.cols[block.indices]
            assert r.min() >= block.row_range[0]
            assert r.max() < block.row_range[1]
            assert c.min() >= block.col_range[0]
            assert c.max() < block.col_range[1]

    def test_grid_shape(self, tiny_matrix, grid_from_bounds):
        grid = grid_from_bounds(tiny_matrix, [0, 3, 6], [0, 2, 5])
        assert len(grid.blocks) == 2
        assert len(grid.blocks[0]) == 2

    def test_single_block_via_grid_bucketing(self, tiny_matrix, grid_from_bounds):
        """The one-pass grid bucketing serves ad-hoc single-block lookups
        (the migration target of the removed extract_block shim)."""
        reference = (
            (tiny_matrix.rows >= 1)
            & (tiny_matrix.rows < 4)
            & (tiny_matrix.cols >= 1)
            & (tiny_matrix.cols < 3)
        )
        grid = grid_from_bounds(tiny_matrix, [0, 1, 4, 6], [0, 1, 3, 5])
        np.testing.assert_array_equal(
            grid.block(1, 1).indices, np.nonzero(reference)[0]
        )

    def test_block_indices_are_read_only_views(self, small_matrix, grid_from_bounds):
        """Every block's indices view one shared permutation: no per-cell copy."""
        grid = grid_from_bounds(
            small_matrix,
            uniform_boundaries(small_matrix.n_rows, 3),
            uniform_boundaries(small_matrix.n_cols, 2),
        )
        order = grid.block(0, 0).indices.base
        assert order is not None and len(order) == small_matrix.nnz
        for block in grid.iter_blocks():
            assert block.indices.base is order
            assert block.indices.dtype == np.int64
            assert not block.indices.flags.writeable

    def test_extract_block_shim_is_gone(self):
        """PR 2 deprecated extract_block; this PR removes it for good."""
        import repro.sparse
        import repro.sparse.blocking

        assert not hasattr(repro.sparse, "extract_block")
        assert not hasattr(repro.sparse.blocking, "extract_block")
        assert "extract_block" not in repro.sparse.__all__

    def test_invalid_boundaries_rejected(self, tiny_matrix, grid_from_bounds):
        with pytest.raises(InvalidPartitionError):
            grid_from_bounds(tiny_matrix, [0, 6], [0, 3, 3, 5])
        with pytest.raises(InvalidPartitionError):
            grid_from_bounds(tiny_matrix, [1, 6], [0, 5])
        with pytest.raises(InvalidPartitionError):
            grid_from_bounds(tiny_matrix, [0, 4], [0, 5])
        with pytest.raises(InvalidPartitionError):
            bucket_ratings(tiny_matrix, [1, 6], [0, 5])

    def test_block_repr(self, tiny_matrix, grid_from_bounds):
        grid = grid_from_bounds(tiny_matrix, [0, 6], [0, 5])
        assert "nnz=13" in repr(grid.block(0, 0))


# --------------------------------------------------------------------------- #
# Property: bucket_ratings is a partition of the ratings by cell
# --------------------------------------------------------------------------- #
def _assert_bucketing_exact(matrix, row_bounds, col_bounds):
    """Every cell's slice is exactly its mask's positions; each rating once."""
    order, offsets = bucket_ratings(matrix, row_bounds, col_bounds)
    row_band = np.searchsorted(row_bounds, matrix.rows, side="right") - 1
    col_band = np.searchsorted(col_bounds, matrix.cols, side="right") - 1
    n_col_bands = len(col_bounds) - 1
    n_cells = (len(row_bounds) - 1) * n_col_bands
    assert len(offsets) == n_cells + 1
    assert offsets[0] == 0 and offsets[-1] == matrix.nnz
    assert np.all(np.diff(offsets) >= 0)
    assert np.array_equal(np.sort(order), np.arange(matrix.nnz))
    cell_of = row_band * n_col_bands + col_band
    counts = np.bincount(cell_of, minlength=n_cells)
    np.testing.assert_array_equal(np.diff(offsets), counts)
    # The empty cells are checked by the counts; each occupied one here.
    for cell in np.flatnonzero(counts):
        np.testing.assert_array_equal(
            order[offsets[cell] : offsets[cell + 1]], np.flatnonzero(cell_of == cell)
        )


def _bounds(draw, extent):
    inner = set()
    if extent > 1:
        inner = draw(st.sets(st.integers(1, extent - 1), max_size=8))
    return np.array([0, *sorted(inner), extent], dtype=np.int64)


@st.composite
def bucketing_cases(draw):
    """A small matrix — possibly one rating, one occupied row or column —
    with random boundaries, so empty cells are common."""
    n_rows = draw(st.integers(1, 30))
    n_cols = draw(st.integers(1, 30))
    n_ratings = draw(st.integers(1, 120))
    shape = draw(st.sampled_from(["scatter", "one_row", "one_col"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = rng.integers(0, n_rows, n_ratings)
    cols = rng.integers(0, n_cols, n_ratings)
    if shape == "one_row":
        rows[:] = rows[0]
    elif shape == "one_col":
        cols[:] = cols[0]
    matrix = SparseRatingMatrix(
        rows, cols, rng.uniform(1.0, 5.0, n_ratings), shape=(n_rows, n_cols)
    )
    return matrix, _bounds(draw, n_rows), _bounds(draw, n_cols)


class TestBucketRatingsProperty:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(case=bucketing_cases())
    def test_cells_partition_the_ratings(self, case):
        _assert_bucketing_exact(*case)

    def test_one_rating_matrix(self):
        matrix = SparseRatingMatrix(
            np.array([2]), np.array([1]), np.array([4.0]), shape=(3, 3)
        )
        _assert_bucketing_exact(matrix, np.arange(4), np.arange(4))

    def test_uint32_cell_ids(self):
        """300 x 300 bands: 90,000 cells, past the uint16 fast path."""
        from repro.sparse.blocking import _cell_dtype

        assert _cell_dtype(90_000) == np.uint32
        rng = np.random.default_rng(3)
        n_ratings = 5_000
        matrix = SparseRatingMatrix(
            rng.integers(0, 300, n_ratings),
            rng.integers(0, 300, n_ratings),
            rng.uniform(1.0, 5.0, n_ratings),
            shape=(300, 300),
        )
        _assert_bucketing_exact(matrix, np.arange(301), np.arange(301))
