"""Tests of the block-major data plane (repro.sparse.blockstore)."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import HardwareConfig, HeterogeneousTrainer, load_dataset
from repro.core.algorithms import build_grid, effective_hardware, get_algorithm
from repro.core.partition import nonuniform_partition, uniform_partition
from repro.core.schedulers import HSGDStarScheduler
from repro.core.tasks import Task
from repro.datasets import generate_synthetic_matrix, get_dataset
from repro.exceptions import InvalidMatrixError
from repro.sparse import (
    BlockData,
    BlockStore,
    balanced_boundaries,
    merge_block_data,
    uniform_boundaries,
)


def _assert_global_ratings(data, matrix, indices):
    """``data`` holds exactly the ratings at ``indices``, band-localised."""
    np.testing.assert_array_equal(
        data.local_rows + data.row_range[0], matrix.rows[indices]
    )
    np.testing.assert_array_equal(
        data.local_cols + data.col_range[0], matrix.cols[indices]
    )
    np.testing.assert_array_equal(data.vals, matrix.vals[indices])


class TestBlockDataFromSlice:
    def test_round_trip_matches_index_gathering(self, small_matrix, grid_from_bounds):
        """BlockData must hold exactly what gathering block.indices yields."""
        rows = balanced_boundaries(small_matrix.row_counts(), 4)
        cols = balanced_boundaries(small_matrix.col_counts(), 3)
        grid = grid_from_bounds(small_matrix, rows, cols)
        for block in grid.iter_blocks():
            data = BlockData.from_slice(small_matrix, block)
            _assert_global_ratings(data, small_matrix, block.indices)
            assert data.nnz == block.nnz
            assert data.row_range == block.row_range
            assert data.col_range == block.col_range

    def test_local_indices_are_band_relative(self, small_matrix, grid_from_bounds):
        rows = uniform_boundaries(small_matrix.n_rows, 3)
        cols = uniform_boundaries(small_matrix.n_cols, 2)
        grid = grid_from_bounds(small_matrix, rows, cols)
        for block in grid.iter_blocks():
            data = BlockData.from_slice(small_matrix, block)
            np.testing.assert_array_equal(
                data.local_rows, small_matrix.rows[block.indices] - block.row_range[0]
            )
            np.testing.assert_array_equal(
                data.local_cols, small_matrix.cols[block.indices] - block.col_range[0]
            )
            if data.nnz:
                assert data.local_rows.min() >= 0
                assert data.local_rows.max() < block.p_rows
                assert data.local_cols.min() >= 0
                assert data.local_cols.max() < block.q_cols

    def test_arrays_are_contiguous_typed_and_read_only(
        self, small_matrix, grid_from_bounds
    ):
        grid = grid_from_bounds(
            small_matrix,
            uniform_boundaries(small_matrix.n_rows, 2),
            uniform_boundaries(small_matrix.n_cols, 2),
        )
        data = BlockData.from_slice(small_matrix, grid.block(0, 0))
        assert not hasattr(data, "rows") and not hasattr(data, "cols")
        for array, dtype in (
            (data.vals, np.float64),
            (data.local_rows, np.int64),
            (data.local_cols, np.int64),
        ):
            assert array.dtype == dtype
            assert array.flags.c_contiguous
            assert not array.flags.writeable


class TestBlockDataValidation:
    def test_out_of_band_rows_rejected(self):
        with pytest.raises(InvalidMatrixError, match="outside the row band"):
            BlockData.from_arrays(
                rows=np.array([5]), cols=np.array([0]), vals=np.array([1.0]),
                row_range=(0, 3), col_range=(0, 2),
            )

    def test_out_of_band_cols_rejected(self):
        with pytest.raises(InvalidMatrixError, match="outside the column band"):
            BlockData.from_arrays(
                rows=np.array([1]), cols=np.array([4]), vals=np.array([1.0]),
                row_range=(0, 3), col_range=(0, 2),
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidMatrixError, match="equal length"):
            BlockData.from_arrays(
                rows=np.array([1, 2]), cols=np.array([0]), vals=np.array([1.0]),
                row_range=(0, 3), col_range=(0, 2),
            )

    def test_invalid_ranges_rejected(self):
        with pytest.raises(InvalidMatrixError, match="invalid block ranges"):
            BlockData.from_arrays(
                rows=np.array([], dtype=np.int64),
                cols=np.array([], dtype=np.int64),
                vals=np.array([]),
                row_range=(3, 1), col_range=(0, 2),
            )

    def test_does_not_freeze_caller_arrays(self):
        rows = np.array([0, 1], dtype=np.int64)
        cols = np.array([0, 1], dtype=np.int64)
        vals = np.array([1.0, 2.0])
        BlockData.from_arrays(rows, cols, vals, (0, 2), (0, 2))
        assert rows.flags.writeable and cols.flags.writeable and vals.flags.writeable

    def test_bad_indices_rejected(self, tiny_matrix):
        class FakeBlock:
            indices = np.array([10_000])
            row_range = (0, 6)
            col_range = (0, 5)

        with pytest.raises(InvalidMatrixError, match="outside"):
            BlockData.from_slice(tiny_matrix, FakeBlock())


def _grid_and_scheduler(train):
    grid = nonuniform_partition(train, alpha=0.3, n_cpu_threads=4, n_gpus=1)
    return grid, HSGDStarScheduler(grid, 4, 1, seed=0)


class TestBlockStore:
    def test_block_records_are_cached(self, small_split):
        train, _ = small_split
        grid, _ = _grid_and_scheduler(train)
        store = BlockStore(train)
        block = grid.blocks[0][0]
        assert store.block_data(block) is store.block_data(block)

    def test_single_block_task_shares_block_record(self, small_split):
        train, _ = small_split
        grid, _ = _grid_and_scheduler(train)
        store = BlockStore(train)
        block = grid.blocks[0][0]
        task = Task(blocks=[block], worker_index=0)
        assert store.task_data(task) is store.block_data(block)

    def test_multi_block_task_concatenates_in_block_order(self, small_split):
        """Multi-block records hold the blocks' ratings in block order,
        localised to the covering interval."""
        train, _ = small_split
        grid, _ = _grid_and_scheduler(train)
        gpu_blocks = [row[1] for row in grid.blocks[:2]]
        task = Task(blocks=gpu_blocks, worker_index=4)
        store = BlockStore(train)
        data = store.task_data(task)

        assert data.row_range[0] == min(b.row_range[0] for b in gpu_blocks)
        assert data.row_range[1] == max(b.row_range[1] for b in gpu_blocks)
        idx = np.concatenate([block.indices for block in gpu_blocks])
        _assert_global_ratings(data, train, idx)
        # And the merged record is cached as well.
        assert store.task_data(task) is data

    def test_scheduler_tasks_round_trip(self, small_split):
        """Every task an HSGD* scheduler emits must round-trip through the
        store to exactly the ratings its blocks' indices select."""
        train, _ = small_split
        _, scheduler = _grid_and_scheduler(train)
        store = BlockStore(train)
        scheduler.start_iteration()
        seen = 0
        for worker in range(scheduler.n_workers):
            task = scheduler.next_task(worker)
            if task is None:
                continue
            data = store.task_data(task)
            idx = np.concatenate([block.indices for block in task.blocks])
            _assert_global_ratings(data, train, idx)
            seen += 1
            scheduler.complete_task(task)
        assert seen > 0

    def test_repr(self, small_matrix):
        store = BlockStore(small_matrix)
        assert "cached_blocks=0" in repr(store)
        assert store.matrix is small_matrix


def test_merge_shifts_local_indices_to_the_covering_origin():
    a = BlockData.from_arrays([2, 3], [5, 6], [1.0, 2.0], (2, 4), (5, 7))
    b = BlockData.from_arrays([0], [9], [3.0], (0, 2), (8, 10))
    merged = merge_block_data([a, b])
    assert merged.row_range == (0, 4) and merged.col_range == (5, 10)
    np.testing.assert_array_equal(merged.local_rows, [2, 3, 0])
    np.testing.assert_array_equal(merged.local_cols, [0, 1, 4])
    np.testing.assert_array_equal(merged.vals, [1.0, 2.0, 3.0])
    assert not merged.local_rows.flags.writeable


# --------------------------------------------------------------------------- #
# Pinned block layout
# --------------------------------------------------------------------------- #
def _layout_digests(matrix, grid) -> dict:
    """sha256 of every cell's indices and every block record, in grid order.

    Each block's ratings must reach the kernels in the same order and with
    the same band-local coordinates, so these digests pin the layout the
    engine digests rest on, one level down.
    """
    hashers = {
        name: hashlib.sha256()
        for name in ("indices", "vals", "local_rows", "local_cols", "ranges")
    }
    store = BlockStore(matrix)
    for block in grid.iter_blocks():
        data = store.block_data(block)
        hashers["indices"].update(np.asarray(block.indices, np.int64).tobytes())
        for name in ("vals", "local_rows", "local_cols"):
            hashers[name].update(getattr(data, name).tobytes())
        bounds = data.row_range + data.col_range + (data.nnz,)
        hashers["ranges"].update(np.array(bounds, dtype=np.int64).tobytes())
    return {name: hasher.hexdigest() for name, hasher in hashers.items()}


def _matrix_930k():
    """A fresh 930k-rating Netflix-shaped matrix (no caches from other tests)."""
    config = dataclasses.replace(
        get_dataset("netflix").synthetic,
        n_rows=80_000, n_cols=6_000, n_ratings=930_000, seed=7,
    )
    return generate_synthetic_matrix(config)[0]


#: Digests recorded before the grid build became one counting pass and
#: ``BlockData`` dropped its global-coordinate arrays.
PINNED_LAYOUT_DIGESTS = {
    "netflix": {
        "indices": "fdb420dac841a4263920bf5dac87897a0c5d188df6f780cc7580d98f6b35fcf4",
        "vals": "53d95268fe2cd9f6e5d9d94f4b4ae3e5c821ec72b7f40f788de4b3a96baab8ba",
        "local_rows": "1e91c8b6f90b8d6cca946c2488495d53bf4061bdb729b9a68d9c7061ea4e6669",
        "local_cols": "af9040e21a8515467a5986d9c946ccabbe2d8df5f7e6a943d56da122aec2a772",
        "ranges": "3f0fb0ad0726c80898bf1ec3731ef6773da19fc096b9defdca4912d9f1263d23",
    },
    "930k": {
        "indices": "9c3d3b8b0dbe17f6d891637a62942761dc297f1acb29a93898cc5ef3a7d59724",
        "vals": "d953835a5400bb96cb0114fdd5168cf693a68d263db551df680f8c35934b0f8a",
        "local_rows": "1d617df47edd269d0ce93207e88534a60da7a39ae8f12c5f3c604e220decd064",
        "local_cols": "c6daa4b9be8eb984943d43853319fad33e964f87d71275059732342b1d6726bd",
        "ranges": "d8a05c7ce6c51f1240f077cb9556d80328c61a50f377ed96e14ba017b0c9ff07",
    },
}


class TestBlockLayoutPinned:
    def test_netflix_hsgd_star_grid(self):
        """The grid of the simulated paper-machine run: registry Netflix
        analogue, seed 1, HSGD* on the default hardware at its alpha."""
        data = load_dataset("netflix", seed=1)
        hardware = HardwareConfig()
        trainer = HeterogeneousTrainer(
            "hsgd_star",
            hardware,
            training=data.spec.recommended_training(seed=1),
            seed=1,
        )
        alpha = trainer.workload_split(data.train).alpha
        spec = get_algorithm("hsgd_star")
        grid = build_grid(
            spec, data.train, effective_hardware(spec, hardware), alpha=alpha
        )
        assert _layout_digests(data.train, grid) == PINNED_LAYOUT_DIGESTS["netflix"]

    @pytest.mark.slow
    def test_930k_grid(self):
        matrix = _matrix_930k()
        grid = uniform_partition(matrix, 20, 33)
        assert (grid.n_row_bands, grid.n_col_bands) == (20, 33)
        assert _layout_digests(matrix, grid) == PINNED_LAYOUT_DIGESTS["930k"]


@pytest.mark.slow
def test_block_layout_memory_budget():
    """The grid plus every block's record stays within 36 bytes per rating.

    One int64 position per rating in the shared permutation, plus the
    records' float64 values and two int64 band-local index arrays: 32
    B/rating and a little bookkeeping.  tracemalloc counts numpy's
    allocations, so the bound is exact and independent of wall time;
    the input matrix is allocated before tracing starts.
    """
    import tracemalloc

    matrix = _matrix_930k()
    tracemalloc.start()
    try:
        grid = uniform_partition(matrix, 20, 33)
        store = BlockStore(matrix)
        records = [store.block_data(block) for block in grid.iter_blocks()]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(record.nnz for record in records) == matrix.nnz
    assert peak / matrix.nnz <= 36
