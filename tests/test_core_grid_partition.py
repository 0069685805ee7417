"""Tests of the block grid, locks, tasks and matrix-division strategies."""

import numpy as np
import pytest

from repro.core import (
    BlockGrid,
    GridBlock,
    LockTable,
    Region,
    RowBand,
    Task,
    gpu_only_partition,
    nonuniform_partition,
    rule1_grid_shape,
    uniform_partition,
)
from repro.core.partition import hsgd_partition
from repro.exceptions import InvalidPartitionError, SchedulingError


class TestRule1:
    def test_paper_example(self):
        """16 CPU threads + 1 GPU need at least an 18 x 17 grid."""
        assert rule1_grid_shape(16, 1) == (18, 17)

    def test_cpu_only(self):
        assert rule1_grid_shape(4, 0) == (5, 4)

    def test_single_worker(self):
        assert rule1_grid_shape(1, 0) == (2, 1)

    def test_rejects_no_workers(self):
        with pytest.raises(InvalidPartitionError):
            rule1_grid_shape(0, 0)


class TestUniformPartition:
    def test_covers_matrix(self, small_matrix):
        grid = uniform_partition(small_matrix, 5, 4)
        assert grid.n_row_bands == 5
        assert grid.n_col_bands == 4
        assert grid.total_nnz == small_matrix.nnz

    def test_blocks_are_shared_region(self, small_matrix):
        grid = uniform_partition(small_matrix, 3, 3)
        assert all(block.region == Region.SHARED for block in grid.iter_blocks())

    def test_blocks_load_balanced(self, small_matrix):
        grid = uniform_partition(small_matrix, 4, 4)
        nnz = grid.nnz_matrix()
        expected = small_matrix.nnz / 16
        assert nnz.max() < 4 * expected

    def test_band_count_clamped_to_extent(self, tiny_matrix):
        grid = uniform_partition(tiny_matrix, 100, 100)
        assert grid.n_row_bands <= tiny_matrix.n_rows
        assert grid.n_col_bands <= tiny_matrix.n_cols
        assert grid.total_nnz == tiny_matrix.nnz

    def test_rejects_bad_band_counts(self, tiny_matrix):
        with pytest.raises(InvalidPartitionError):
            uniform_partition(tiny_matrix, 0, 2)

    def test_hsgd_partition_obeys_rule1(self, small_matrix):
        grid = hsgd_partition(small_matrix, 4, 1)
        assert grid.n_row_bands == 6
        assert grid.n_col_bands == 5

    def test_gpu_only_partition(self, small_matrix):
        grid = gpu_only_partition(small_matrix, 1)
        assert grid.n_row_bands == 2
        assert grid.n_col_bands == 2
        assert grid.total_nnz == small_matrix.nnz
        with pytest.raises(InvalidPartitionError):
            gpu_only_partition(small_matrix, 0)


class TestNonuniformPartition:
    def test_figure9_structure(self, small_matrix):
        """nc=4, ng=1: 4+2+1=7 columns, 5 CPU rows, 1 GPU row of 5 sub-rows."""
        grid = nonuniform_partition(small_matrix, alpha=0.4, n_cpu_threads=4, n_gpus=1)
        assert grid.n_col_bands == 7
        cpu_bands = grid.row_bands_in_region(Region.CPU)
        gpu_bands = grid.row_bands_in_region(Region.GPU)
        assert len(cpu_bands) == 5            # nc + ng
        assert len(gpu_bands) == 5            # ng rows x ceil((nc+ng)/ng) sub-rows
        assert grid.n_gpu_rows() == 1
        assert grid.total_nnz == small_matrix.nnz

    def test_alpha_controls_gpu_share(self, small_matrix):
        for alpha in (0.2, 0.5, 0.8):
            grid = nonuniform_partition(
                small_matrix, alpha=alpha, n_cpu_threads=4, n_gpus=1
            )
            gpu_nnz = grid.region_nnz(Region.GPU)
            assert gpu_nnz / small_matrix.nnz == pytest.approx(alpha, abs=0.08)

    def test_multiple_gpus_get_multiple_rows(self, small_matrix):
        grid = nonuniform_partition(small_matrix, alpha=0.5, n_cpu_threads=4, n_gpus=2)
        assert grid.n_gpu_rows() == 2
        assert grid.n_col_bands == 4 + 4 + 1
        # Each GPU row is split into ceil((4+2)/2) = 3 sub-rows.
        assert len(grid.gpu_row_members(0)) == 3
        assert len(grid.gpu_row_members(1)) == 3

    def test_alpha_zero_is_cpu_only(self, small_matrix):
        grid = nonuniform_partition(small_matrix, alpha=0.0, n_cpu_threads=4, n_gpus=1)
        assert grid.region_nnz(Region.GPU) == 0
        assert grid.region_nnz(Region.CPU) == small_matrix.nnz

    def test_alpha_one_is_gpu_only(self, small_matrix):
        grid = nonuniform_partition(small_matrix, alpha=1.0, n_cpu_threads=0, n_gpus=1)
        assert grid.region_nnz(Region.CPU) == 0
        assert grid.region_nnz(Region.GPU) == small_matrix.nnz

    def test_column_scale(self, small_matrix):
        narrow = nonuniform_partition(
            small_matrix, 0.4, 4, 1, column_scale=0.5
        )
        wide = nonuniform_partition(small_matrix, 0.4, 4, 1, column_scale=2.0)
        assert narrow.n_col_bands < wide.n_col_bands

    def test_rows_tile_matrix(self, small_matrix):
        grid = nonuniform_partition(small_matrix, 0.45, 4, 1)
        stops = [band.row_range for band in grid.row_bands]
        assert stops[0][0] == 0
        assert stops[-1][1] == small_matrix.n_rows
        for previous, current in zip(stops, stops[1:]):
            assert previous[1] == current[0]

    def test_validation(self, small_matrix):
        with pytest.raises(InvalidPartitionError):
            nonuniform_partition(small_matrix, 1.5, 4, 1)
        with pytest.raises(InvalidPartitionError):
            nonuniform_partition(small_matrix, 0.5, 0, 0)


class TestBlockGrid:
    def test_build_validates_row_band_tiling(self, tiny_matrix):
        bands = [
            RowBand(index=0, row_range=(0, 2), region=Region.SHARED),
            RowBand(index=1, row_range=(3, 6), region=Region.SHARED),  # gap at 2
        ]
        with pytest.raises(InvalidPartitionError):
            BlockGrid.build(tiny_matrix, bands, [0, 5])

    def test_build_validates_coverage(self, tiny_matrix):
        bands = [RowBand(index=0, row_range=(0, 4), region=Region.SHARED)]
        with pytest.raises(InvalidPartitionError):
            BlockGrid.build(tiny_matrix, bands, [0, 5])

    def test_update_counts_and_reset(self, small_matrix):
        grid = uniform_partition(small_matrix, 2, 2)
        block = grid.block(0, 0)
        block.update_count += 3
        block.points_this_iteration += 10
        assert grid.update_counts()[0, 0] == 3
        grid.reset_iteration_counters()
        assert block.points_this_iteration == 0
        assert block.update_count == 3  # cumulative counter survives

    def test_block_geometry_properties(self, small_matrix):
        grid = uniform_partition(small_matrix, 2, 3)
        block = grid.block(1, 2)
        assert block.p_rows == block.row_range[1] - block.row_range[0]
        assert block.q_cols == block.col_range[1] - block.col_range[0]
        assert "GridBlock" in repr(block)

    def test_region_queries(self, small_matrix):
        grid = nonuniform_partition(small_matrix, 0.4, 4, 1)
        gpu_blocks = grid.blocks_in_region(Region.GPU)
        cpu_blocks = grid.blocks_in_region(Region.CPU)
        assert len(gpu_blocks) + len(cpu_blocks) == grid.n_blocks
        assert grid.region_nnz(Region.GPU) + grid.region_nnz(Region.CPU) == small_matrix.nnz


class TestLockTable:
    def test_acquire_release_cycle(self):
        locks = LockTable(4, 4)
        assert locks.can_acquire([0], [1])
        locks.acquire([0], [1])
        assert not locks.row_free(0)
        assert not locks.col_free(1)
        assert locks.row_free(1)
        assert locks.free_rows([3, 0, 1]) == [3, 1]
        assert locks.free_cols([1, 2, 0]) == [2, 0]
        locks.release([0], [1])
        assert locks.row_free(0)

    def test_conflicting_acquire_rejected(self):
        locks = LockTable(3, 3)
        locks.acquire([0], [0])
        with pytest.raises(SchedulingError):
            locks.acquire([0], [2])
        with pytest.raises(SchedulingError):
            locks.acquire([1], [0])

    def test_double_release_rejected(self):
        locks = LockTable(3, 3)
        locks.acquire([1], [1])
        locks.release([1], [1])
        with pytest.raises(SchedulingError):
            locks.release([1], [1])

    def test_multi_band_acquire(self):
        locks = LockTable(5, 5)
        locks.acquire([0, 1, 2], [3])
        assert not locks.can_acquire([2], [4])
        assert locks.can_acquire([3, 4], [0])
        locks.release([0, 1, 2], [3])
        assert locks.can_acquire([2], [4])

    def test_release_all(self):
        locks = LockTable(2, 2)
        locks.acquire([0, 1], [0, 1])
        locks.release_all()
        assert locks.can_acquire([0, 1], [0, 1])

    def test_out_of_range_band(self):
        locks = LockTable(2, 2)
        with pytest.raises(SchedulingError):
            locks.row_free(5)
        with pytest.raises(SchedulingError):
            locks.col_free(-1)
        with pytest.raises(SchedulingError):
            locks.free_rows([1, 0, 2])
        with pytest.raises(SchedulingError):
            locks.free_cols([-1, 1])

    def test_locked_sets_are_copies(self):
        locks = LockTable(2, 2)
        locks.acquire([0], [0])
        snapshot = locks.locked_rows
        snapshot.add(1)
        assert locks.row_free(1)


class TestTask:
    def _block(self, block_id, row, col, nnz=4, region=Region.CPU):
        return GridBlock(
            block_id=block_id,
            row_band=row,
            col_band=col,
            row_range=(row * 10, row * 10 + 10),
            col_range=(col * 10, col * 10 + 10),
            indices=np.arange(nnz),
            region=region,
        )

    def test_single_block_task(self):
        task = Task(blocks=[self._block(0, 0, 0)], worker_index=2)
        assert task.nnz == 4
        assert task.row_bands == {0}
        assert task.col_bands == {0}
        assert task.p_rows == 10
        assert task.q_cols == 10

    def test_multi_block_column_task(self):
        blocks = [self._block(i, i, 3, nnz=2, region=Region.GPU) for i in range(3)]
        task = Task(blocks=blocks, worker_index=0, resident_p=True)
        assert task.nnz == 6
        assert task.row_bands == {0, 1, 2}
        assert task.col_bands == {3}
        assert task.q_cols == 10      # shared column range counted once
        assert task.p_rows == 30

    def test_block_work_respects_residency(self):
        block = self._block(0, 0, 0)
        resident = Task(blocks=[block], worker_index=0, resident_p=True)
        moving = Task(blocks=[block], worker_index=0, resident_p=False)
        assert resident.block_work(8).p_rows == 0
        assert moving.block_work(8).p_rows == 10

    def test_mark_processed_updates_counters(self):
        block = self._block(0, 0, 0, nnz=7)
        task = Task(blocks=[block], worker_index=1)
        task.mark_processed()
        assert block.update_count == 1
        assert block.points_this_iteration == 7

    def test_empty_task_rejected(self):
        with pytest.raises(SchedulingError):
            Task(blocks=[], worker_index=0)
