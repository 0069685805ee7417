"""Tests of the greedy (FPSGD/HSGD) and HSGD* schedulers."""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import HardwareConfig, HeterogeneousTrainer, load_dataset
from repro.core import (
    GreedyBlockScheduler,
    HSGDStarScheduler,
    Region,
    nonuniform_partition,
    uniform_partition,
)
from repro.core.partition import hsgd_partition
from repro.exceptions import SchedulingError
from repro.sparse import SparseRatingMatrix


def _drain(scheduler, worker_order, steps):
    """Dispatch and immediately complete tasks in a fixed worker order."""
    completed = []
    for step in range(steps):
        worker = worker_order[step % len(worker_order)]
        task = scheduler.next_task(worker)
        if task is None:
            continue
        scheduler.complete_task(task)
        completed.append(task)
    return completed


class TestGreedyScheduler:
    def test_tasks_never_conflict(self, small_matrix):
        grid = uniform_partition(small_matrix, 5, 4)
        scheduler = GreedyBlockScheduler(grid, n_cpu_workers=3, n_gpu_workers=1)
        in_flight = []
        for worker in range(4):
            task = scheduler.next_task(worker)
            assert task is not None
            for other in in_flight:
                assert not (task.row_bands & other.row_bands)
                assert not (task.col_bands & other.col_bands)
            in_flight.append(task)

    def test_returns_none_when_everything_locked(self, tiny_matrix):
        grid = uniform_partition(tiny_matrix, 2, 2)
        scheduler = GreedyBlockScheduler(grid, n_cpu_workers=4, n_gpu_workers=0)
        first = scheduler.next_task(0)
        second = scheduler.next_task(1)
        assert first is not None and second is not None
        # Both rows and both columns are now held.
        assert scheduler.next_task(2) is None

    def test_prefers_least_updated_blocks(self, small_matrix):
        grid = uniform_partition(small_matrix, 4, 4)
        scheduler = GreedyBlockScheduler(grid, n_cpu_workers=1, n_gpu_workers=0, seed=3)
        seen = set()
        for _ in range(16):
            task = scheduler.next_task(0)
            scheduler.complete_task(task)
            seen.add(task.blocks[0].block_id)
        # A lone worker cycling a 4x4 grid must visit every non-empty block
        # before revisiting any (least-updated-first).
        non_empty = sum(1 for block in grid.iter_blocks() if block.nnz > 0)
        assert len(seen) == non_empty

    def test_completion_releases_locks(self, small_matrix):
        grid = uniform_partition(small_matrix, 3, 3)
        scheduler = GreedyBlockScheduler(grid, n_cpu_workers=2, n_gpu_workers=0)
        task = scheduler.next_task(0)
        scheduler.complete_task(task)
        assert scheduler.locks.can_acquire(task.row_bands, task.col_bands)
        assert task.blocks[0].update_count == 1

    def test_abort_releases_without_counting(self, small_matrix):
        grid = uniform_partition(small_matrix, 3, 3)
        scheduler = GreedyBlockScheduler(grid, n_cpu_workers=1, n_gpu_workers=0)
        task = scheduler.next_task(0)
        scheduler.abort_task(task)
        assert task.blocks[0].update_count == 0
        assert scheduler.locks.can_acquire(task.row_bands, task.col_bands)

    def test_worker_identity(self, small_matrix):
        grid = hsgd_partition(small_matrix, 2, 1)
        scheduler = GreedyBlockScheduler(grid, n_cpu_workers=2, n_gpu_workers=1)
        assert not scheduler.is_gpu_worker(0)
        assert scheduler.is_gpu_worker(2)
        with pytest.raises(SchedulingError):
            scheduler.is_gpu_worker(5)

    def test_total_points(self, small_matrix):
        grid = uniform_partition(small_matrix, 2, 2)
        scheduler = GreedyBlockScheduler(grid, n_cpu_workers=1, n_gpu_workers=0)
        assert scheduler.total_points == small_matrix.nnz

    def test_requires_workers(self, small_matrix):
        grid = uniform_partition(small_matrix, 2, 2)
        with pytest.raises(SchedulingError):
            GreedyBlockScheduler(grid, n_cpu_workers=0, n_gpu_workers=0)


class TestHSGDStarScheduler:
    @pytest.fixture()
    def star(self, small_matrix):
        grid = nonuniform_partition(small_matrix, alpha=0.4, n_cpu_threads=4, n_gpus=1)
        return HSGDStarScheduler(
            grid, n_cpu_workers=4, n_gpu_workers=1, dynamic_scheduling=True, seed=0
        )

    def test_gpu_static_task_is_full_column_of_its_row(self, star):
        task = star.next_task(4)  # the GPU worker
        assert task is not None
        assert task.resident_p
        assert len(task.col_bands) == 1
        member_bands = {band.index for band in star.grid.gpu_row_members(0)}
        assert task.row_bands <= member_bands
        assert all(block.region == Region.GPU for block in task.blocks)

    def test_cpu_tasks_stay_in_cpu_region_during_static_phase(self, star):
        for worker in range(4):
            task = star.next_task(worker)
            assert task is not None
            assert len(task.blocks) == 1
            assert task.blocks[0].region == Region.CPU
            assert not task.stolen

    def test_no_conflicts_between_gpu_and_cpu_tasks(self, star):
        gpu_task = star.next_task(4)
        cpu_task = star.next_task(0)
        assert not (gpu_task.col_bands & cpu_task.col_bands)
        assert not (gpu_task.row_bands & cpu_task.row_bands)

    def test_gpu_steals_cpu_blocks_after_quota(self, small_matrix):
        grid = nonuniform_partition(small_matrix, alpha=0.05, n_cpu_threads=4, n_gpus=1)
        scheduler = HSGDStarScheduler(
            grid, n_cpu_workers=4, n_gpu_workers=1, dynamic_scheduling=True, seed=0
        )
        stolen = 0
        for _ in range(200):
            task = scheduler.next_task(4)
            if task is None:
                break
            scheduler.complete_task(task)
            if task.stolen:
                stolen += 1
                assert all(block.region == Region.CPU for block in task.blocks)
        assert stolen > 0
        assert scheduler.steal_counts["gpu"] == stolen

    def test_cpu_steals_gpu_blocks_after_quota(self, small_matrix):
        grid = nonuniform_partition(small_matrix, alpha=0.95, n_cpu_threads=4, n_gpus=1)
        scheduler = HSGDStarScheduler(
            grid, n_cpu_workers=4, n_gpu_workers=1, dynamic_scheduling=True, seed=0
        )
        stolen = 0
        for _ in range(300):
            task = scheduler.next_task(0)
            if task is None:
                break
            scheduler.complete_task(task)
            if task.stolen:
                stolen += 1
                assert all(block.region == Region.GPU for block in task.blocks)
        assert stolen > 0
        assert scheduler.steal_counts["cpu"] == stolen

    def test_static_variant_idles_instead_of_stealing(self, small_matrix):
        grid = nonuniform_partition(small_matrix, alpha=0.05, n_cpu_threads=4, n_gpus=1)
        scheduler = HSGDStarScheduler(
            grid, n_cpu_workers=4, n_gpu_workers=1, dynamic_scheduling=False, seed=0
        )
        saw_none = False
        for _ in range(200):
            task = scheduler.next_task(4)
            if task is None:
                saw_none = True
                break
            assert not task.stolen
            scheduler.complete_task(task)
        assert saw_none
        assert scheduler.steal_counts == {"gpu": 0, "cpu": 0}

    def test_start_iteration_resets_quota(self, small_matrix):
        grid = nonuniform_partition(small_matrix, alpha=0.05, n_cpu_threads=4, n_gpus=1)
        scheduler = HSGDStarScheduler(
            grid, n_cpu_workers=4, n_gpu_workers=1, dynamic_scheduling=False, seed=0
        )
        # Exhaust the GPU region.
        while True:
            task = scheduler.next_task(4)
            if task is None:
                break
            scheduler.complete_task(task)
        scheduler.start_iteration()
        assert scheduler.next_task(4) is not None

    def test_quota_tracks_region_nnz(self, star):
        completed = _drain(star, worker_order=[4, 0, 1, 2, 3], steps=400)
        gpu_points = sum(t.nnz for t in completed if star.is_gpu_worker(t.worker_index))
        total = sum(t.nnz for t in completed)
        # Within one iteration the GPU handles roughly its region share
        # (stealing can add a little on top).
        assert gpu_points <= 0.7 * total

    def test_gpu_falls_back_to_sub_blocks_when_row_partially_held(self, star):
        # A CPU worker steals nothing yet, but lock one GPU sub-row manually
        # to force the GPU out of the full-row static task.
        member = star.grid.gpu_row_members(0)[0]
        star.locks.acquire([member.index], [])
        task = star.next_task(4)
        assert task is not None
        assert len(task.blocks) == 1
        star.locks.release([member.index], [])


# --------------------------------------------------------------------- #
# Reference selection: the full-grid scan that candidate enumeration
# over free bands replaced.  Read-only on the scheduler; draws from
# ``rng`` exactly as the scan did.
# --------------------------------------------------------------------- #
def _ref_freely_schedulable(locks, blocks):
    return [
        block
        for block in blocks
        if locks.row_free(block.row_band) and locks.col_free(block.col_band)
    ]


def _ref_pick_least_updated(rng, blocks):
    if not blocks:
        return None
    counts = np.array([block.update_count for block in blocks])
    minimum = counts.min()
    candidates = [b for b, c in zip(blocks, counts) if c == minimum]
    return candidates[int(rng.integers(len(candidates)))]


def _ref_single_block(scheduler, rng, blocks, stolen=False, resident_p=False):
    non_empty = [block for block in blocks if block.nnz > 0]
    block = _ref_pick_least_updated(rng, _ref_freely_schedulable(scheduler.locks, non_empty))
    if block is None:
        return None
    return [block.block_id], stolen, resident_p


def _ref_gpu_static(scheduler, gpu_index):
    grid, locks = scheduler.grid, scheduler.locks
    n_gpu_rows = max(1, grid.n_gpu_rows()) if grid.region_nnz(Region.GPU) else 0
    if n_gpu_rows == 0:
        return None
    member_bands = [band.index for band in grid.gpu_row_members(gpu_index % n_gpu_rows)]
    if not member_bands or not all(locks.row_free(band) for band in member_bands):
        return None
    best_col = None
    best_count = None
    for col in range(grid.n_col_bands):
        if not locks.col_free(col):
            continue
        column_blocks = [grid.block(band, col) for band in member_bands]
        if sum(block.nnz for block in column_blocks) == 0:
            continue
        count = sum(block.update_count for block in column_blocks)
        if best_count is None or count < best_count:
            best_count = count
            best_col = col
    if best_col is None:
        return None
    return [grid.block(band, best_col).block_id for band in member_bands], False, True


def _reference_next(scheduler, rng, worker):
    """``(block_ids, stolen, resident_p)`` the full scan would hand ``worker``, or None."""
    grid = scheduler.grid
    if isinstance(scheduler, GreedyBlockScheduler):
        return _ref_single_block(scheduler, rng, list(grid.iter_blocks()))
    gpu_left = scheduler._gpu_assigned < scheduler._gpu_region_quota
    cpu_left = scheduler._cpu_assigned < scheduler._cpu_region_quota
    dynamic = scheduler.dynamic_scheduling
    gpu_blocks = grid.blocks_in_region(Region.GPU)
    cpu_blocks = grid.blocks_in_region(Region.CPU)
    if scheduler.is_gpu_worker(worker):
        if gpu_left:
            if not (dynamic and not cpu_left):
                static = _ref_gpu_static(scheduler, worker - scheduler.n_cpu_workers)
                if static is not None:
                    return static
            return _ref_single_block(scheduler, rng, gpu_blocks, resident_p=True)
        if dynamic and cpu_left:
            return _ref_single_block(scheduler, rng, cpu_blocks, stolen=True)
        return None
    if cpu_left:
        return _ref_single_block(scheduler, rng, cpu_blocks)
    if dynamic and gpu_left:
        return _ref_single_block(scheduler, rng, gpu_blocks, stolen=True)
    return None


@st.composite
def _scheduling_cases(draw):
    """A scheduler over a small sparse grid (empty blocks likely) plus perturbed state."""
    n_rows = draw(st.integers(4, 30))
    n_cols = draw(st.integers(3, 20))
    density = draw(st.floats(0.03, 0.6))
    data_rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    mask = data_rng.random((n_rows, n_cols)) < density
    mask[data_rng.integers(n_rows), data_rng.integers(n_cols)] = True
    rows, cols = np.nonzero(mask)
    matrix = SparseRatingMatrix(
        rows, cols, data_rng.uniform(1.0, 5.0, size=len(rows)), shape=(n_rows, n_cols)
    )
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        n_cpu, n_gpu = draw(st.integers(0, 3)), draw(st.integers(0, 2))
        n_cpu = max(n_cpu, 1 - n_gpu)
        grid = nonuniform_partition(
            matrix, alpha=draw(st.floats(0.0, 1.0)), n_cpu_threads=n_cpu, n_gpus=n_gpu
        )
        scheduler = HSGDStarScheduler(
            grid, n_cpu, n_gpu, dynamic_scheduling=draw(st.booleans()), seed=seed
        )
    else:
        n_cpu, n_gpu = draw(st.integers(0, 3)), draw(st.integers(0, 1))
        n_cpu = max(n_cpu, 1 - n_gpu)
        grid = uniform_partition(matrix, draw(st.integers(1, 6)), draw(st.integers(1, 6)))
        scheduler = GreedyBlockScheduler(grid, n_cpu, n_gpu, seed=seed)

    state_rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    for block in grid.iter_blocks():
        block.update_count = int(state_rng.integers(0, 3))
    held_rows = [r for r in range(grid.n_row_bands) if state_rng.random() < 0.3]
    held_cols = [c for c in range(grid.n_col_bands) if state_rng.random() < 0.3]
    scheduler.locks.acquire(held_rows, held_cols)
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["next", "next", "complete", "release", "iteration"]),
                      st.integers(0, 1000)),
            min_size=5,
            max_size=60,
        )
    )
    return scheduler, (held_rows, held_cols), ops


class TestCandidateEnumerationMatchesFullScan:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=_scheduling_cases())
    def test_same_blocks_and_rng_state_as_full_scan(self, case):
        """Every pick — both schedulers, CPU and GPU workers, static and
        dynamic phases, under live lock occupancy and update counts —
        returns the block(s) the full scan returned and leaves the
        tie-break RNG in the identical state."""
        scheduler, held, ops = case
        in_flight = []
        steals = {"gpu": 0, "cpu": 0}
        for op, value in ops:
            if op == "next":
                worker = value % scheduler.n_workers
                reference_rng = np.random.default_rng()
                reference_rng.bit_generator.state = scheduler._rng.bit_generator.state
                expected = _reference_next(scheduler, reference_rng, worker)
                task = scheduler.next_task(worker)
                got = None if task is None else (
                    [block.block_id for block in task.blocks], task.stolen, task.resident_p
                )
                assert got == expected
                assert scheduler._rng.bit_generator.state == reference_rng.bit_generator.state
                if task is not None:
                    in_flight.append(task)
                    if task.stolen:
                        steals["gpu" if scheduler.is_gpu_worker(worker) else "cpu"] += 1
                if isinstance(scheduler, HSGDStarScheduler):
                    assert scheduler.steal_counts == steals
            elif op == "complete" and in_flight:
                scheduler.complete_task(in_flight.pop(value % len(in_flight)))
            elif op == "release" and held is not None:
                scheduler.locks.release(*held)
                held = None
            elif op == "iteration":
                scheduler.start_iteration()


# --------------------------------------------------------------------- #
# Schedule pin: every scheduling decision of 3 simulated epochs on the
# netflix analogue (the paper's 16 CPU + 1 GPU machine), hashed.  The
# schedule depends on neither the kernel nor the host's speed.
# --------------------------------------------------------------------- #
SCHEDULE_PINS = {
    "hsgd_star": (
        1484,
        "09e391db088a45373ccdecbfd6b63e88d4a76dcd46717d50db9b4d8202074d69",
        "0.0045953999999999995",
    ),
    "hsgd": (
        934,
        "73bcd3cbce606802da6676b7226e922cc6b63349aaab02f09eff1dc786ac8e47",
        "0.0043542",
    ),
}


@pytest.fixture(scope="module")
def netflix_analogue():
    return load_dataset("netflix", seed=1)


@pytest.mark.parametrize("algorithm", sorted(SCHEDULE_PINS))
def test_schedule_pin(algorithm, netflix_analogue, monkeypatch):
    log = []

    def recording(next_task):
        def wrapper(self, worker_index):
            task = next_task(self, worker_index)
            if task is None:
                log.append(f"{worker_index} -")
            else:
                ids = [block.block_id for block in task.blocks]
                log.append(f"{worker_index} {ids} {task.stolen}")
            return task

        return wrapper

    for cls in (HSGDStarScheduler, GreedyBlockScheduler):
        monkeypatch.setattr(cls, "next_task", recording(cls.next_task))
    data = netflix_analogue
    trainer = HeterogeneousTrainer(
        algorithm=algorithm,
        hardware=HardwareConfig(),
        training=data.spec.recommended_training(seed=1),
        seed=1,
    )
    trainer.calibrate(data.train)
    result = trainer.fit(data.train, data.test, iterations=3, backend="simulate")
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
    assert (len(log), digest, repr(result.engine_time)) == SCHEDULE_PINS[algorithm]
