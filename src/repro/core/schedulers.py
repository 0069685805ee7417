"""Block schedulers: greedy uniform (FPSGD / HSGD) and HSGD*.

A scheduler owns a :class:`~repro.core.grid.BlockGrid` and a
:class:`~repro.core.locks.LockTable` and answers one question for the
simulation engine: *which blocks should this worker process next, given
what is currently in flight?*

Two schedulers are provided:

* :class:`GreedyBlockScheduler` — the FPSGD policy used by CPU-Only,
  GPU-Only and HSGD: when a worker frees up it receives the independent
  (conflict-free) block with the smallest update count.  There are no
  per-resource quotas, which is exactly what lets a much faster GPU
  concentrate its updates on the few blocks left free by the slower CPU
  threads (the paper's Example 3).
* :class:`HSGDStarScheduler` — the paper's contribution: CPU threads draw
  single blocks from the CPU band ``Rc``; each GPU draws an entire column
  of sub-blocks within its own GPU row of ``Rg`` (a "large block") and
  keeps its ``P`` segment resident; per-iteration quotas keep every
  region's data visited about once per iteration; and, when dynamic
  scheduling is enabled, a resource that exhausts its own quota steals
  blocks from the other region instead of idling.

Both enumerate candidates the same way: the free row bands of the
worker's scope crossed with the free column bands, non-empty blocks
only, row band ascending then column band ascending.  That order and the
single tie-break draw per pick are part of the bitwise contract — the
same schedule, hence the same factors, on every backend and on resume.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

import numpy as np

from ..exceptions import SchedulingError
from .grid import BlockGrid, GridBlock, Region
from .locks import LockTable
from .tasks import Task


class Scheduler(ABC):
    """Base class for block schedulers."""

    def __init__(self, grid: BlockGrid, n_cpu_workers: int, n_gpu_workers: int,
                 seed: int = 0) -> None:
        if n_cpu_workers < 0 or n_gpu_workers < 0:
            raise SchedulingError("worker counts must be non-negative")
        if n_cpu_workers + n_gpu_workers == 0:
            raise SchedulingError("at least one worker is required")
        self.grid = grid
        self.n_cpu_workers = n_cpu_workers
        self.n_gpu_workers = n_gpu_workers
        self.locks = LockTable(grid.n_row_bands, grid.n_col_bands)
        self._rng = np.random.default_rng(seed)
        # The grid's structure and per-block nnz never change after
        # BlockGrid.build; occupancy and update counts are read live.
        self._all_rows = list(range(grid.n_row_bands))
        self._all_cols = list(range(grid.n_col_bands))
        self._non_empty = [[block.nnz > 0 for block in row] for row in grid.blocks]

    # ------------------------------------------------------------------ #
    # Worker identity helpers
    # ------------------------------------------------------------------ #
    @property
    def n_workers(self) -> int:
        """Total number of workers this scheduler serves."""
        return self.n_cpu_workers + self.n_gpu_workers

    def is_gpu_worker(self, worker_index: int) -> bool:
        """Whether ``worker_index`` denotes a GPU (GPUs follow CPU threads)."""
        if not 0 <= worker_index < self.n_workers:
            raise SchedulingError(
                f"worker index {worker_index} outside [0, {self.n_workers})"
            )
        return worker_index >= self.n_cpu_workers

    # ------------------------------------------------------------------ #
    # Scheduling interface
    # ------------------------------------------------------------------ #
    @abstractmethod
    def next_task(self, worker_index: int) -> Optional[Task]:
        """Select, lock and return the next task for a worker.

        Returns ``None`` when no conflict-free work is currently available
        for this worker (it should idle until another task completes or a
        new iteration starts).
        """

    def complete_task(self, task: Task) -> None:
        """Record completion of a task and release its bands."""
        task.mark_processed()
        self.locks.release(task.row_bands, task.col_bands)

    def abort_task(self, task: Task) -> None:
        """Release a task's bands without counting an update (run aborted)."""
        self.locks.release(task.row_bands, task.col_bands)

    def start_iteration(self) -> None:
        """Reset per-iteration accounting (a no-op for quota-free schedulers)."""
        self.grid.reset_iteration_counters()

    @property
    def total_points(self) -> int:
        """Total ratings across the grid (the size of one full iteration)."""
        return self.grid.total_nnz

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Serializable scheduler state for training checkpoints.

        Captures everything future scheduling decisions depend on: the
        tie-break RNG and the per-block counters.  Lock-table occupancy
        is *not* captured — it is implied by the in-flight tasks, which
        the engine session serializes and re-acquires on restore.
        """
        return {
            "rng_state": self._rng.bit_generator.state,
            "update_counts": self.grid.update_counts(),
            "points_this_iteration": np.array(
                [[block.points_this_iteration for block in row]
                 for row in self.grid.blocks],
                dtype=np.int64,
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`.

        Only valid on a freshly built scheduler over the identical grid
        (same division of the same ratings, same seed).
        """
        self._rng.bit_generator.state = state["rng_state"]
        update_counts = np.asarray(state["update_counts"], dtype=np.int64)
        points = np.asarray(state["points_this_iteration"], dtype=np.int64)
        expected = (self.grid.n_row_bands, self.grid.n_col_bands)
        if update_counts.shape != expected or points.shape != expected:
            raise SchedulingError(
                f"checkpointed counter grids {update_counts.shape} do not "
                f"match this scheduler's grid {expected}"
            )
        for i, row in enumerate(self.grid.blocks):
            for j, block in enumerate(row):
                block.update_count = int(update_counts[i, j])
                block.points_this_iteration = int(points[i, j])

    # ------------------------------------------------------------------ #
    # Shared selection helpers
    # ------------------------------------------------------------------ #
    def _free_blocks(self, scope: List[int]) -> List[GridBlock]:
        """Non-empty blocks at a free row band of ``scope`` and a free column.

        Row band ascending, then column band ascending: the order of a
        row-major scan of the whole grid, which the tie-break draw
        indexes into.  Costs O(free rows x free columns), not O(blocks).
        """
        rows = self.locks.free_rows(scope)
        if not rows:
            return []
        cols = self.locks.free_cols(self._all_cols)
        blocks, non_empty = self.grid.blocks, self._non_empty
        return [blocks[r][c] for r in rows for c in cols if non_empty[r][c]]

    def _pick_least_updated(self, blocks: List[GridBlock]) -> Optional[GridBlock]:
        """The block with the fewest updates; random tie-break (one draw)."""
        if not blocks:
            return None
        minimum = min(block.update_count for block in blocks)
        candidates = [block for block in blocks if block.update_count == minimum]
        return candidates[int(self._rng.integers(len(candidates)))]

    def _single_block_task(
        self,
        worker_index: int,
        scope: List[int],
        stolen: bool = False,
        resident_p: bool = False,
    ) -> Optional[Task]:
        """Lock and return the least-updated free block of ``scope``'s rows."""
        block = self._pick_least_updated(self._free_blocks(scope))
        if block is None:
            return None
        task = Task(
            blocks=[block],
            worker_index=worker_index,
            stolen=stolen,
            resident_p=resident_p,
        )
        self.locks.acquire(task.row_bands, task.col_bands)
        return task


class GreedyBlockScheduler(Scheduler):
    """The FPSGD assignment policy over a uniform grid.

    Used for the CPU-Only, GPU-Only and HSGD baselines: every worker —
    GPU or CPU alike — receives the least-updated block that conflicts
    with nothing currently in flight.
    """

    def next_task(self, worker_index: int) -> Optional[Task]:
        return self._single_block_task(worker_index, self._all_rows)


class HSGDStarScheduler(Scheduler):
    """The HSGD* scheduler: nonuniform division, quotas, work stealing.

    Parameters
    ----------
    grid:
        A grid produced by :func:`repro.core.partition.nonuniform_partition`
        (row bands tagged CPU / GPU with parent GPU rows).
    n_cpu_workers, n_gpu_workers:
        Worker counts; GPU workers follow CPU workers in the index space.
    dynamic_scheduling:
        Enable the work-stealing dynamic phase (Section VI-A).  When
        disabled, a resource whose per-iteration quota is exhausted idles —
        this is the HSGD*-M / HSGD*-Q configuration of Tables II and III.
    seed:
        Tie-breaking seed.
    """

    def __init__(
        self,
        grid: BlockGrid,
        n_cpu_workers: int,
        n_gpu_workers: int,
        dynamic_scheduling: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(grid, n_cpu_workers, n_gpu_workers, seed=seed)
        self.dynamic_scheduling = dynamic_scheduling
        self._gpu_region_quota = grid.region_nnz(Region.GPU)
        self._cpu_region_quota = grid.region_nnz(Region.CPU)
        self._gpu_assigned = 0
        self._cpu_assigned = 0
        self._n_gpu_rows = max(1, grid.n_gpu_rows()) if self._gpu_region_quota else 0
        self._cpu_bands = [band.index for band in grid.row_bands_in_region(Region.CPU)]
        self._gpu_bands = [band.index for band in grid.row_bands_in_region(Region.GPU)]
        #: Per GPU row: its member sub-row bands, and which columns hold
        #: any rating within them.
        self._gpu_row_bands = [
            [band.index for band in grid.gpu_row_members(gpu_row)]
            for gpu_row in range(self._n_gpu_rows)
        ]
        self._gpu_row_cols_non_empty = [
            [any(self._non_empty[band][col] for band in members) for col in self._all_cols]
            for members in self._gpu_row_bands
        ]
        #: Count of tasks dispatched across region boundaries, per region
        #: of origin of the *worker* ("gpu" stole CPU blocks, and vice
        #: versa).  Exposed for the dynamic-scheduling analysis.
        self.steal_counts = {"gpu": 0, "cpu": 0}

    # ------------------------------------------------------------------ #
    # Iteration bookkeeping
    # ------------------------------------------------------------------ #
    def start_iteration(self) -> None:
        super().start_iteration()
        self._gpu_assigned = 0
        self._cpu_assigned = 0

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["gpu_assigned"] = self._gpu_assigned
        state["cpu_assigned"] = self._cpu_assigned
        state["steal_counts"] = dict(self.steal_counts)
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._gpu_assigned = int(state["gpu_assigned"])
        self._cpu_assigned = int(state["cpu_assigned"])
        self.steal_counts = {
            "gpu": int(state["steal_counts"]["gpu"]),
            "cpu": int(state["steal_counts"]["cpu"]),
        }

    def _gpu_quota_left(self) -> bool:
        return self._gpu_assigned < self._gpu_region_quota

    def _cpu_quota_left(self) -> bool:
        return self._cpu_assigned < self._cpu_region_quota

    # ------------------------------------------------------------------ #
    # Task selection
    # ------------------------------------------------------------------ #
    def next_task(self, worker_index: int) -> Optional[Task]:
        if self.is_gpu_worker(worker_index):
            return self._next_gpu_task(worker_index)
        return self._next_cpu_task(worker_index)

    # -- GPU ------------------------------------------------------------ #
    def _next_gpu_task(self, worker_index: int) -> Optional[Task]:
        gpu_index = worker_index - self.n_cpu_workers

        if self._gpu_quota_left():
            # The static phase ends — and the GPU drops to sub-block
            # granularity — once the CPUs have exhausted their own band
            # (Section VI-A): holding a whole GPU row then would keep the
            # idle CPU threads from stealing its remaining sub-blocks.
            dynamic_phase = self.dynamic_scheduling and not self._cpu_quota_left()
            if not dynamic_phase:
                task = self._gpu_static_task(worker_index, gpu_index)
                if task is not None:
                    self._gpu_assigned += task.nnz
                    return task
            # Sub-block granularity: either the dynamic phase has begun or
            # the preferred large block is blocked by a stolen sub-row.
            task = self._single_block_task(worker_index, self._gpu_bands, resident_p=True)
            if task is not None:
                self._gpu_assigned += task.nnz
                return task
            # Quota remains but every free GPU block is band-locked: idle
            # until a completion frees one.  Stealing CPU blocks now would
            # start the dynamic phase before the GPU region is exhausted,
            # violating the Section VI-A contract.
            return None

        if self.dynamic_scheduling and self._cpu_quota_left():
            task = self._single_block_task(worker_index, self._cpu_bands, stolen=True)
            if task is not None:
                self._cpu_assigned += task.nnz
                self.steal_counts["gpu"] += 1
                return task
        return None

    def _gpu_static_task(
        self, worker_index: int, gpu_index: int
    ) -> Optional[Task]:
        """A "large block": every sub-block of one column within the GPU's row."""
        if self._n_gpu_rows == 0:
            return None
        gpu_row = gpu_index % self._n_gpu_rows
        member_bands = self._gpu_row_bands[gpu_row]
        if not member_bands:
            return None
        if len(self.locks.free_rows(member_bands)) < len(member_bands):
            return None

        grid_blocks = self.grid.blocks
        non_empty = self._gpu_row_cols_non_empty[gpu_row]
        best_col = None
        best_count = None
        for col in self.locks.free_cols(self._all_cols):
            if not non_empty[col]:
                continue
            count = sum(grid_blocks[band][col].update_count for band in member_bands)
            if best_count is None or count < best_count:
                best_count = count
                best_col = col
        if best_col is None:
            return None

        blocks = [grid_blocks[band][best_col] for band in member_bands]
        task = Task(
            blocks=blocks,
            worker_index=worker_index,
            stolen=False,
            resident_p=True,
        )
        self.locks.acquire(task.row_bands, task.col_bands)
        return task

    # -- CPU ------------------------------------------------------------ #
    def _next_cpu_task(self, worker_index: int) -> Optional[Task]:
        if self._cpu_quota_left():
            task = self._single_block_task(worker_index, self._cpu_bands)
            if task is not None:
                self._cpu_assigned += task.nnz
                return task
            # Quota remains but every free CPU block is band-locked by a
            # sibling thread: idle rather than steal — steals may only
            # begin once the CPU band's quota is exhausted (Section VI-A).
            return None

        if self.dynamic_scheduling and self._gpu_quota_left():
            task = self._single_block_task(worker_index, self._gpu_bands, stolen=True)
            if task is not None:
                self._gpu_assigned += task.nnz
                self.steal_counts["cpu"] += 1
                return task
        return None
