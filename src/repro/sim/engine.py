"""The discrete-event simulation engine.

The engine couples three things:

* a **scheduler** (:mod:`repro.core.schedulers`) deciding which blocks a
  worker processes next;
* a **platform** (:mod:`repro.hardware`) predicting how long each task
  takes on its worker's device;
* the **numerical kernel** (:mod:`repro.sgd.kernels`) actually applying
  the SGD updates of every task to the shared factor matrices.

Simulated time advances event by event: whenever the earliest in-flight
task completes, its updates are applied, its bands are released, per-
iteration accounting is updated, and new tasks are dispatched to the
freed worker and to any workers that were idling for lack of
conflict-free work.

Because blocks processed concurrently never overlap in rows or columns
(the lock table guarantees independence), applying each task's updates at
its completion time produces the same factor matrices a genuinely
parallel execution with the same schedule would.

The event loop lives in :class:`SimulationSession`, one *stepwise*
session per run (:meth:`SimulationEngine.start`): each ``step()``
advances the simulation to the next epoch boundary and pauses there,
which is what the callback and checkpoint machinery of
:mod:`repro.exec` builds on.  ``run()`` is the inherited loop over
``step()`` and produces results identical to the historical monolithic
loop — the event ordering, scheduler calls and kernel calls of a stepped
run are exactly those of an uninterrupted one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

from ..config import TrainingConfig
from ..exceptions import SimulationError
from ..exec.base import Engine, EngineResult, apply_block_data
from ..exec.session import EngineSession, EpochReport
from ..hardware import HeterogeneousPlatform
from ..sgd import FactorModel
from ..sgd.schedules import LearningRateSchedule
from ..sparse import SparseRatingMatrix
from ..core.schedulers import Scheduler
from ..core.tasks import Task


@dataclass
class SimulationResult(EngineResult):
    """Outcome of one simulated training run.

    ``trace.final_time`` (and hence :attr:`engine_time`) is measured in
    *simulated* seconds of the modelled platform.
    """


class SimulationSession(EngineSession):
    """One simulated run, advanced to the next epoch boundary per ``step()``.

    The executor half of the session: on top of the core's epoch ledger
    it owns the completion-event heap and the virtual clock (the
    ledger's ``_last_event``), while the engine supplies the immutable
    run inputs (scheduler, platform, data, kernels).  Pausing happens
    *between* events: boundary processing defers the post-completion
    dispatch to the next ``step()`` call, which keeps the sequence of
    scheduler and kernel calls of a stepped run identical to an
    uninterrupted one (dispatching consumes the scheduler's tie-break
    RNG, so its position in the call sequence is part of the bitwise
    contract).  ``pause_on_epoch`` is therefore moot here.
    """

    def __init__(self, engine: "SimulationEngine", **stopping) -> None:
        super().__init__(engine, **stopping)
        self._heap: list = []  # (end_time, sequence, worker_index, task, duration)
        self._seq = 0
        self._idle: set = set()
        #: Workers whose post-completion dispatch was deferred across an
        #: epoch-boundary pause (``None`` when no dispatch is owed).
        self._pending_dispatch: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    # Executor hooks
    # ------------------------------------------------------------------ #
    def _advance(self) -> Optional[EpochReport]:
        if not self._started:
            self._started = True
            self._prime()
        while True:
            if self._pending_dispatch is not None:
                self._run_pending_dispatch()
            if not self._heap:
                return None
            self._advance_one_event()
            if self._reports:
                return self._reports.pop(0)
            if self._stopping:
                return None

    def _release(self) -> None:
        # Drain in-flight tasks without applying them (the run has ended).
        while self._heap:
            task = heapq.heappop(self._heap)[3]
            self._engine.scheduler.abort_task(task)

    def finish(self) -> SimulationResult:
        # Finished without a step(): a session restored at (or past) its
        # epoch cap ended on the cap, exactly as step() would have found —
        # not "aborted".  (The real backends report such a run as aborted.)
        self._run_is_over()
        return super().finish()

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def _prime(self) -> None:
        self._engine.scheduler.start_iteration()
        for worker_index in range(self._engine.scheduler.n_workers):
            self._dispatch(worker_index, 0.0)
        if not self._heap:
            raise SimulationError(
                "no worker could be given an initial task; the grid is too "
                "coarse for the worker count"
            )

    def _dispatch(self, worker_index: int, start_time: float) -> bool:
        task = self._engine.scheduler.next_task(worker_index)
        if task is None:
            self._idle.add(worker_index)
            return False
        duration = self._engine._task_duration(task)
        heapq.heappush(
            self._heap, (start_time + duration, self._seq, worker_index, task, duration)
        )
        self._seq += 1
        self._idle.discard(worker_index)
        return True

    def _dispatch_completions(self, freed_workers: List[int]) -> None:
        """Give freed workers new work, then retry idlers: a completion
        may have released the bands or quota they were waiting for."""
        now = self._last_event
        for worker_index in freed_workers:
            self._dispatch(worker_index, now)
        for waiting in sorted(self._idle):
            self._dispatch(waiting, now)
        if not self._heap and self._idle:
            raise SimulationError(
                "all workers are idle with work remaining; the grid or "
                "quota configuration cannot make progress"
            )

    def _run_pending_dispatch(self) -> None:
        freed = self._pending_dispatch or []
        self._pending_dispatch = None
        self._dispatch_completions(freed)

    def _advance_one_event(self) -> None:
        engine = self._engine
        end_time, _, worker_index, task, duration = heapq.heappop(self._heap)
        self._last_event = end_time
        if self._time_budget_spent(end_time):
            engine.scheduler.abort_task(task)
            return

        engine._apply_task(task, self._iteration)
        self.book(worker_index, task, end_time - duration, end_time)
        crossed_boundary = False
        while self.boundary_due:
            crossed_boundary = True
            self.open_boundary()
            self.close_boundary(*self.evaluate())

        if crossed_boundary:
            # Pause point: defer the post-completion dispatch so the
            # session is observable (and checkpointable) *before* the
            # next scheduler decisions consume tie-break randomness.
            # Recorded even when a stopping condition just fired — a
            # stopping run never executes it, but a checkpoint taken at
            # this boundary must owe the dispatch so a resumed run with a
            # higher epoch cap replays the uninterrupted schedule.
            self._pending_dispatch = [worker_index]
            return
        if self._stopping:
            return
        self._dispatch_completions([worker_index])

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        state = super().state_dict()
        state["seq"] = self._seq
        state["idle_workers"] = sorted(int(w) for w in self._idle)
        if self._pending_dispatch is not None:
            state["pending_dispatch"] = [int(w) for w in self._pending_dispatch]
        state["in_flight"] = [
            {
                "end_time": float(end_time),
                "seq": int(seq),
                "worker_index": int(worker_index),
                "stolen": bool(task.stolen),
                "resident_p": bool(task.resident_p),
                "blocks": [
                    [int(block.row_band), int(block.col_band)]
                    for block in task.blocks
                ],
            }
            for end_time, seq, worker_index, task, _ in sorted(self._heap)
        ]
        return state

    def _adopt_in_flight(self, entries: list) -> None:
        scheduler = self._engine.scheduler
        for entry in entries:
            task = Task(
                blocks=[
                    scheduler.grid.block(int(row), int(col))
                    for row, col in entry["blocks"]
                ],
                worker_index=int(entry["worker_index"]),
                stolen=bool(entry["stolen"]),
                resident_p=bool(entry["resident_p"]),
            )
            scheduler.locks.acquire(task.row_bands, task.col_bands)
            heapq.heappush(
                self._heap,
                (
                    float(entry["end_time"]),
                    int(entry["seq"]),
                    task.worker_index,
                    task,
                    self._engine._task_duration(task),
                ),
            )

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._started = True  # the restored state replaces priming
        self._seq = int(state["seq"])
        self._idle = {int(w) for w in state["idle_workers"]}
        pending = state["pending_dispatch"]
        if pending is None and not self._heap:
            # A quiescent checkpoint (a real backend's, or a finished
            # boundary with every worker idle): nobody is in flight and
            # no dispatch is owed, so owe one to every non-idle worker.
            pending = [
                w
                for w in range(self._engine.scheduler.n_workers)
                if w not in self._idle
            ]
        self._pending_dispatch = None if pending is None else [int(w) for w in pending]


class SimulationEngine(Engine):
    """Runs a scheduler against simulated hardware with real SGD updates.

    Parameters are :class:`~repro.exec.base.Engine`'s, with two
    differences: ``platform`` is required and comes second (it prices
    every task's duration; its worker order must match the scheduler's,
    CPU threads first, then GPUs), and there is no ``gpu_latency_scale``
    — device latency is what the virtual clock already models.
    """

    backend_name = "simulate"
    error_class = SimulationError
    result_class = SimulationResult
    session_class = SimulationSession

    def __init__(
        self,
        scheduler: Scheduler,
        platform: HeterogeneousPlatform,
        train: SparseRatingMatrix,
        training: TrainingConfig,
        test: Optional[SparseRatingMatrix] = None,
        model: Optional[FactorModel] = None,
        schedule: Optional[LearningRateSchedule] = None,
        exact_kernel: bool = False,
        compute_train_rmse: bool = False,
    ) -> None:
        super().__init__(
            scheduler,
            train,
            training,
            test=test,
            model=model,
            schedule=schedule,
            platform=platform,
            exact_kernel=exact_kernel,
            compute_train_rmse=compute_train_rmse,
        )
        self._devices = platform.all_devices

    # ------------------------------------------------------------------ #
    # Task execution
    # ------------------------------------------------------------------ #
    def _apply_task(self, task: Task, iteration: int) -> None:
        """Apply the SGD updates of one task to the shared factor model."""
        apply_block_data(
            self.model.p,
            self.model.q,
            self._store.task_data(task),
            self.schedule(iteration),
            self.training,
            self.kernel_name,
        )

    def _task_duration(self, task: Task) -> float:
        """Simulated seconds the task occupies its worker's device.

        GPU tasks of *hybrid* runs are slowed by the device's host-
        contention factor: CPU worker threads training concurrently
        compete for host memory bandwidth and the PCIe link, which the
        isolated offline calibration never sees (one of the cost-model
        deviations dynamic scheduling compensates for).
        """
        device = self._devices[task.worker_index]
        work = task.block_work(self.training.latent_factors)
        duration = device.process_time(work)
        if device.is_gpu and self.platform.n_cpu_threads > 0:
            duration *= 1.0 + getattr(device, "host_contention", 0.0)
        if duration <= 0:
            raise SimulationError(
                f"device {device.name} produced a non-positive task duration"
            )
        return duration
