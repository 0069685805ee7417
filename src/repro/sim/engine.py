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
from typing import Callable, List, Optional, Union

from ..config import TrainingConfig
from ..exceptions import CheckpointError, SimulationError
from ..exec.base import (
    Engine,
    EngineResult,
    apply_task_updates,
    resolve_stopping_conditions,
)
from ..exec.session import (
    STOP_ITERATIONS,
    STOP_TARGET_RMSE,
    STOP_TIME_BUDGET,
    EngineSession,
    EpochReport,
)
from ..hardware import HeterogeneousPlatform
from ..sgd import FactorModel, rmse
from ..sgd.schedules import ConstantSchedule, LearningRateSchedule
from ..sparse import BlockStore, SparseRatingMatrix
from ..core.schedulers import Scheduler
from ..core.tasks import Task
from .trace import ExecutionTrace, IterationRecord, TaskRecord


@dataclass
class SimulationResult(EngineResult):
    """Outcome of one simulated training run.

    ``trace.final_time`` (and hence :attr:`engine_time`) is measured in
    *simulated* seconds of the modelled platform.
    """


class SimulationSession(EngineSession):
    """One simulated run, advanced to the next epoch boundary per ``step()``.

    The session owns all mutable loop state — the completion-event heap,
    the virtual clock, iteration accounting and the trace — while the
    engine supplies the immutable run inputs (scheduler, platform, data,
    kernels).  Pausing happens *between* events: boundary processing
    defers the post-completion dispatch to the next ``step()`` call,
    which keeps the sequence of scheduler and kernel calls of a stepped
    run identical to an uninterrupted one (dispatching consumes the
    scheduler's tie-break RNG, so its position in the call sequence is
    part of the bitwise contract).
    """

    def __init__(
        self,
        engine: "SimulationEngine",
        iterations: Optional[int] = None,
        target_rmse: Optional[float] = None,
        max_simulated_time: Optional[float] = None,
    ) -> None:
        self._engine = engine
        self._max_iterations = resolve_stopping_conditions(
            iterations,
            target_rmse,
            max_simulated_time,
            default_iterations=engine.training.iterations,
            has_test=engine.test is not None,
            error=SimulationError,
        )
        self._target_rmse = target_rmse
        self._max_time = max_simulated_time
        self._total_points = engine.scheduler.total_points
        if self._total_points <= 0:
            raise SimulationError("the scheduler's grid contains no ratings")

        self._trace = ExecutionTrace(target_rmse=target_rmse)
        self._heap: list = []  # (end_time, sequence, worker_index, task)
        self._seq = 0
        self._idle: set = set()
        self._now = 0.0
        self._points_completed = 0
        self._iteration = 0
        self._iteration_target = self._total_points
        self._converged = False
        self._stopping = False
        self._stop_reason: Optional[str] = None
        self._started = False
        self._finished = False
        self._result: Optional[SimulationResult] = None
        self._pending_reports: List[EpochReport] = []
        #: Workers whose post-completion dispatch was deferred across an
        #: epoch-boundary pause (``None`` when no dispatch is owed).
        self._pending_dispatch: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    # Protocol surface
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> "SimulationEngine":
        return self._engine

    @property
    def epoch(self) -> int:
        return self._iteration

    @property
    def done(self) -> bool:
        return self._finished or (self._stopping and not self._pending_reports)

    @property
    def trace(self) -> ExecutionTrace:
        return self._trace

    @property
    def backend_name(self) -> str:
        return "simulate"

    @property
    def started(self) -> bool:
        return self._started

    def stop(self, reason: str = "callback") -> None:
        if not self._stopping:
            self._stopping = True
            self._stop_reason = reason

    def step(self) -> Optional[EpochReport]:
        if self._pending_reports:
            return self._pending_reports.pop(0)
        if self._finished or self._stopping:
            return None
        if not self._started:
            self._started = True
            self._prime()
        if self._iteration >= self._max_iterations:
            # Only reachable on a restored session: a checkpoint taken at
            # (or past) this run's epoch cap has nothing left to do.  A
            # live run sets _stopping at the boundary that reaches the cap.
            self._stopping = True
            if self._stop_reason is None:
                self._stop_reason = STOP_ITERATIONS
            return None
        while True:
            if self._pending_dispatch is not None:
                self._run_pending_dispatch()
            if not self._heap:
                return None
            self._advance_one_event()
            if self._pending_reports:
                return self._pending_reports.pop(0)
            if self._stopping:
                return None

    def finish(self) -> SimulationResult:
        if self._result is not None:
            return self._result
        self._finished = True
        # Drain in-flight tasks without applying them (the run has ended).
        while self._heap:
            _, _, _, task = heapq.heappop(self._heap)
            self._engine.scheduler.abort_task(task)
        self._trace.final_time = self._now
        if self._stop_reason is None:
            self._stop_reason = (
                STOP_ITERATIONS if self._iteration >= self._max_iterations else "aborted"
            )
        self._result = SimulationResult(
            model=self._engine.model,
            trace=self._trace,
            converged=self._converged,
            stop_reason=self._stop_reason,
            kernel_name=self._engine.kernel_name,
        )
        return self._result

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
        end_time = start_time + self._engine._task_duration(task)
        heapq.heappush(self._heap, (end_time, self._seq, worker_index, task))
        self._seq += 1
        self._idle.discard(worker_index)
        return True

    def _dispatch_completions(self, freed_workers: List[int]) -> None:
        """Give freed workers new work, then retry idlers: a completion
        may have released the bands or quota they were waiting for."""
        for worker_index in freed_workers:
            self._dispatch(worker_index, self._now)
        for waiting in sorted(self._idle):
            self._dispatch(waiting, self._now)
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
        end_time, _, worker_index, task = heapq.heappop(self._heap)
        self._now = end_time
        if self._max_time is not None and self._now > self._max_time:
            engine.scheduler.abort_task(task)
            self._stopping = True
            self._stop_reason = STOP_TIME_BUDGET
            return

        engine._apply_task(task, self._iteration)
        engine.scheduler.complete_task(task)
        self._points_completed += task.nnz
        self._trace.record_task(
            TaskRecord(
                worker_index=worker_index,
                is_gpu=engine.scheduler.is_gpu_worker(worker_index),
                start_time=end_time - engine._task_duration(task),
                end_time=end_time,
                points=task.nnz,
                n_blocks=len(task.blocks),
                stolen=task.stolen,
                iteration=self._iteration,
            )
        )

        # Iteration boundaries (possibly several if a huge task crossed
        # more than one, which only happens on degenerate tiny grids).
        crossed_boundary = False
        while self._points_completed >= self._iteration_target and not self._stopping:
            crossed_boundary = True
            test_rmse = (
                rmse(engine.model, engine.test) if engine.test is not None else None
            )
            train_rmse = (
                rmse(engine.model, engine.train)
                if engine.compute_train_rmse
                else None
            )
            self._trace.record_iteration(
                IterationRecord(
                    iteration=self._iteration,
                    simulated_time=self._now,
                    train_rmse=train_rmse,
                    test_rmse=test_rmse,
                    points_processed=self._points_completed,
                )
            )
            report_epoch = self._iteration
            self._iteration += 1
            self._iteration_target += self._total_points
            engine.scheduler.start_iteration()

            if self._target_rmse is not None and test_rmse is not None:
                if test_rmse <= self._target_rmse:
                    self._converged = True
                    self._trace.target_reached_at = self._now
                    self._stopping = True
                    self._stop_reason = STOP_TARGET_RMSE
            if self._iteration >= self._max_iterations and not self._stopping:
                self._stopping = True
                self._stop_reason = STOP_ITERATIONS
            self._pending_reports.append(
                EpochReport(
                    epoch=report_epoch,
                    engine_time=self._now,
                    train_rmse=train_rmse,
                    test_rmse=test_rmse,
                    points_processed=self._points_completed,
                    converged=self._converged,
                )
            )

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
        return {
            "iteration": self._iteration,
            "iteration_target": self._iteration_target,
            "points_completed": self._points_completed,
            "now": self._now,
            "seq": self._seq,
            "converged": self._converged,
            "idle_workers": sorted(int(w) for w in self._idle),
            "pending_dispatch": (
                None
                if self._pending_dispatch is None
                else [int(w) for w in self._pending_dispatch]
            ),
            "in_flight": [
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
                for end_time, seq, worker_index, task in sorted(self._heap)
            ],
            "pending_reports": [
                report.to_state() for report in self._pending_reports
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        if self._started:
            raise CheckpointError(
                "session state can only be restored before the first step()"
            )
        self._started = True  # the restored state replaces priming
        engine = self._engine
        self._iteration = int(state["iteration"])
        self._iteration_target = int(state["iteration_target"])
        self._points_completed = int(state["points_completed"])
        self._now = float(state["now"])
        self._seq = int(state["seq"])
        self._converged = bool(state["converged"])
        self._idle = {int(w) for w in state["idle_workers"]}
        for entry in state["in_flight"]:
            blocks = [
                engine.scheduler.grid.block(int(row), int(col))
                for row, col in entry["blocks"]
            ]
            task = Task(
                blocks=blocks,
                worker_index=int(entry["worker_index"]),
                stolen=bool(entry["stolen"]),
                resident_p=bool(entry["resident_p"]),
            )
            engine.scheduler.locks.acquire(task.row_bands, task.col_bands)
            heapq.heappush(
                self._heap,
                (float(entry["end_time"]), int(entry["seq"]), task.worker_index, task),
            )
        pending = state["pending_dispatch"]
        if pending is None and not self._heap:
            # A quiescent checkpoint (threads backend, or a finished
            # boundary with every worker idle): nobody is in flight and
            # no dispatch is owed, so owe one to every non-idle worker.
            pending = [
                w for w in range(engine.scheduler.n_workers) if w not in self._idle
            ]
        self._pending_dispatch = None if pending is None else [int(w) for w in pending]
        self._pending_reports = [
            EpochReport.from_state(report) for report in state["pending_reports"]
        ]


class SimulationEngine(Engine):
    """Runs a scheduler against simulated hardware with real SGD updates.

    Parameters
    ----------
    scheduler:
        The block scheduler under test.
    platform:
        The simulated machine; its worker order must match the
        scheduler's (CPU threads first, then GPUs).
    train:
        Training ratings.
    training:
        Hyper-parameters (``k``, ``gamma``, ``lambda``).
    test:
        Optional held-out ratings; needed for RMSE-vs-time curves and
        time-to-target stopping.
    model:
        Optional pre-initialised factor model (a fresh one is created
        otherwise).
    schedule:
        Learning-rate schedule; constant by default.
    exact_kernel:
        Use the exact per-rating kernel (slow; for small validation runs).
    compute_train_rmse:
        Also record training RMSE at iteration boundaries.
    use_block_store:
        Feed the kernels through the block-major data plane
        (:class:`~repro.sparse.BlockStore`: per-block contiguous,
        band-local, validated-once arrays).  Disabling it restores the
        legacy gather-per-task path — bitwise-identical, only slower —
        which exists for benchmarking the data plane against its
        predecessor.
    """

    backend_name = "simulate"

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
        use_block_store: bool = True,
    ) -> None:
        if platform.n_workers != scheduler.n_workers:
            raise SimulationError(
                f"platform has {platform.n_workers} workers but the scheduler "
                f"expects {scheduler.n_workers}"
            )
        self.scheduler = scheduler
        self.platform = platform
        self.train = train
        self.test = test
        self.training = training
        self.model = model or FactorModel.for_matrix(train, training)
        self.schedule = schedule or ConstantSchedule(training.learning_rate)
        self.exact_kernel = exact_kernel
        self.compute_train_rmse = compute_train_rmse
        self._devices = platform.all_devices
        self._store = BlockStore(train) if use_block_store else None
        self._started = False

    # ------------------------------------------------------------------ #
    # Task execution
    # ------------------------------------------------------------------ #
    def _apply_task(self, task: Task, iteration: int) -> None:
        """Apply the SGD updates of one task to the shared factor model."""
        apply_task_updates(
            self.model,
            self.train,
            task,
            self.schedule(iteration),
            self.training,
            exact_kernel=self.exact_kernel,
            store=self._store,
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

    # ------------------------------------------------------------------ #
    # Session protocol
    # ------------------------------------------------------------------ #
    def start(
        self,
        iterations: Optional[int] = None,
        target_rmse: Optional[float] = None,
        max_simulated_time: Optional[float] = None,
        pause_on_epoch: Union[bool, Callable[[int], bool]] = False,
    ) -> SimulationSession:
        """Begin a stepwise simulated run (see :class:`SimulationSession`).

        ``pause_on_epoch`` is accepted for protocol compatibility; the
        single-threaded simulator always pauses at epoch boundaries.
        """
        if self._started:
            raise SimulationError(
                "a SimulationEngine can only be run once: its model and "
                "scheduler state are mutated by the run"
            )
        self._started = True
        return SimulationSession(
            self,
            iterations=iterations,
            target_rmse=target_rmse,
            max_simulated_time=max_simulated_time,
        )
