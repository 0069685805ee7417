"""A real thread-pool execution backend.

Where :class:`repro.sim.SimulationEngine` advances a virtual clock with
cost-model task durations, :class:`ThreadedEngine` runs the same
scheduler with genuinely concurrent worker threads over the shared numpy
factor matrices.  One thread is spawned per scheduler worker (CPU
threads first, then GPUs, matching the scheduler's index space); each
thread repeatedly asks the scheduler for a task, applies the task's SGD
updates and reports completion.

Correctness relies on the band-lock guarantee the whole paper is built
on: the scheduler only hands out conflict-free tasks, so two in-flight
tasks never share a row band of ``P`` or a column band of ``Q``.  The
kernel therefore writes to disjoint slices of the shared matrices and is
Hogwild-safe without any per-element synchronisation — only the
*scheduler* (a plain-Python data structure) is protected by a lock, and
the numerical work happens outside it.

"GPU" workers are ordinary threads here (the container has no CUDA); an
optional ``gpu_latency_scale`` makes them sleep for a fraction of the
simulated device time after each task, which lets throughput experiments
model a fast-but-latency-bound accelerator against real CPU threads.

The engine produces the same :class:`~repro.sim.trace.ExecutionTrace`
the simulator does, with wall-clock seconds as the time base, so every
downstream analysis (RMSE curves, utilisation, steal counts) works
unchanged on real executions.

Runs follow the stepwise session protocol (:mod:`repro.exec.session`):
:meth:`ThreadedEngine.start` spawns the pool lazily and returns a
:class:`ThreadedSession` whose ``step()`` waits for the next epoch
boundary.  By default the workers *keep running* while the controller
observes — ``step()`` is a window, not a brake, so plain ``run()``
behaves exactly as before.  With ``pause_on_epoch=True`` the pool
additionally quiesces at every boundary (no new tasks are handed out
and in-flight tasks drain before ``step()`` returns), which is what
makes checkpoints of a threaded run well-defined and resumable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Union

from ..config import TrainingConfig
from ..exceptions import CheckpointError, ExecutionError
from ..hardware import HeterogeneousPlatform
from ..sgd import FactorModel, rmse
from ..sgd.schedules import ConstantSchedule, LearningRateSchedule
from ..sparse import BlockStore, SparseRatingMatrix
from ..core.schedulers import Scheduler
from ..core.tasks import Task
from ..sim.trace import ExecutionTrace, IterationRecord, TaskRecord
from .base import (
    Engine,
    WallClockResult,
    apply_task_updates,
    resolve_stopping_conditions,
)
from .session import (
    STOP_ITERATIONS,
    STOP_TARGET_RMSE,
    STOP_TIME_BUDGET,
    EngineSession,
    EpochReport,
)

#: Seconds an idle worker waits before re-polling the scheduler.  Idle
#: workers are also woken explicitly whenever a task completes, so this
#: only bounds the latency of rare missed wake-ups and of wall-clock
#: budget expiry.
IDLE_POLL_SECONDS = 0.05


@dataclass
class ThreadedResult(WallClockResult):
    """Outcome of one threaded training run (wall-clock time base)."""


class ThreadedSession(EngineSession):
    """One threaded run, observed (and optionally paused) per epoch.

    Shared run state is guarded by one condition variable.  Workers wait
    on the condition while no conflict-free work exists for them — or,
    in ``pause_on_epoch`` mode, while the controller holds the run at an
    epoch boundary — and are woken by every completion (which may have
    released the bands or quota they need) and by every controller
    ``step()``/``stop()``/``finish()``.
    """

    def __init__(
        self,
        engine: "ThreadedEngine",
        iterations: Optional[int] = None,
        target_rmse: Optional[float] = None,
        max_simulated_time: Optional[float] = None,
        pause_on_epoch: Union[bool, Callable[[int], bool]] = False,
    ) -> None:
        self._engine = engine
        self._max_iterations = resolve_stopping_conditions(
            iterations,
            target_rmse,
            max_simulated_time,
            default_iterations=engine.training.iterations,
            has_test=engine.test is not None,
            error=ExecutionError,
        )
        self._target_rmse = target_rmse
        self._max_time = max_simulated_time
        self._pause_on_epoch = pause_on_epoch

        self._total_points = engine.scheduler.total_points
        if self._total_points <= 0:
            raise ExecutionError("the scheduler's grid contains no ratings")

        self._trace = ExecutionTrace(target_rmse=target_rmse)
        self._cond = threading.Condition()
        self._threads: List[threading.Thread] = []
        self._launched = False
        self._restored = False
        self._paused = False
        self._stopping = False
        self._converged = False
        self._stop_reason: Optional[str] = None
        self._error: Optional[BaseException] = None
        self._result: Optional[ThreadedResult] = None
        self._in_flight = 0
        self._boundary_busy = False
        self._idle: set = set()
        self._points_completed = 0
        self._iteration = 0
        self._iteration_target = self._total_points
        self._deadline: Optional[float] = None
        self._clock_start = 0.0
        self._last_event = 0.0
        #: Engine seconds accumulated by a restored checkpoint's prefix;
        #: shifts the clock so resumed timestamps continue monotonically.
        self._time_offset = 0.0
        self._reports: List[EpochReport] = []

    # ------------------------------------------------------------------ #
    # Protocol surface
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> "ThreadedEngine":
        return self._engine

    @property
    def epoch(self) -> int:
        with self._cond:
            return self._iteration

    @property
    def done(self) -> bool:
        with self._cond:
            if self._result is not None:
                return True
            if self._reports:
                return False
            return self._stopping or (self._launched and self._run_over_locked())

    @property
    def trace(self) -> ExecutionTrace:
        return self._trace

    @property
    def backend_name(self) -> str:
        return "threads"

    @property
    def started(self) -> bool:
        return self._launched

    def stop(self, reason: str = "callback") -> None:
        with self._cond:
            if not self._stopping:
                self._stopping = True
                if self._stop_reason is None:
                    self._stop_reason = reason
            self._paused = False
            self._cond.notify_all()

    def step(self) -> Optional[EpochReport]:
        with self._cond:
            # Queued reports (several boundaries can pass between steps,
            # or one huge task can cross more than one) are delivered
            # without touching the pause state.
            if self._reports:
                return self._reports.pop(0)
            if self._result is not None or self._stopping:
                return None
            if self._iteration >= self._max_iterations and not self._boundary_busy:
                # Only reachable on a restored session: a checkpoint taken
                # at (or past) this run's epoch cap has nothing left to
                # do.  A live run sets _stopping at the boundary that
                # reaches the cap — and while that boundary's owner is
                # still evaluating RMSE (_iteration already advanced,
                # _boundary_busy set) its report is yet to come and must
                # not be pre-empted here.
                self._stopping = True
                if self._stop_reason is None:
                    self._stop_reason = STOP_ITERATIONS
                self._cond.notify_all()
                return None
        if not self._launched:
            self._launch()
        with self._cond:
            # Resume the pool — unless a boundary already queued a report
            # (a fast worker can reach one before the controller gets
            # here), in which case the pause it set must stand.
            if not self._reports:
                self._paused = False
                self._cond.notify_all()
            while True:
                if self._reports:
                    if self._paused:
                        # The boundary owner set _paused before queueing
                        # the report; wait for in-flight tasks to drain
                        # so the pause state is quiescent.  Boundaries
                        # the pause predicate skipped keep running.
                        while self._in_flight > 0 and self._error is None:
                            self._cond.wait(IDLE_POLL_SECONDS)
                    return self._reports.pop(0)
                if self._error is not None:
                    return None
                if self._run_over_locked():
                    return None
                self._cond.wait(IDLE_POLL_SECONDS)

    def finish(self) -> ThreadedResult:
        if self._result is not None:
            return self._result
        with self._cond:
            if not self._stopping:
                self._stopping = True
                if self._stop_reason is None:
                    # finish() before any stopping condition fired: the
                    # caller is abandoning the run.
                    self._stop_reason = "aborted"
            self._paused = False
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()

        if self._error is not None:
            if isinstance(self._error, ExecutionError):
                raise self._error
            raise ExecutionError(
                f"a worker thread failed: {self._error!r}"
            ) from self._error

        self._trace.final_time = self._last_event
        self._result = ThreadedResult(
            model=self._engine.model,
            trace=self._trace,
            converged=self._converged,
            stop_reason=self._stop_reason or STOP_ITERATIONS,
            kernel_name=self._engine.kernel_name,
        )
        return self._result

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        with self._cond:
            if self._launched and self._in_flight > 0:
                raise CheckpointError(
                    "a threaded session can only be checkpointed while "
                    "quiescent at an epoch boundary; start the session with "
                    "pause_on_epoch=True (the Checkpoint callback does this "
                    "automatically)"
                )
            if self._launched and not (
                self._paused or self._run_over_locked() or self._stopping
            ):
                raise CheckpointError(
                    "a threaded session can only be checkpointed while "
                    "paused at an epoch boundary (pause_on_epoch=True)"
                )
            return {
                "iteration": self._iteration,
                "iteration_target": self._iteration_target,
                "points_completed": self._points_completed,
                "now": self._last_event,
                "seq": len(self._trace.tasks),
                "converged": self._converged,
                "idle_workers": [],
                "pending_dispatch": None,
                "in_flight": [],
                "pending_reports": [
                    report.to_state() for report in self._reports
                ],
            }

    def load_state_dict(self, state: dict) -> None:
        if self._launched:
            raise CheckpointError(
                "session state can only be restored before the first step()"
            )
        if state["in_flight"]:
            raise CheckpointError(
                "this checkpoint carries simulated in-flight tasks (it was "
                "captured from a multi-worker simulator run); resume it on "
                'the "simulate" backend'
            )
        self._restored = True
        self._iteration = int(state["iteration"])
        self._iteration_target = int(state["iteration_target"])
        self._points_completed = int(state["points_completed"])
        self._converged = bool(state["converged"])
        self._time_offset = float(state["now"])
        self._last_event = float(state["now"])
        self._reports = [
            EpochReport.from_state(report) for report in state["pending_reports"]
        ]

    # ------------------------------------------------------------------ #
    # Pool management
    # ------------------------------------------------------------------ #
    def _should_pause(self, epoch: int) -> bool:
        """Whether the boundary of 0-based ``epoch`` must quiesce the pool."""
        if callable(self._pause_on_epoch):
            return bool(self._pause_on_epoch(epoch))
        return bool(self._pause_on_epoch)

    def _run_over_locked(self) -> bool:
        """Whether every worker thread has exited (lock held or not needed)."""
        return self._launched and all(
            not thread.is_alive() for thread in self._threads
        )

    def _launch(self) -> None:
        self._launched = True
        if not self._restored:
            self._engine.scheduler.start_iteration()
        # A restored session shifts the clock back by the checkpointed
        # engine time so wall-clock stamps (and the time budget) continue
        # where the previous run left off.
        self._clock_start = time.monotonic() - self._time_offset
        if self._max_time is not None:
            self._deadline = self._clock_start + self._max_time
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"repro-exec-{index}",
                daemon=True,
            )
            for index in range(self._engine.n_workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------ #
    # Worker threads
    # ------------------------------------------------------------------ #
    def _elapsed(self) -> float:
        return time.monotonic() - self._clock_start

    def _worker_loop(self, worker_index: int) -> None:
        is_gpu = self._engine.scheduler.is_gpu_worker(worker_index)
        while True:
            with self._cond:
                try:
                    task, rate_iteration = self._acquire_task(worker_index)
                except BaseException as exc:
                    # A scheduler-side failure (e.g. a LockTable accounting
                    # error) must surface through finish(), not silently
                    # kill this thread and hang the others.
                    if self._error is None:
                        self._error = exc
                    self._cond.notify_all()
                    return
                if task is None:
                    return
            start = self._elapsed()
            try:
                self._execute_task(task, rate_iteration, is_gpu)
            except BaseException as exc:  # propagate to finish()
                with self._cond:
                    self._engine.scheduler.abort_task(task)
                    self._in_flight -= 1
                    if self._error is None:
                        self._error = exc
                    self._cond.notify_all()
                return
            end = self._elapsed()
            owns_boundary = False
            with self._cond:
                try:
                    owns_boundary = self._book_completion(
                        worker_index, is_gpu, task, start, end
                    )
                except BaseException as exc:
                    # Completion bookkeeping failed: surface the error
                    # instead of leaving the surviving workers polling a
                    # run that can never finish.
                    if self._error is None:
                        self._error = exc
                self._cond.notify_all()
            if self._error is not None:
                return
            if owns_boundary:
                try:
                    self._process_boundaries()
                except BaseException as exc:
                    with self._cond:
                        if self._error is None:
                            self._error = exc
                        self._boundary_busy = False
                        self._cond.notify_all()
                    return

    def _acquire_task(self, worker_index: int):
        """Block until a task is available, the run ends, or it deadlocks.

        Returns ``(task, iteration)`` — the iteration number captured at
        dispatch prices the learning rate even if other workers advance
        the iteration while this task is still executing — or
        ``(None, 0)`` when the worker should exit.  Caller holds the lock.
        """
        while True:
            if self._stopping or self._error is not None:
                return None, 0
            if self._deadline is not None and time.monotonic() > self._deadline:
                self._stopping = True
                if self._stop_reason is None:
                    self._stop_reason = STOP_TIME_BUDGET
                self._cond.notify_all()
                return None, 0
            if self._paused:
                # The controller holds the run at an epoch boundary.
                self._cond.wait(IDLE_POLL_SECONDS)
                continue
            task = self._engine.scheduler.next_task(worker_index)
            if task is not None:
                self._idle.discard(worker_index)
                self._in_flight += 1
                return task, self._iteration
            self._idle.add(worker_index)
            if self._in_flight == 0 and len(self._idle) == self._engine.n_workers:
                # Nobody holds a task and nobody can get one: no future
                # completion can unblock us (mirrors the simulator's
                # all-idle check).
                self._error = ExecutionError(
                    "all workers are idle with work remaining; the grid or "
                    "quota configuration cannot make progress"
                )
                self._cond.notify_all()
                return None, 0
            self._cond.wait(timeout=IDLE_POLL_SECONDS)

    def _execute_task(self, task: Task, iteration: int, is_gpu: bool) -> None:
        """Apply one task's SGD updates (no lock held — see module docstring)."""
        engine = self._engine
        apply_task_updates(
            engine.model,
            engine.train,
            task,
            engine.schedule(iteration),
            engine.training,
            exact_kernel=engine.exact_kernel,
            store=engine._store,
        )
        if is_gpu and engine.gpu_latency_scale > 0 and engine.platform is not None:
            device = engine.platform.all_devices[task.worker_index]
            work = task.block_work(engine.training.latent_factors)
            time.sleep(device.process_time(work) * engine.gpu_latency_scale)

    def _book_completion(
        self,
        worker_index: int,
        is_gpu: bool,
        task: Task,
        start: float,
        end: float,
    ) -> bool:
        """Book a completed task (locked).

        Returns ``True`` when this worker crossed an iteration boundary
        and no other worker is already processing one: the caller must
        then run :meth:`_process_boundaries` after releasing the lock.
        """
        self._engine.scheduler.complete_task(task)
        self._in_flight -= 1
        self._points_completed += task.nnz
        self._last_event = max(self._last_event, end)
        self._trace.record_task(
            TaskRecord(
                worker_index=worker_index,
                is_gpu=is_gpu,
                start_time=start,
                end_time=end,
                points=task.nnz,
                n_blocks=len(task.blocks),
                stolen=task.stolen,
                iteration=self._iteration,
            )
        )
        if self._deadline is not None and time.monotonic() > self._deadline:
            self._stopping = True
            if self._stop_reason is None:
                self._stop_reason = STOP_TIME_BUDGET
        if (
            not self._stopping
            and not self._boundary_busy
            and self._points_completed >= self._iteration_target
        ):
            self._boundary_busy = True
            return True
        return False

    def _process_boundaries(self) -> None:
        """Process iteration boundaries, evaluating RMSE outside the lock.

        Iterations complete when the cumulative processed ratings reach
        the next multiple of the grid's total, with the same accounting
        as the simulator (other tasks may be in flight across the
        boundary there too).  The counter advance and the scheduler's
        quota reset happen under the lock so the other workers move on to
        the next iteration immediately; the O(test nnz) RMSE evaluation
        happens *outside* it — it would buy no consistency anyway, since
        in-flight kernels mutate the factors regardless.  Only one worker
        owns boundary processing at a time (``_boundary_busy``), which
        keeps the iteration records ordered.
        """
        engine = self._engine
        while True:
            with self._cond:
                if self._stopping or self._points_completed < self._iteration_target:
                    self._boundary_busy = False
                    self._cond.notify_all()
                    return
                index = self._iteration
                points = self._points_completed
                stamp = self._last_event
                self._iteration += 1
                self._iteration_target += self._total_points
                engine.scheduler.start_iteration()
                if self._should_pause(index):
                    # Hold the run at this boundary: workers stop drawing
                    # new tasks and the in-flight remainder drains while
                    # the controller consumes the report.
                    self._paused = True
                else:
                    # The quota reset unblocks the idle workers now — wake
                    # them before the RMSE evaluation, not after it.
                    self._cond.notify_all()

            test_rmse = (
                rmse(engine.model, engine.test) if engine.test is not None else None
            )
            train_rmse = (
                rmse(engine.model, engine.train)
                if engine.compute_train_rmse
                else None
            )

            with self._cond:
                self._trace.record_iteration(
                    IterationRecord(
                        iteration=index,
                        simulated_time=stamp,
                        train_rmse=train_rmse,
                        test_rmse=test_rmse,
                        points_processed=points,
                    )
                )
                if self._target_rmse is not None and test_rmse is not None:
                    if test_rmse <= self._target_rmse:
                        self._converged = True
                        self._trace.target_reached_at = stamp
                        self._stopping = True
                        if self._stop_reason is None:
                            self._stop_reason = STOP_TARGET_RMSE
                if self._iteration >= self._max_iterations and not self._stopping:
                    self._stopping = True
                    if self._stop_reason is None:
                        self._stop_reason = STOP_ITERATIONS
                self._reports.append(
                    EpochReport(
                        epoch=index,
                        engine_time=stamp,
                        train_rmse=train_rmse,
                        test_rmse=test_rmse,
                        points_processed=points,
                        converged=self._converged,
                    )
                )
                self._cond.notify_all()


class ThreadedEngine(Engine):
    """Runs a scheduler with a pool of real concurrent worker threads.

    Parameters
    ----------
    scheduler:
        The block scheduler to execute; one thread is created per
        scheduler worker.
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
    platform:
        Optional simulated platform description.  Only consulted for
        ``gpu_latency_scale``; when given, its worker count must match
        the scheduler's.
    exact_kernel:
        Use the exact per-rating kernel (slow; for small validation runs).
    compute_train_rmse:
        Also record training RMSE at iteration boundaries.
    gpu_latency_scale:
        When positive (requires ``platform``), each GPU worker sleeps for
        this fraction of its task's *simulated* device time after the
        numerical work, emulating device latency against real CPU
        threads.  Zero (the default) disables the emulation.
    use_block_store:
        Feed the kernels through the block-major data plane
        (:class:`~repro.sparse.BlockStore`).  Disabling it restores the
        legacy gather-per-task path — bitwise-identical, only slower —
        which exists for benchmarking the data plane against its
        predecessor.
    """

    backend_name = "threads"

    def __init__(
        self,
        scheduler: Scheduler,
        train: SparseRatingMatrix,
        training: TrainingConfig,
        test: Optional[SparseRatingMatrix] = None,
        model: Optional[FactorModel] = None,
        schedule: Optional[LearningRateSchedule] = None,
        platform: Optional[HeterogeneousPlatform] = None,
        exact_kernel: bool = False,
        compute_train_rmse: bool = False,
        gpu_latency_scale: float = 0.0,
        use_block_store: bool = True,
    ) -> None:
        if platform is not None and platform.n_workers != scheduler.n_workers:
            raise ExecutionError(
                f"platform has {platform.n_workers} workers but the scheduler "
                f"expects {scheduler.n_workers}"
            )
        if gpu_latency_scale < 0:
            raise ExecutionError(
                f"gpu_latency_scale must be >= 0, got {gpu_latency_scale}"
            )
        if gpu_latency_scale > 0 and platform is None:
            raise ExecutionError("gpu_latency_scale needs a platform for timing")
        self.scheduler = scheduler
        self.train = train
        self.test = test
        self.training = training
        self.model = model or FactorModel.for_matrix(train, training)
        self.schedule = schedule or ConstantSchedule(training.learning_rate)
        self.platform = platform
        self.exact_kernel = exact_kernel
        self.compute_train_rmse = compute_train_rmse
        self.gpu_latency_scale = gpu_latency_scale
        self.n_workers = scheduler.n_workers
        # Shared, immutable after materialisation; worker threads read it
        # concurrently without locking (see BlockStore's thread-safety note).
        self._store = BlockStore(train) if use_block_store else None
        self._started = False

    # ------------------------------------------------------------------ #
    # Session protocol
    # ------------------------------------------------------------------ #
    def start(
        self,
        iterations: Optional[int] = None,
        target_rmse: Optional[float] = None,
        max_simulated_time: Optional[float] = None,
        pause_on_epoch: Union[bool, Callable[[int], bool]] = False,
    ) -> ThreadedSession:
        """Begin a stepwise threaded run (see :class:`ThreadedSession`).

        ``max_simulated_time`` bounds *wall-clock* seconds for this
        backend; the parameter keeps its protocol name so callers can
        switch backends without changing call sites.
        """
        if self._started:
            raise ExecutionError("a ThreadedEngine can only be run once")
        self._started = True
        return ThreadedSession(
            self,
            iterations=iterations,
            target_rmse=target_rmse,
            max_simulated_time=max_simulated_time,
            pause_on_epoch=pause_on_epoch,
        )
