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

The engine produces the same :class:`~repro.exec.trace.ExecutionTrace`
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
from typing import List, Optional

from ..exceptions import ExecutionError
from ..core.tasks import Task
from .base import Engine, WallClockResult, apply_block_data
from .session import STOP_CALLBACK, EngineSession, EpochReport

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

    The executor half of the session: worker threads share the core's
    epoch ledger, so all of it is guarded by one condition variable —
    every core call below happens with ``_cond`` held, except
    ``evaluate()`` — and the controller-facing surface is overridden to
    take it.  Workers wait on the condition while no conflict-free work
    exists for them — or, in ``pause_on_epoch`` mode, while the
    controller holds the run at an epoch boundary — and are woken by
    every completion (which may have released the bands or quota they
    need), by every stop request and by every controller
    ``step()``/``stop()``/``finish()``.
    """

    def __init__(self, engine: "ThreadedEngine", **stopping) -> None:
        super().__init__(engine, **stopping)
        self._cond = threading.Condition()
        self._threads: List[threading.Thread] = []
        self._in_flight = 0
        #: Set while one worker owns boundary processing; keeps the
        #: iteration records ordered.
        self._boundary_busy = False
        self._idle: set = set()
        self._clock_start = 0.0

    # ------------------------------------------------------------------ #
    # Protocol surface (the core's, under the lock)
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        with self._cond:
            return self._iteration

    @property
    def done(self) -> bool:
        with self._cond:
            return super().done or (not self._reports and self._run_over_locked())

    def stop(self, reason: str = STOP_CALLBACK) -> None:
        with self._cond:
            super().stop(reason)
            self._cond.notify_all()

    def step(self) -> Optional[EpochReport]:
        with self._cond:
            # Queued reports are delivered without touching the pause state.
            if self._reports:
                return self._reports.pop(0)
            if self._run_is_over():
                return None
        return self._advance()

    def state_dict(self) -> dict:
        with self._cond:
            self._require_quiescent(
                in_flight=self._in_flight > 0,
                held=not self._started
                or self._paused
                or self._run_over_locked()
                or self._stopping,
            )
            return super().state_dict()

    def _request_stop(self, reason: str) -> None:
        # Lock held.  Whoever decides the run is over — controller,
        # deadline, boundary rule — wakes the waiting workers.
        super()._request_stop(reason)
        self._cond.notify_all()

    # ------------------------------------------------------------------ #
    # Executor hooks
    # ------------------------------------------------------------------ #
    def _advance(self) -> Optional[EpochReport]:
        if not self._started:
            self._launch()
        with self._cond:
            # Resume the pool — unless a boundary already queued a report
            # or is still evaluating one (a fast worker can reach it
            # before the controller gets here), in which case the pause
            # it set must stand.
            if not self._reports and self._boundary is None:
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

    def _release(self) -> None:
        for thread in self._threads:
            thread.join()

    # ------------------------------------------------------------------ #
    # Pool management
    # ------------------------------------------------------------------ #
    def _run_over_locked(self) -> bool:
        """Whether every worker thread has exited (lock held or not needed)."""
        return self._started and all(
            not thread.is_alive() for thread in self._threads
        )

    def _launch(self) -> None:
        self._started = True
        if not self._restored:
            self._engine.scheduler.start_iteration()
        # A restored session shifts the clock back by the checkpointed
        # engine time so wall-clock stamps (and the time budget) continue
        # where the previous run left off.
        self._clock_start = time.monotonic() - self._last_event
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
                self._execute_task(worker_index, task, rate_iteration)
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
                        worker_index, task, start, end
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
            if self._time_budget_spent(self._elapsed()):
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

    def _execute_task(self, worker_index: int, task: Task, iteration: int) -> None:
        """Apply one task's SGD updates (no lock held — see module docstring)."""
        engine = self._engine
        apply_block_data(
            engine.model.p,
            engine.model.q,
            engine._store.task_data(task),
            engine.schedule(iteration),
            engine.training,
            engine.kernel_name,
        )
        sleep_s = engine._gpu_sleep_seconds(worker_index, task)
        if sleep_s > 0:
            time.sleep(sleep_s)

    def _book_completion(
        self, worker_index: int, task: Task, start: float, end: float
    ) -> bool:
        """Book a completed task (locked).

        Returns ``True`` when this worker crossed an iteration boundary
        and no other worker is already processing one: the caller must
        then run :meth:`_process_boundaries` after releasing the lock.
        """
        self.book(worker_index, task, start, end)
        self._in_flight -= 1
        self._time_budget_spent(self._elapsed())
        if self.boundary_due and not self._boundary_busy:
            self._boundary_busy = True
            return True
        return False

    def _process_boundaries(self) -> None:
        """Process iteration boundaries, evaluating RMSE outside the lock.

        Same accounting as the simulator (the core's).  The counter
        advance and the scheduler's quota reset happen under the lock so
        the other workers move on to the next iteration immediately; the
        O(test nnz) RMSE evaluation happens *outside* it.  Only one
        worker owns boundary processing at a time (``_boundary_busy``).
        """
        while True:
            with self._cond:
                if not self.boundary_due:
                    self._boundary_busy = False
                    self._cond.notify_all()
                    return
                if self._should_pause(self.open_boundary()):
                    # Hold the run at this boundary: workers stop drawing
                    # new tasks and the in-flight remainder drains while
                    # the controller consumes the report.
                    self._paused = True
                else:
                    # The quota reset unblocks the idle workers now — wake
                    # them before the RMSE evaluation, not after it.
                    self._cond.notify_all()

            rmses = self.evaluate()

            with self._cond:
                self.close_boundary(*rmses)
                self._cond.notify_all()


class ThreadedEngine(Engine):
    """Runs a scheduler with a pool of real concurrent worker threads.

    One thread is created per scheduler worker.  Parameters are
    :class:`~repro.exec.base.Engine`'s; ``platform`` is only consulted
    for ``gpu_latency_scale``.
    """

    backend_name = "threads"
    result_class = ThreadedResult
    session_class = ThreadedSession
