"""The stepwise training-session protocol.

``Engine.run()`` used to be an opaque call: the whole online phase
(Algorithm 2) ran to completion inside one function and every stopping
rule had to be baked into both engines.  The session protocol opens the
loop at its natural grain — the epoch, whose per-iteration RMSE/time
trajectory *is* the paper's evaluation (Figure 12, Table III)::

    session = engine.start(iterations=10)
    while (report := session.step()) is not None:
        ...                      # observe, checkpoint, or session.stop()
    result = session.finish()

* :meth:`EngineSession.step` advances the engine until the next epoch
  boundary and returns an :class:`EpochReport`, or ``None`` once no
  further epoch will complete;
* :meth:`EngineSession.stop` requests a graceful stop at the next
  opportunity (used by callbacks such as early stopping);
* :meth:`EngineSession.finish` releases in-flight work and produces the
  same :class:`~repro.exec.base.EngineResult` the old ``run()`` returned.

``run()`` itself is now a thin loop over this protocol
(:func:`run_session`), so the single-call API is unchanged while
observation, early stopping, checkpointing and resumption
(:mod:`repro.exec.callbacks`, :mod:`repro.exec.checkpoint`) all build on
``step()`` without touching the engines' numerics.

Step boundaries are epoch boundaries on purpose: an epoch boundary is
where both engines already synchronise their accounting (quota reset,
RMSE evaluation), so pausing there observes the band-lock guarantee and
preserves the 1-worker sim-parity contract — the sequence of scheduler
decisions and kernel calls of a stepped run is identical to an
uninterrupted one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

from ..exceptions import CheckpointError, ExecutionError
from ..sgd import rmse
from .trace import ExecutionTrace, IterationRecord, TaskRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.schedulers import Scheduler
    from ..core.tasks import Task
    from ..sgd import FactorModel
    from .base import EngineResult


#: ``stop_reason`` values produced by the engines themselves.
STOP_ITERATIONS = "iterations"
STOP_TARGET_RMSE = "target_rmse"
STOP_TIME_BUDGET = "time_budget"
STOP_CALLBACK = "callback"

#: Iteration cap applied when a run is bounded only by ``target_rmse``
#: (or a time budget): far past any convergent training, it bounds the
#: damage of a diverging run that can never reach its target.
MAX_UNBOUNDED_ITERATIONS = 10_000


@dataclass(frozen=True)
class EpochReport:
    """What a session reports at one epoch boundary.

    Attributes
    ----------
    epoch:
        0-based index of the epoch that just completed.
    engine_time:
        Engine seconds at the boundary — simulated seconds for the
        ``"simulate"`` backend, wall-clock seconds for ``"threads"``.
    train_rmse:
        Training RMSE at the boundary (``None`` unless the engine was
        asked to compute it).
    test_rmse:
        Test RMSE at the boundary (``None`` without a test set).
    points_processed:
        Cumulative ratings processed since the start of the run.
    converged:
        Whether the target RMSE (if any) has been reached by this epoch.
    """

    epoch: int
    engine_time: float
    train_rmse: Optional[float]
    test_rmse: Optional[float]
    points_processed: int
    converged: bool = False

    def to_state(self) -> dict:
        """Plain JSON-able form, used by session/checkpoint serialization."""
        return {
            "epoch": self.epoch,
            "engine_time": self.engine_time,
            "train_rmse": self.train_rmse,
            "test_rmse": self.test_rmse,
            "points_processed": self.points_processed,
            "converged": self.converged,
        }

    @classmethod
    def from_state(cls, state: dict) -> "EpochReport":
        """Inverse of :meth:`to_state`."""
        return cls(**state)


class EngineSession(ABC):
    """One in-progress training run, advanced epoch by epoch — the session core.

    Sessions are single-use and stateful: obtain one from
    :meth:`Engine.start`, drive it with :meth:`step` and close it with
    :meth:`finish`.  Between ``step()`` calls the run is paused at an
    epoch boundary (the simulator inherently; the real backends when
    started with ``pause_on_epoch=True``), which is the only state a
    checkpoint may capture.

    This class owns, once, everything the online phase (Algorithm 2)
    does that is independent of *how* tasks execute: stopping-condition
    resolution, the **epoch ledger** (ratings completed, epoch index and
    target, convergence, stop request and reason, engine clock), the
    trace and the queue of undelivered reports, completion booking
    (:meth:`book`), the epoch boundary as three pieces
    (:meth:`open_boundary` → :meth:`evaluate` → :meth:`close_boundary`),
    ``stop()`` / ``finish()`` and the common checkpoint state.  Keeping
    it in one place is what keeps the backends' stopping semantics — and
    hence the 1-worker sim-parity guarantee — in lockstep.

    An **executor** subclass supplies only how tasks start and how their
    completions arrive: :meth:`_advance` (launch on first use, then run
    until a report is queued or the run is over) and :meth:`_release`
    (let go of in-flight work and workers).  The core takes no lock: an
    executor whose workers share the ledger (the thread pool) calls it
    with its own lock held and overrides the controller-facing surface
    to acquire it.
    """

    def __init__(
        self,
        engine,
        iterations: Optional[int] = None,
        target_rmse: Optional[float] = None,
        max_simulated_time: Optional[float] = None,
        pause_on_epoch: Union[bool, Callable[[int], bool]] = False,
    ) -> None:
        self._engine = engine
        error = engine.error_class
        if target_rmse is not None and engine.test is None:
            raise error("target_rmse stopping requires a test set")
        if iterations is None and target_rmse is None and max_simulated_time is None:
            iterations = engine.training.iterations
        self._max_iterations = (
            iterations if iterations is not None else MAX_UNBOUNDED_ITERATIONS
        )
        self._target_rmse = target_rmse
        self._max_time = max_simulated_time
        self._pause_on_epoch = pause_on_epoch
        self._total_points = engine.scheduler.total_points
        if self._total_points <= 0:
            raise error("the scheduler's grid contains no ratings")

        self._trace = ExecutionTrace(target_rmse=target_rmse)
        #: Boundary reports not yet returned by ``step()`` (several
        #: boundaries can pass between steps, or one huge task can cross
        #: more than one).
        self._reports: List[EpochReport] = []
        self._points_completed = 0
        self._iteration = 0
        self._iteration_target = self._total_points
        self._converged = False
        self._stopping = False
        self._stop_reason: Optional[str] = None
        #: Engine seconds of the latest event: the simulator's virtual
        #: clock, the last completion's wall-clock stamp on the real
        #: backends.  Restored from a checkpoint, it is where the resumed
        #: run's clock continues.
        self._last_event = 0.0
        #: ``(epoch, points, stamp)`` of the boundary between
        #: ``open_boundary()`` and ``close_boundary()``, else ``None``.
        self._boundary: Optional[Tuple[int, int, float]] = None
        #: Held at an epoch boundary at the caller's request
        #: (``pause_on_epoch``); only the real backends ever set it.
        self._paused = False
        self._started = False
        self._restored = False
        self._worker_restarts = 0
        self._error: Optional[BaseException] = None
        self._result: Optional["EngineResult"] = None

    # ------------------------------------------------------------------ #
    # Protocol surface
    # ------------------------------------------------------------------ #
    @property
    def engine(self):
        """The engine this session belongs to."""
        return self._engine

    @property
    def epoch(self) -> int:
        """Number of epochs completed so far."""
        return self._iteration

    @property
    def done(self) -> bool:
        """Whether the run has ended (no further ``step()`` will report)."""
        if self._result is not None:
            return True
        if self._reports:
            return False
        return self._stopping or self._error is not None

    @property
    def model(self) -> "FactorModel":
        """The factor model being trained (shared with the engine)."""
        return self._engine.model

    @property
    def scheduler(self) -> "Scheduler":
        """The scheduler driving the run (shared with the engine)."""
        return self._engine.scheduler

    @property
    def trace(self) -> ExecutionTrace:
        """The execution trace recorded so far."""
        return self._trace

    @property
    def backend_name(self) -> str:
        """Registry name of the backend that produced this session."""
        return self._engine.backend_name

    @property
    def started(self) -> bool:
        """Whether the session has begun executing (first ``step()`` ran)."""
        return self._started

    def step(self) -> Optional[EpochReport]:
        """Advance to the next epoch boundary.

        Returns the report of the epoch that completed, or ``None`` when
        the run is over (stopping condition met, :meth:`stop` requested,
        or no work remains).  Calling ``step()`` after ``None`` keeps
        returning ``None``.
        """
        if self._reports:
            return self._reports.pop(0)
        if self._run_is_over():
            return None
        return self._advance()

    def stop(self, reason: str = STOP_CALLBACK) -> None:
        """Request a graceful stop; the next ``step()`` returns ``None``.

        ``reason`` becomes the result's ``stop_reason`` unless a stopping
        condition already fired.
        """
        self._request_stop(reason)
        self._paused = False

    def finish(self) -> "EngineResult":
        """End the run, release in-flight work and build the result.

        Idempotent: repeated calls return the same result object.  A
        failure inside a worker surfaces here, after the executor has
        released everything it holds.
        """
        if self._result is not None:
            return self._result
        # finish() before any stopping condition fired: the caller is
        # abandoning the run.
        self.stop("aborted")
        self._release()
        if self._error is not None:
            if isinstance(self._error, ExecutionError):
                raise self._error
            raise ExecutionError(
                f"a {self.backend_name} worker failed: {self._error!r}"
            ) from self._error
        self._trace.final_time = self._last_event
        self._result = self._engine.result_class(
            model=self._engine.model,
            trace=self._trace,
            converged=self._converged,
            stop_reason=self._stop_reason or STOP_ITERATIONS,
            worker_restarts=self._worker_restarts,
            kernel_name=self._engine.kernel_name,
        )
        return self._result

    # ------------------------------------------------------------------ #
    # Executor hooks
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _advance(self) -> Optional[EpochReport]:
        """Run until a report is queued (return it) or the run is over.

        Called by :meth:`step` once the queue is empty and no stopping
        condition holds; launches the executor on first use.
        """

    @abstractmethod
    def _release(self) -> None:
        """Let go of in-flight work and workers (a stop is already requested)."""

    # ------------------------------------------------------------------ #
    # The epoch ledger (an executor with a lock calls these holding it)
    # ------------------------------------------------------------------ #
    def _request_stop(self, reason: str) -> None:
        """Ask the run to end; the first reason given is the one kept."""
        if not self._stopping:
            self._stopping = True
            if self._stop_reason is None:
                self._stop_reason = reason

    def _run_is_over(self) -> bool:
        """Whether ``step()`` has nothing left to wait for."""
        if self._result is not None or self._stopping or self._error is not None:
            return True
        if self._iteration >= self._max_iterations and self._boundary is None:
            # Only reachable on a restored session: a checkpoint taken at
            # (or past) this run's epoch cap has nothing left to do.  A
            # live run requests the stop at the boundary that reaches the
            # cap — and while that boundary is still open (the thread
            # pool evaluates RMSE outside its lock, epoch counter already
            # advanced) its report is yet to come and must not be
            # pre-empted here.
            self._request_stop(STOP_ITERATIONS)
            return True
        return False

    def _time_budget_spent(self, now: float) -> bool:
        """Apply the time budget at engine second ``now``; True once it is spent."""
        if self._max_time is not None and now > self._max_time:
            self._request_stop(STOP_TIME_BUDGET)
            return True
        return False

    def _should_pause(self, epoch: int) -> bool:
        """Whether the boundary of 0-based ``epoch`` must quiesce the run."""
        if callable(self._pause_on_epoch):
            return bool(self._pause_on_epoch(epoch))
        return bool(self._pause_on_epoch)

    def book(self, worker_index: int, task: "Task", start: float, end: float) -> None:
        """Book one completed task: release its bands, count and trace it."""
        scheduler = self._engine.scheduler
        scheduler.complete_task(task)
        self._points_completed += task.nnz
        if end > self._last_event:
            self._last_event = end
        self._trace.record_task(
            TaskRecord(
                worker_index=worker_index,
                is_gpu=scheduler.is_gpu_worker(worker_index),
                start_time=start,
                end_time=end,
                points=task.nnz,
                n_blocks=len(task.blocks),
                stolen=task.stolen,
                iteration=self._iteration,
            )
        )

    @property
    def boundary_due(self) -> bool:
        """Whether booked ratings have reached the next epoch boundary.

        An epoch completes when the cumulative processed ratings reach
        the next multiple of the grid's total (other tasks may be in
        flight across the boundary).  One huge task can cross more than
        one, which only happens on degenerate tiny grids — callers loop.
        """
        return self._points_completed >= self._iteration_target and not self._stopping

    def open_boundary(self) -> int:
        """Advance the epoch counters and reset the scheduler's quotas.

        Returns the 0-based index of the epoch that just completed.  The
        ratings count and clock the boundary's record will carry are
        fixed here, so an executor may let workers run on into the next
        epoch before :meth:`close_boundary`.
        """
        index = self._iteration
        self._boundary = (index, self._points_completed, self._last_event)
        self._iteration += 1
        self._iteration_target += self._total_points
        self._engine.scheduler.start_iteration()
        return index

    def evaluate(self) -> Tuple[Optional[float], Optional[float]]:
        """``(train_rmse, test_rmse)`` of the current factors.

        Touches neither the ledger nor the scheduler, so an executor may
        call it outside its lock: O(test nnz) under a lock would buy no
        consistency anyway, since in-flight kernels mutate the factors
        regardless.
        """
        engine = self._engine
        test_rmse = rmse(engine.model, engine.test) if engine.test is not None else None
        train_rmse = (
            rmse(engine.model, engine.train) if engine.compute_train_rmse else None
        )
        return train_rmse, test_rmse

    def close_boundary(
        self, train_rmse: Optional[float], test_rmse: Optional[float]
    ) -> None:
        """Record the open boundary's epoch, apply the stopping rules, queue its report.

        Reaching the target RMSE takes precedence over the epoch cap when
        both fire on the same boundary.
        """
        index, points, stamp = self._boundary
        self._boundary = None
        self._trace.record_iteration(
            IterationRecord(
                iteration=index,
                simulated_time=stamp,
                train_rmse=train_rmse,
                test_rmse=test_rmse,
                points_processed=points,
            )
        )
        if (
            self._target_rmse is not None
            and test_rmse is not None
            and test_rmse <= self._target_rmse
        ):
            self._converged = True
            self._trace.target_reached_at = stamp
            self._request_stop(STOP_TARGET_RMSE)
        if self._iteration >= self._max_iterations:
            self._request_stop(STOP_ITERATIONS)
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

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #
    def _counters(self) -> dict:
        """The ledger's epoch counters (also the rollback unit of recovery)."""
        return {
            "iteration": self._iteration,
            "iteration_target": self._iteration_target,
            "points_completed": self._points_completed,
            "converged": self._converged,
        }

    def _load_counters(self, state: dict) -> None:
        """Inverse of :meth:`_counters`."""
        self._iteration = int(state["iteration"])
        self._iteration_target = int(state["iteration_target"])
        self._points_completed = int(state["points_completed"])
        self._converged = bool(state["converged"])

    def _require_quiescent(self, in_flight: bool, held: bool) -> None:
        """Refuse to checkpoint a real backend that is not still at a boundary."""
        if in_flight:
            raise CheckpointError(
                f"a {self.backend_name} session can only be checkpointed while "
                "quiescent at an epoch boundary; start the session with "
                "pause_on_epoch=True (the Checkpoint callback does this "
                "automatically)"
            )
        if not held:
            raise CheckpointError(
                f"a {self.backend_name} session can only be checkpointed while "
                "paused at an epoch boundary (pause_on_epoch=True)"
            )

    def _adopt_in_flight(self, entries: list) -> None:
        """Take over a checkpoint's in-flight tasks (only the simulator can)."""
        raise CheckpointError(
            "this checkpoint carries simulated in-flight tasks (it was "
            "captured from a multi-worker simulator run); resume it on "
            'the "simulate" backend'
        )

    def state_dict(self) -> dict:
        """Serializable engine-loop state at the current epoch boundary.

        Together with the factor matrices, the scheduler state and the
        trace (all captured by
        :class:`~repro.exec.checkpoint.TrainCheckpoint`), this is
        everything needed to resume the run exactly where it paused.
        The base form describes a quiescent run — nothing in flight, no
        dispatch owed — which is what makes it portable across backends;
        the simulator fills in its event-heap entries.
        """
        return {
            **self._counters(),
            "now": self._last_event,
            "seq": len(self._trace.tasks),
            "idle_workers": [],
            "pending_dispatch": None,
            "in_flight": [],
            "pending_reports": [report.to_state() for report in self._reports],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore engine-loop state; only valid before the first ``step()``."""
        if self._started:
            raise CheckpointError(
                "session state can only be restored before the first step()"
            )
        if state["in_flight"]:
            # Before anything is mutated: a refusal must leave the
            # session usable.
            self._adopt_in_flight(state["in_flight"])
        self._restored = True
        self._load_counters(state)
        self._last_event = float(state["now"])
        self._reports = [
            EpochReport.from_state(report) for report in state["pending_reports"]
        ]


def run_session(session: EngineSession, callbacks=None) -> "EngineResult":
    """Drive a session to completion, invoking callbacks at each epoch.

    This is the loop behind every ``run()`` and
    :meth:`~repro.core.trainer.HeterogeneousTrainer.fit`: step, hand the
    report to the callbacks, honour a ``STOP`` decision, finish.
    """
    from .callbacks import STOP, CallbackList

    callback_list = callbacks if isinstance(callbacks, CallbackList) else CallbackList(callbacks)
    try:
        callback_list.on_train_begin(session)
        while True:
            report = session.step()
            if report is None:
                break
            if callback_list.on_epoch_end(report, session) is STOP:
                session.stop()
        result = session.finish()
    except BaseException:
        # A failing callback, step or finish must not leave the run
        # alive — the threaded backend's workers would keep mutating the
        # model after the caller's fit() has raised — and callbacks get
        # one (best-effort) chance to release their resources.  The
        # original exception wins over any secondary teardown failure.
        session.stop(reason="error")
        try:
            session.finish()
        except Exception:
            pass
        try:
            callback_list.on_train_end(None)
        except Exception:
            pass
        raise
    callback_list.on_train_end(result)
    return result
