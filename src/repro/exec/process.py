"""A zero-copy multiprocess execution backend.

:class:`ThreadedEngine` proved that real concurrent workers can drive
the paper's schedulers over shared factor matrices — but its workers are
OS threads, so on CPython the numerical kernels contend for the GIL and
four workers can end up *slower* than the serial simulator.
:class:`ProcessEngine` (``backend="processes"``) keeps the exact same
execution model and moves the workers into separate **processes**, which
scale across cores for real:

* the factor matrices ``P`` and ``Q`` live in
  ``multiprocessing.shared_memory`` segments
  (:class:`~repro.shm.SharedSegment`); every worker maps the same
  physical pages, so kernel updates are visible everywhere with zero
  copies and zero serialisation;
* the block-major rating arrays are materialised once into a shared
  segment (:meth:`repro.sparse.BlockStore.to_shared`) that workers
  attach by name — per task, the controller sends only the task's grid
  keys and the learning rate (a few dozen bytes);
* the **controller** (the parent process) runs the scheduler, exactly as
  the simulator does: it hands conflict-free tasks to free workers,
  books completions, advances epoch accounting and evaluates RMSE.
  Workers never see the scheduler — they are pure kernel executors.

Correctness rests on the same band-lock guarantee as the threaded
backend: the scheduler only dispatches tasks whose row and column bands
are disjoint from every in-flight task's, so concurrent worker processes
write to disjoint slices of the shared segments and need no per-element
synchronisation (see DESIGN.md, "Process safety of the band lock").

Sessions follow the stepwise protocol: ``step()`` pumps completions
until the next epoch boundary; with ``pause_on_epoch`` the controller
stops dispatching at selected boundaries and drains in-flight tasks, so
checkpoints observe a quiescent run — :class:`TrainCheckpoint` snapshots
**copy out of** the shared segments and stay valid after the segments
are unlinked.  With one worker the sequence of scheduler decisions and
kernel calls is identical to the simulator's, so 1-worker runs are
bitwise-identical to ``backend="simulate"`` (pinned by the parity
suite), and quiescent checkpoints are portable across all backends.

Lifecycle: the controller owns every segment and unlinks them exactly
once when the session finishes — including when a worker dies mid-epoch
or a callback raises (``finish()`` is the single cleanup point and is
idempotent).  Workers close their attachments on the way out.

Fault tolerance: the controller supervises worker liveness on every
pump iteration.  A dead worker is respawned against the existing
segments; if it died holding a task, the run first rolls back to an
in-memory snapshot taken at the last epoch boundary and replays the
epoch (bitwise-identical to a failure-free run at one worker,
RMSE-equivalent at several).  ``TrainingConfig.max_worker_restarts``
bounds total respawns; exhausting it raises :class:`ExecutionError`
with per-worker diagnostics.  See "Supervision and recovery" below and
DESIGN.md, "Failure model and recovery".
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from .. import faults
from ..config import TrainingConfig
from ..exceptions import ExecutionError
from ..hardware import HeterogeneousPlatform
from ..sgd import FactorModel
from ..sgd.schedules import LearningRateSchedule
from ..shm import SharedSegment
from ..sparse import SharedBlockStore, SparseRatingMatrix
from ..core.schedulers import Scheduler
from ..core.tasks import Task
from .base import Engine, WallClockResult, apply_block_data
from .session import EngineSession, EpochReport
from .threaded import IDLE_POLL_SECONDS

#: Seconds ``finish()`` waits for a worker to exit after its shutdown
#: sentinel before escalating to ``terminate()``.
SHUTDOWN_GRACE_SECONDS = 10.0


def process_backend_supported() -> bool:
    """Whether this platform can run the shared-memory process backend.

    Requires ``multiprocessing.shared_memory`` (CPython >= 3.8 on
    POSIX/Windows) and at least one usable process start method.
    """
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - exotic platforms only
        return False
    try:
        return bool(multiprocessing.get_all_start_methods())
    except Exception:  # pragma: no cover - defensive
        return False


def _default_start_method() -> str:
    """``fork`` where available (fast, Linux), else the platform default."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return "fork"
    return multiprocessing.get_start_method(allow_none=False)


@dataclass(frozen=True)
class SharedFactorHandle:
    """Picklable descriptor of the shared factor segments.

    ``q`` is stored item-major — the segment holds a C-contiguous
    ``(n, k)`` buffer whose transpose is the usual ``(k, n)`` interface
    view — matching :class:`~repro.sgd.FactorModel`'s layout contract so
    the block-major kernel keeps its flat-scatter fast path in every
    worker.
    """

    p_name: str
    q_name: str
    n_rows: int
    n_cols: int
    latent_factors: int


def _attach_model(handle: SharedFactorHandle):
    """Map the factor segments and build a zero-copy model over them."""
    p_seg = SharedSegment.attach(handle.p_name)
    q_seg = SharedSegment.attach(handle.q_name)
    p = p_seg.ndarray((handle.n_rows, handle.latent_factors), np.float64)
    q = q_seg.ndarray((handle.n_cols, handle.latent_factors), np.float64).T
    return FactorModel.over_buffers(p, q), p_seg, q_seg


def _worker_main(
    worker_index: int,
    factors: SharedFactorHandle,
    store_handle,
    training: TrainingConfig,
    kernel_name: str,
    clock_start: float,
    task_queue,
    done_queue,
) -> None:
    """Loop of one worker process: attach, execute tasks, close.

    Messages in are ``(keys, rate, sleep_s, fault)`` — the task's
    grid-block keys, its learning rate (priced by the controller at
    dispatch), an optional GPU-latency-emulation sleep, and an optional
    injected fault action ``(mode, seconds)`` matched by the controller
    (see :mod:`repro.faults`; the controller evaluates the plan so fault
    ordinals survive worker respawns) — or ``None`` to shut down.
    Messages out are ``(worker_index, start, end, error)`` with wall
    times on the controller's clock (``CLOCK_MONOTONIC`` is system-wide
    on the platforms with a working ``fork``/``spawn``).  Completion
    tuples are far below ``PIPE_BUF``, so their pipe writes are atomic
    even when the worker is SIGKILLed mid-put: the controller sees each
    message entirely or not at all, never torn.
    """
    p_seg = q_seg = store = model = data = None
    try:
        model, p_seg, q_seg = _attach_model(factors)
        store = SharedBlockStore.attach(store_handle)
        while True:
            message = task_queue.get()
            if message is None:
                break
            keys, rate, sleep_s, fault = message
            mode = fault[0] if fault is not None else None
            if mode == "kill":
                # Die before touching the factors: the task is in flight
                # on the controller but no update was applied.
                os.kill(os.getpid(), signal.SIGKILL)
            start = time.monotonic() - clock_start
            data = store.task_data(keys)
            apply_block_data(model.p, model.q, data, rate, training, kernel_name)
            data = None
            if mode == "kill_mid":
                # Die after mutating shared factors but before reporting
                # — the hard recovery case (lost completion, dirty P/Q).
                os.kill(os.getpid(), signal.SIGKILL)
            if mode == "stall":
                time.sleep(fault[1])
            if sleep_s > 0.0:
                time.sleep(sleep_s)
            end = time.monotonic() - clock_start
            done_queue.put((worker_index, start, end, None))
            if mode == "kill_after":
                # Die *after* the completion is delivered: flush the
                # feeder thread so the controller books the task, then
                # the death is an idle death needing no rollback.
                done_queue.close()
                done_queue.join_thread()
                os.kill(os.getpid(), signal.SIGKILL)
    except BaseException:
        try:
            done_queue.put((worker_index, 0.0, 0.0, traceback.format_exc()))
        except Exception:  # pragma: no cover - queue already torn down
            pass
    finally:
        # Drop every view pinning the segments, then detach.  The owner
        # (controller) is the only side that unlinks.
        model = data = None
        if store is not None:
            try:
                store.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
        for seg in (p_seg, q_seg):
            if seg is not None:
                try:
                    seg.close()
                except Exception:  # pragma: no cover - best-effort teardown
                    pass


@dataclass
class ProcessResult(WallClockResult):
    """Outcome of one multiprocess training run (wall-clock time base)."""


class ProcessSession(EngineSession):
    """One multiprocess run, driven by the controller's completion pump.

    The executor half of the session.  Unlike
    :class:`~repro.exec.threaded.ThreadedSession` there is no shared
    mutable state to lock: the scheduler, the trace and the core's whole
    epoch ledger live in the controller, and workers communicate only
    through queues.  ``step()`` dispatches to free workers and consumes
    completions until an epoch boundary report is produced.
    """

    def __init__(self, engine: "ProcessEngine", **stopping) -> None:
        super().__init__(engine, **stopping)
        self._in_flight: Dict[int, Task] = {}
        self._clock_start = 0.0

        # Fault tolerance (see "Supervision and recovery" below).
        self._dispatch_counts = [0] * engine.n_workers
        self._recovering = False
        self._fault_plan = None
        self._snapshot: Optional[dict] = None
        self._snapshot_stage: Optional[dict] = None

        # Pool / shared-memory state (populated by _launch).
        self._ctx = None
        self._kernel_name: Optional[str] = None
        self._factor_handle: Optional[SharedFactorHandle] = None
        self._procs: List = []
        self._task_queues: List = []
        self._done_queue = None
        self._p_seg: Optional[SharedSegment] = None
        self._q_seg: Optional[SharedSegment] = None
        self._shared_store: Optional[SharedBlockStore] = None
        self._orig_p: Optional[np.ndarray] = None
        self._orig_q: Optional[np.ndarray] = None
        self._torn_down = False

    # ------------------------------------------------------------------ #
    # Executor hooks
    # ------------------------------------------------------------------ #
    def _advance(self) -> Optional[EpochReport]:
        if not self._started:
            self._launch()
        self._paused = False
        return self._pump_until_report()

    def _release(self) -> None:
        # The single cleanup point: whatever the drain does, the pool is
        # shut down and every segment unlinked.
        if self._started:
            try:
                if self._error is None:
                    self._drain_in_flight()
            finally:
                self._shutdown_workers()
                self._teardown_shared()

    def state_dict(self) -> dict:
        # Mirrors ThreadedSession's quiescent contract.
        self._require_quiescent(
            in_flight=bool(self._in_flight),
            held=not self._started or self._paused or self._stopping,
        )
        return super().state_dict()

    # ------------------------------------------------------------------ #
    # Launch / teardown
    # ------------------------------------------------------------------ #
    def _launch(self) -> None:
        engine = self._engine
        self._started = True
        if not self._restored:
            engine.scheduler.start_iteration()
        try:
            self._factor_handle = self._setup_shared_factors()
            self._shared_store = engine._store.to_shared(
                engine.scheduler.grid.iter_blocks()
            )
            # A restored session shifts the clock back by the checkpointed
            # engine time so stamps and the time budget continue from it.
            self._clock_start = time.monotonic() - self._last_event

            self._ctx = multiprocessing.get_context(engine.start_method)
            self._done_queue = self._ctx.Queue()
            # Resolved (and, for "native", built) here in the parent, so
            # the workers only dlopen the cached object.
            self._kernel_name = engine.kernel_name
            self._fault_plan = faults.active_plan()
            for index in range(engine.n_workers):
                self._spawn_worker(index)
            # The recovery baseline before any task is dispatched: a
            # worker death in the first epoch rolls back to here.
            self._stage_recovery_snapshot()
            self._finalize_recovery_snapshot()
        except BaseException:
            # A failed launch must not leak segments or processes.
            self._stopping = True
            self._shutdown_workers()
            self._teardown_shared()
            raise

    def _spawn_worker(self, index: int) -> None:
        """Start (or restart) worker ``index`` over the existing segments.

        A respawned worker always gets a **fresh** task queue: any
        message sitting undelivered in the dead worker's queue belongs
        to a task that recovery has already rolled back, and must never
        reach the replacement.
        """
        engine = self._engine
        task_queue = self._ctx.SimpleQueue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                index,
                self._factor_handle,
                self._shared_store.handle,
                engine.training,
                self._kernel_name,
                self._clock_start,
                task_queue,
                self._done_queue,
            ),
            name=f"repro-exec-proc-{index}",
            daemon=True,
        )
        proc.start()
        if index < len(self._procs):
            self._procs[index].join(timeout=5.0)  # reap the dead child
            old_queue = self._task_queues[index]
            try:
                old_queue.close()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
            self._task_queues[index] = task_queue
            self._procs[index] = proc
        else:
            self._task_queues.append(task_queue)
            self._procs.append(proc)

    def _setup_shared_factors(self) -> SharedFactorHandle:
        """Move the engine's factor matrices into shared segments.

        The engine's :class:`FactorModel` object keeps its identity —
        its ``p``/``q`` attributes are re-pointed at the shared views, so
        callbacks and RMSE evaluation observe live worker updates — and
        the original private arrays are kept to copy the final factors
        back into before the segments are unlinked.
        """
        model = self._engine.model
        m, k = model.p.shape
        n = model.q.shape[1]
        self._p_seg, p_view = SharedSegment.from_array(model.p, purpose="p")
        # Item-major, preserving the layout contract.
        self._q_seg, q_buf = SharedSegment.from_array(model.q.T, purpose="q")
        self._orig_p, self._orig_q = model.p, model.q
        model.p = p_view
        model.q = q_buf.T
        return SharedFactorHandle(
            p_name=self._p_seg.name,
            q_name=self._q_seg.name,
            n_rows=m,
            n_cols=n,
            latent_factors=k,
        )

    def _teardown_shared(self) -> None:
        """Copy factors out of shared memory and unlink every segment.

        Runs exactly once (guarded), on every exit path — normal finish,
        worker death, callback exception — so no ``/dev/shm`` segment
        outlives the session.
        """
        if self._torn_down:
            return
        self._torn_down = True
        model = self._engine.model
        if self._orig_p is not None:
            self._orig_p[...] = model.p
            self._orig_q[...] = model.q
            model.p = self._orig_p
            model.q = self._orig_q
            self._orig_p = self._orig_q = None
        if self._shared_store is not None:
            self._shared_store.unlink()
            self._shared_store = None
        for seg_attr in ("_p_seg", "_q_seg"):
            seg = getattr(self, seg_attr)
            if seg is not None:
                seg.unlink()
                setattr(self, seg_attr, None)

    def _shutdown_workers(self) -> None:
        for task_queue in self._task_queues:
            try:
                task_queue.put(None)
            except Exception:  # pragma: no cover - broken pipe on dead child
                pass
        deadline = time.monotonic() + SHUTDOWN_GRACE_SECONDS
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
        self._procs = []
        for task_queue in self._task_queues:
            try:
                task_queue.close()
            except Exception:  # pragma: no cover
                pass
        self._task_queues = []
        if self._done_queue is not None:
            try:
                self._done_queue.close()
                self._done_queue.join_thread()
            except Exception:  # pragma: no cover
                pass
            self._done_queue = None

    # ------------------------------------------------------------------ #
    # Controller pump
    # ------------------------------------------------------------------ #
    def _elapsed_deadline(self) -> bool:
        """Apply the wall-clock budget; True once it is spent."""
        return self._time_budget_spent(time.monotonic() - self._clock_start)

    def _pump_until_report(self) -> Optional[EpochReport]:
        while True:
            if self._error is not None:
                return None
            # Supervision: check *every* worker's liveness on *every*
            # pump iteration, before dispatching — a worker that died
            # idle would otherwise never produce the completion the
            # blocking read waits for, and a dead worker must not be
            # handed a task.
            self._ensure_workers_alive()
            if self._error is not None:
                return None
            if not self._paused and not self._stopping:
                self._dispatch_free_workers()
            if self._reports:
                if self._paused:
                    # Quiesce: the boundary asked for a pause, so drain
                    # the in-flight remainder before handing control to
                    # the caller (checkpoints need a still run).
                    self._drain_in_flight()
                return self._reports.pop(0)
            if self._stopping:
                return None
            if not self._in_flight:
                # Nobody holds a task and dispatch produced none: no
                # future completion can unblock us (mirrors the
                # simulator's and thread pool's all-idle check).
                self._error = ExecutionError(
                    "all workers are idle with work remaining; the grid or "
                    "quota configuration cannot make progress"
                )
                return None
            self._await_completion(block=True)

    def _dispatch_free_workers(self) -> None:
        engine = self._engine
        if self._recovering:
            # A booking drained during recovery may cross an epoch
            # boundary, whose re-dispatch would hand tasks to workers
            # that are being replaced; recovery re-dispatches via the
            # pump once the pool is whole again.
            return
        if self._elapsed_deadline():
            return
        for worker_index in range(engine.n_workers):
            if worker_index in self._in_flight:
                continue
            task = engine.scheduler.next_task(worker_index)
            if task is None:
                continue
            self._in_flight[worker_index] = task
            rate = engine.schedule(self._iteration)
            sleep_s = engine._gpu_sleep_seconds(worker_index, task)
            keys = tuple(
                (int(block.row_band), int(block.col_band)) for block in task.blocks
            )
            # Fault injection is controller-evaluated: the per-worker
            # dispatch ordinal lives here and survives respawns, so an
            # injected kill fires exactly once instead of re-firing
            # every time the replacement worker starts counting anew.
            ordinal = self._dispatch_counts[worker_index]
            self._dispatch_counts[worker_index] += 1
            fault = None
            if self._fault_plan is not None:
                spec = self._fault_plan.take(
                    "worker.task", worker=worker_index, ordinal=ordinal
                )
                if spec is not None:
                    fault = (spec.mode, spec.seconds)
            self._task_queues[worker_index].put((keys, rate, sleep_s, fault))

    def _await_completion(self, block: bool) -> None:
        """Consume completion messages, booking each (non-blocking drain
        after an optional blocking first read)."""
        first = True
        while True:
            try:
                if first and block:
                    message = self._done_queue.get(timeout=IDLE_POLL_SECONDS)
                else:
                    message = self._done_queue.get_nowait()
            except queue.Empty:
                if first and block:
                    self._elapsed_deadline()
                    self._ensure_workers_alive()
                return
            first = False
            worker_index, start, end, error = message
            if error is not None:
                task = self._in_flight.pop(worker_index, None)
                if task is not None:
                    self._engine.scheduler.abort_task(task)
                self._error = ExecutionError(
                    f"worker process {worker_index} failed:\n{error}"
                )
                return
            self._book_completion(worker_index, start, end)

    # ------------------------------------------------------------------ #
    # Supervision and recovery
    # ------------------------------------------------------------------ #
    # A worker process can die at any moment (OOM kill, segfault in a
    # native kernel, injected SIGKILL).  The controller recovers by
    # rolling the run back to a cheap in-memory snapshot taken at every
    # epoch boundary — factor copies plus scheduler state — and
    # replaying the epoch with respawned workers.  With one worker the
    # replay re-issues the identical task sequence over the identical
    # factors, so a recovered run is bitwise-identical to a
    # failure-free one (pinned by the chaos suite); with several
    # workers in-flight kernels make the boundary snapshot inexact and
    # recovery is RMSE-equivalent instead.  A worker that died *idle*
    # (its completion already booked, nothing in flight) is respawned
    # without any rollback.

    def _stage_recovery_snapshot(self) -> None:
        """Capture factors + scheduler state at an epoch boundary.

        Called right after ``start_iteration()`` and *before* freed
        workers are re-dispatched, so the scheduler state predates any
        next-epoch decisions.  ``state_dict()`` returns fresh arrays
        and ``load_state_dict`` copies scalars out of them, so one
        snapshot survives any number of rollbacks.
        """
        model = self._engine.model
        self._snapshot_stage = {
            "p": np.array(model.p, copy=True),
            "q": np.array(model.q, copy=True),
            "scheduler": self._engine.scheduler.state_dict(),
        }

    def _finalize_recovery_snapshot(self) -> None:
        """Seal the staged snapshot with counters and trace lengths.

        Runs at the *end* of boundary processing, after the boundary's
        iteration record is written — a rollback must keep that record
        (it describes the epoch being rolled back *to*, and would never
        be regenerated).
        """
        snapshot = self._snapshot_stage
        self._snapshot_stage = None
        snapshot.update(
            self._counters(),
            n_tasks=len(self._trace.tasks),
            n_iterations=len(self._trace.iterations),
        )
        self._snapshot = snapshot

    def _restore_recovery_snapshot(self) -> None:
        """Roll the run back to the last epoch boundary.

        Preconditions: ``self._in_flight`` is empty and every held band
        lock has been released via ``abort_task`` — lock occupancy is
        not part of scheduler state (it is implied by in-flight tasks),
        so restoring under held locks would wedge the replay.
        ``self._reports`` is deliberately untouched: already-produced
        reports describe boundaries at or before the snapshot and must
        not be re-delivered or dropped.  ``_last_event`` is wall-clock
        and keeps advancing through a rollback.
        """
        snapshot = self._snapshot
        model = self._engine.model
        model.p[...] = snapshot["p"]
        model.q[...] = snapshot["q"]
        self._engine.scheduler.load_state_dict(snapshot["scheduler"])
        self._load_counters(snapshot)
        del self._trace.tasks[snapshot["n_tasks"] :]
        del self._trace.iterations[snapshot["n_iterations"] :]

    def _dead_workers(self) -> Set[int]:
        return {
            index for index, proc in enumerate(self._procs) if not proc.is_alive()
        }

    def _ensure_workers_alive(self) -> None:
        """Detect dead workers and recover (or fail) the run."""
        if self._error is not None or not self._procs:
            return
        dead = self._dead_workers()
        if dead:
            self._recover_dead_workers(dead)

    def _fail_restart_budget(self, dead: Set[int]) -> None:
        budget = self._engine.training.max_worker_restarts
        details = "; ".join(
            f"worker {index} (pid {self._procs[index].pid}, exit code "
            f"{self._procs[index].exitcode})"
            for index in sorted(dead)
        )
        for worker_index in list(self._in_flight):
            self._engine.scheduler.abort_task(self._in_flight.pop(worker_index))
        self._error = ExecutionError(
            f"{details} died at epoch {self._iteration} and the worker "
            f"restart budget is exhausted ({self._worker_restarts} of "
            f"{budget} restart(s) used); raise "
            f"TrainingConfig.max_worker_restarts to tolerate more failures"
        )

    def _recover_dead_workers(self, dead: Set[int]) -> None:
        """Recover from dead workers by replacing the **whole pool**.

        The done queue is one ``multiprocessing.Queue`` shared by every
        worker, and its put side is serialised by a shared write lock.
        A worker SIGKILLed inside a put — including the window *after*
        the pipe write (the controller can already read the message)
        but *before* the lock release — leaves that lock held forever,
        silently deadlocking every later put by any worker, respawned
        or surviving.  After any death the queue is therefore suspect
        and is replaced wholesale, which forces replacing the whole
        pool: survivors hold the old queue, so they are killed and
        respawned too (they are stateless kernel executors; only their
        in-flight work matters, and that is rolled back and replayed).

        The sequence:

        1. **Book** completions already delivered on the old queue —
           their pipe writes are atomic (< ``PIPE_BUF``), so each is
           fully readable or was never sent.  Booking first turns
           died-after-reporting into an idle death needing no rollback.
        2. Check the restart budget — only workers that died on their
           own count against it, never the survivors the controller
           kills below.
        3. If any task is still in flight (on a dead worker *or* a
           survivor about to be killed), abort them all — releasing
           their band locks — and roll back to the last epoch-boundary
           snapshot; the replay re-issues them.  Torn factor writes
           from kernels killed mid-update are erased by the snapshot
           restore, which rewrites every factor byte.
        4. Kill the survivors, swap in a fresh done queue, respawn the
           full pool over fresh task queues.
        """
        engine = self._engine
        budget = engine.training.max_worker_restarts
        self._recovering = True
        try:
            self._await_completion(block=False)
            if self._error is not None:
                return
            dead = dead | self._dead_workers()
            if self._worker_restarts + len(dead) > budget:
                self._fail_restart_budget(dead)
                return
            for proc in self._procs:
                if proc.is_alive():
                    proc.kill()
            deadline = time.monotonic() + SHUTDOWN_GRACE_SECONDS
            for proc in self._procs:
                proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if self._in_flight:
                for worker_index in list(self._in_flight):
                    engine.scheduler.abort_task(self._in_flight.pop(worker_index))
                self._restore_recovery_snapshot()
            old_queue, self._done_queue = self._done_queue, self._ctx.Queue()
            try:
                # The controller never put to the old queue, so there is
                # no feeder to flush; close just drops the pipe ends.
                old_queue.close()
                old_queue.join_thread()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
            for index in range(engine.n_workers):
                self._spawn_worker(index)
            self._worker_restarts += len(dead)
        finally:
            self._recovering = False

    def _book_completion(self, worker_index: int, start: float, end: float) -> None:
        task = self._in_flight.pop(worker_index, None)
        if task is None:  # pragma: no cover - defensive
            raise ExecutionError(
                f"completion from worker {worker_index} with no task in flight"
            )
        self.book(worker_index, task, start, end)
        self._elapsed_deadline()
        while self.boundary_due:
            self._process_boundary()

    def _process_boundary(self) -> None:
        """Advance one epoch boundary (the core's accounting: counters
        and quota reset first, then RMSE).

        With several workers the freed ones are re-dispatched *before*
        the RMSE evaluation so they crunch the next epoch while the
        controller scores this one — the threaded backend's behaviour,
        and equally well-defined because in-flight kernels only touch
        bands the evaluation would race with anyway.  With one worker
        the evaluation runs first: the run is then fully quiescent at
        the boundary, which is what makes 1-worker runs bitwise-identical
        to the serial simulator.
        """
        index = self.open_boundary()
        # Stage the recovery snapshot before any next-epoch dispatch:
        # with one worker the run is quiescent here, so the snapshot is
        # exact (the bitwise rollback-replay guarantee); with several,
        # still-running kernels make it approximate (RMSE-equivalent).
        self._stage_recovery_snapshot()
        if self._should_pause(index):
            self._paused = True
        elif self._engine.n_workers > 1 and not self._paused:
            self._dispatch_free_workers()
        self.close_boundary(*self.evaluate())
        self._finalize_recovery_snapshot()

    def _drain_in_flight(self) -> None:
        """Book every outstanding completion (no new dispatch).

        The grace deadline is *per completion*: as long as workers keep
        finishing tasks the drain waits indefinitely (a task is allowed
        to be long — GPU-latency emulation sleeps, loaded machines);
        only a full grace period with zero progress and every worker
        still alive is treated as a wedge.
        """
        grace = time.monotonic() + SHUTDOWN_GRACE_SECONDS
        while self._in_flight and self._error is None:
            outstanding = len(self._in_flight)
            self._await_completion(block=True)
            if len(self._in_flight) < outstanding:
                grace = time.monotonic() + SHUTDOWN_GRACE_SECONDS
                continue
            if time.monotonic() > grace and self._in_flight:
                self._ensure_workers_alive()
                if self._error is None and self._in_flight:
                    # pragma: no cover - wedged worker
                    for worker_index in list(self._in_flight):
                        self._engine.scheduler.abort_task(
                            self._in_flight.pop(worker_index)
                        )
                    self._error = ExecutionError(
                        "in-flight tasks did not complete within the "
                        "shutdown grace period"
                    )


class ProcessEngine(Engine):
    """Runs a scheduler with a pool of worker *processes* over shared memory.

    The drop-in multicore sibling of :class:`ThreadedEngine`: same
    construction surface, same session protocol, same trace output —
    but the workers are OS processes updating
    ``multiprocessing.shared_memory``-backed factor matrices, so the SGD
    kernels run genuinely in parallel instead of contending for the GIL.

    Parameters are :class:`~repro.exec.base.Engine`'s, with these
    particulars:

    train:
        Materialised block-major into shared memory at launch (see
        :meth:`repro.sparse.BlockStore.to_shared`).
    model:
        Its arrays are copied into shared segments for the run and the
        final factors are copied back when the session finishes.
    schedule:
        Rates are priced by the controller at dispatch, so the schedule
        never crosses the process boundary.
    start_method:
        ``multiprocessing`` start method (``"fork"`` where available by
        default; ``"spawn"`` and ``"forkserver"`` also work — workers
        attach all state by segment name, nothing relies on inheritance).
    """

    backend_name = "processes"
    result_class = ProcessResult
    session_class = ProcessSession

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
        start_method: Optional[str] = None,
    ) -> None:
        if not process_backend_supported():  # pragma: no cover - exotic platforms
            raise ExecutionError(
                "this platform does not support the shared-memory process "
                'backend; use backend="threads"'
            )
        if start_method is not None:
            if start_method not in multiprocessing.get_all_start_methods():
                raise ExecutionError(
                    f"start_method must be one of "
                    f"{multiprocessing.get_all_start_methods()}, got "
                    f"{start_method!r}"
                )
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
            gpu_latency_scale=gpu_latency_scale,
        )
        self.start_method = start_method or _default_start_method()
