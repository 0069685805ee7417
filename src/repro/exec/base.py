"""The engine protocol shared by every execution backend.

An *engine* takes a scheduler's decisions and turns them into actual SGD
updates on the shared factor matrices.  The library ships three engines:

* :class:`repro.sim.SimulationEngine` — the discrete-event simulator that
  advances a virtual clock with cost-model task durations (the backend
  behind every paper figure, usable without real parallel hardware);
* :class:`repro.exec.ThreadedEngine` — genuinely concurrent CPU worker
  threads driving the same scheduler over the same shared numpy factor
  matrices;
* :class:`repro.exec.ProcessEngine` — the same execution model with
  worker processes over shared-memory factors.

All implement :class:`Engine` (which also holds the run inputs and the
validation they share) and produce an
:class:`~repro.exec.trace.ExecutionTrace`, so everything downstream of a
run — RMSE curves, worker statistics, workload shares, steal counts — is
backend-agnostic.  Which backend a run uses is selected with the
``backend`` option of :class:`~repro.config.TrainingConfig` /
:meth:`~repro.core.trainer.HeterogeneousTrainer.fit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

from ..config import BACKENDS  # noqa: F401  (re-exported; validated there)
from ..exceptions import ExecutionError
from ..sgd import FactorModel
from ..sgd.kernels import KERNELS, resolve_kernel_name, sgd_block_sequential
from ..sgd.schedules import ConstantSchedule, LearningRateSchedule
from ..sparse import BlockStore, SparseRatingMatrix
from .session import EngineSession, run_session

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.sim
    from ..core.schedulers import Scheduler
    from ..core.tasks import Task
    from ..hardware import HeterogeneousPlatform
    from .trace import ExecutionTrace


@dataclass
class EngineResult:
    """Outcome of one training run, regardless of the backend.

    This is the single implementation of the run-outcome surface
    (:attr:`engine_time`, :attr:`final_test_rmse`, :meth:`rmse_curve`,
    :meth:`time_to_rmse`); the high-level
    :class:`~repro.core.trainer.TrainResult` subclasses it rather than
    duplicating the accessors.
    """

    model: "FactorModel"
    trace: "ExecutionTrace"
    converged: bool
    """Whether the requested RMSE target (if any) was reached."""

    stop_reason: str = "iterations"
    """Why the run ended: ``"iterations"``, ``"target_rmse"``,
    ``"time_budget"``, a callback-supplied reason (``"callback"``,
    ``"early_stopping"``, ``"wall_time_budget"``), or ``"aborted"`` for a
    session finished before any stopping condition fired."""

    worker_restarts: int = 0
    """Worker processes respawned after crashes during the run (always 0
    for the simulate and threads backends)."""

    kernel_name: str = ""
    """The concrete SGD kernel every task of the run executed —
    ``"auto"`` resolved (:func:`~repro.sgd.kernels.resolve_kernel_name`), e.g.
    ``"native"`` or ``"minibatch_local"``."""

    @property
    def engine_time(self) -> float:
        """Total engine seconds of the run.

        Simulated seconds for the discrete-event backend, wall-clock
        seconds for the threaded backend; either way the time base of the
        trace's task and iteration records.
        """
        return self.trace.final_time

    @property
    def final_test_rmse(self) -> Optional[float]:
        """Test RMSE after the last completed iteration."""
        if not self.trace.iterations:
            return None
        return self.trace.iterations[-1].test_rmse

    def rmse_curve(self) -> List[Tuple[float, float]]:
        """``(time, test_rmse)`` pairs, one per iteration."""
        return self.trace.rmse_curve()

    def time_to_rmse(self, target: float) -> Optional[float]:
        """Earliest engine time at which the test RMSE reached ``target``."""
        return self.trace.time_to_rmse(target)


@dataclass
class WallClockResult(EngineResult):
    """Outcome of a run whose time base is real wall-clock seconds.

    The shared result surface of the real-execution backends (threads,
    processes): ``trace.final_time`` is wall-clock seconds from the
    start of the run to the last task completion, which makes a
    throughput accessor meaningful.
    """

    @property
    def wall_time(self) -> float:
        """Wall-clock seconds of the run (alias of :attr:`engine_time`)."""
        return self.trace.final_time

    @property
    def throughput(self) -> float:
        """Ratings processed per wall-clock second."""
        if self.trace.final_time <= 0:
            return 0.0
        return self.trace.total_points() / self.trace.final_time


def apply_block_data(p, q, data, rate, training, kernel_name):
    """Apply one pre-gathered block record's SGD updates to ``p``/``q``.

    The single kernel-invocation point of every backend: the simulator
    and the threaded executor pass ``store.task_data(task)`` from their
    :class:`~repro.sparse.BlockStore`, the process backend's workers a
    :class:`~repro.sparse.SharedBlockStore` record, so all three issue
    byte-identical kernel calls (the 1-worker cross-backend parity
    guarantee rests on it).  The record is pre-gathered and
    pre-validated, so the kernels run with ``validate=False``.
    ``kernel_name`` must already be resolved (:attr:`Engine.kernel_name`).
    """
    if data.nnz == 0:
        return
    if kernel_name == "sequential":
        (r0, r1), (c0, c1) = data.row_range, data.col_range
        sgd_block_sequential(
            p[r0:r1], q[:, c0:c1], data.local_rows, data.local_cols, data.vals,
            rate, training.reg_p, training.reg_q, validate=False,
        )
    else:
        KERNELS[kernel_name](
            p, q, data.local_rows, data.local_cols, data.vals,
            rate, training.reg_p, training.reg_q,
            data.row_range, data.col_range,
            batch_size=training.effective_batch_size, validate=False,
        )


class Engine:
    """Common interface — and common state — of the execution backends.

    Engines are single-use: construct one per run with the scheduler,
    data and hyper-parameters, then either call :meth:`run` once or
    drive the run epoch by epoch through :meth:`start` (the stepwise
    session protocol of :mod:`repro.exec.session`).  Every engine exposes
    ``scheduler`` and ``model`` attributes so callers can inspect the
    grid state and the trained factors, plus a ``backend_name`` matching
    its registry name.

    Parameters
    ----------
    scheduler:
        The block scheduler to execute; the real backends create one
        worker (thread or process) per scheduler worker.
    train:
        Training ratings.
    training:
        Hyper-parameters (``k``, ``gamma``, ``lambda``, batch size).
    test:
        Optional held-out ratings; needed for RMSE-vs-time curves and
        time-to-target stopping.
    model:
        Optional pre-initialised factor model (a fresh one is created
        otherwise).
    schedule:
        Learning-rate schedule; constant by default.
    platform:
        The simulated machine.  The simulator prices task durations with
        it; the real backends only consult it for ``gpu_latency_scale``.
        When given, its worker order and count must match the
        scheduler's (CPU threads first, then GPUs).
    exact_kernel:
        Use the exact per-rating kernel (slow; for small validation runs).
    compute_train_rmse:
        Also record training RMSE at iteration boundaries.
    gpu_latency_scale:
        When positive (requires ``platform``), each GPU worker of a real
        backend sleeps for this fraction of its task's *simulated* device
        time after the numerical work, emulating device latency against
        real CPU workers.  Zero (the default) disables the emulation.

    Rating data reaches the kernels only through the block-major data
    plane: a :class:`~repro.sparse.BlockStore` of per-block contiguous,
    band-local arrays, validated once per run.
    """

    #: Registry name of the backend (see :mod:`repro.exec.registry`).
    backend_name: str = ""
    #: What this backend raises for an invalid run or configuration.
    error_class: type = ExecutionError
    #: The :class:`EngineResult` subclass a finished session returns.
    result_class: type = EngineResult
    #: The executor (:class:`EngineSession` subclass) :meth:`start` opens.
    session_class: type = EngineSession

    def __init__(
        self,
        scheduler: "Scheduler",
        train: SparseRatingMatrix,
        training,
        test: Optional[SparseRatingMatrix] = None,
        model: Optional[FactorModel] = None,
        schedule: Optional[LearningRateSchedule] = None,
        platform: Optional["HeterogeneousPlatform"] = None,
        exact_kernel: bool = False,
        compute_train_rmse: bool = False,
        gpu_latency_scale: float = 0.0,
    ) -> None:
        if platform is not None and platform.n_workers != scheduler.n_workers:
            raise self.error_class(
                f"platform has {platform.n_workers} workers but the scheduler "
                f"expects {scheduler.n_workers}"
            )
        if gpu_latency_scale < 0:
            raise self.error_class(
                f"gpu_latency_scale must be >= 0, got {gpu_latency_scale}"
            )
        if gpu_latency_scale > 0 and platform is None:
            raise self.error_class("gpu_latency_scale needs a platform for timing")
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
        self._store = BlockStore(train)
        self._started = False

    @cached_property
    def kernel_name(self) -> str:
        """The concrete kernel this engine's tasks execute (``"auto"`` resolved once)."""
        return resolve_kernel_name(self.training.kernel, self.exact_kernel)

    def _gpu_sleep_seconds(self, worker_index: int, task: "Task") -> float:
        """Latency-emulation sleep for a GPU worker's task (0 for CPUs)."""
        if (
            self.gpu_latency_scale <= 0
            or self.platform is None
            or not self.scheduler.is_gpu_worker(worker_index)
        ):
            return 0.0
        device = self.platform.all_devices[task.worker_index]
        work = task.block_work(self.training.latent_factors)
        return device.process_time(work) * self.gpu_latency_scale

    def start(
        self,
        iterations: Optional[int] = None,
        target_rmse: Optional[float] = None,
        max_simulated_time: Optional[float] = None,
        pause_on_epoch: Union[bool, Callable[[int], bool]] = False,
    ) -> EngineSession:
        """Begin a stepwise run and return its :attr:`session_class` session.

        An engine runs once: a second ``start()`` raises, because the run
        mutates its model and scheduler state.

        Parameters
        ----------
        iterations:
            Stop after this many full passes over the training ratings
            (defaults to ``training.iterations`` when neither a target
            RMSE nor a time budget is given).  Runs bounded only by a
            target RMSE or a time budget are additionally capped at
            :data:`~repro.exec.session.MAX_UNBOUNDED_ITERATIONS` epochs.
            When resuming from a checkpoint this is the *total* epoch
            cap, checkpointed epochs included.
        target_rmse:
            Stop as soon as the test RMSE at an iteration boundary is at
            or below this value (requires a test set).
        max_simulated_time:
            Hard cap on engine seconds (simulated seconds for the
            simulator, wall-clock seconds for the real backends; the
            parameter keeps one name so callers can switch backends).
        pause_on_epoch:
            Ask for a fully quiescent pause at epoch boundaries: ``True``
            pauses every boundary, a ``(epoch) -> bool`` predicate only
            the selected ones.  The simulator pauses inherently and
            ignores it; the real backends drain in-flight tasks at the
            selected boundaries — required for checkpointing,
            unnecessary for mere observation.
        """
        if self._started:
            raise self.error_class(
                f"a {type(self).__name__} can only be run once: its model and "
                "scheduler state are mutated by the run"
            )
        self._started = True
        return self.session_class(
            self,
            iterations=iterations,
            target_rmse=target_rmse,
            max_simulated_time=max_simulated_time,
            pause_on_epoch=pause_on_epoch,
        )

    def run(
        self,
        iterations: Optional[int] = None,
        target_rmse: Optional[float] = None,
        max_simulated_time: Optional[float] = None,
        callbacks=None,
    ) -> EngineResult:
        """Train until a stopping condition is met.

        A thin loop over the session protocol: ``start()``, ``step()``
        until exhausted (invoking ``callbacks`` at each epoch boundary),
        ``finish()``.  See :meth:`start` for the stopping parameters and
        :mod:`repro.exec.callbacks` for the callback API.
        """
        from .callbacks import CallbackList

        callback_list = CallbackList(callbacks)
        session = self.start(
            iterations=iterations,
            target_rmse=target_rmse,
            max_simulated_time=max_simulated_time,
            # Pause only at the boundaries some callback will actually
            # capture (e.g. Checkpoint(every_n=10) drains one in ten).
            pause_on_epoch=(
                callback_list.pause_at if callback_list.requires_pause else False
            ),
        )
        return run_session(session, callback_list)
