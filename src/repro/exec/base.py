"""The engine protocol shared by every execution backend.

An *engine* takes a scheduler's decisions and turns them into actual SGD
updates on the shared factor matrices.  The library ships two engines:

* :class:`repro.sim.SimulationEngine` — the discrete-event simulator that
  advances a virtual clock with cost-model task durations (the backend
  behind every paper figure, usable without real parallel hardware);
* :class:`repro.exec.ThreadedEngine` — genuinely concurrent CPU worker
  threads driving the same scheduler over the same shared numpy factor
  matrices.

Both implement :class:`Engine` and produce an
:class:`~repro.sim.trace.ExecutionTrace`, so everything downstream of a
run — RMSE curves, worker statistics, workload shares, steal counts — is
backend-agnostic.  Which backend a run uses is selected with the
``backend`` option of :class:`~repro.config.TrainingConfig` /
:meth:`~repro.core.trainer.HeterogeneousTrainer.fit`.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

from ..config import BACKENDS  # noqa: F401  (re-exported; validated there)
from ..exceptions import ConfigurationError
from .session import EngineSession, run_session

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.sim
    from ..sgd import FactorModel
    from ..sim.trace import ExecutionTrace


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
    ``"auto"`` resolved (:func:`effective_kernel_name`), e.g.
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
    def simulated_time(self) -> float:
        """Deprecated alias of :attr:`engine_time`.

        .. deprecated:: 1.1
           The name predates the real-execution backends, whose time base
           is wall-clock rather than simulated seconds.  Use
           :attr:`engine_time`; this alias warns and will be removed.
        """
        warnings.warn(
            "EngineResult.simulated_time is deprecated (the threaded and "
            "process backends measure wall-clock, not simulated, seconds); "
            "use engine_time",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.engine_time

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


#: Iteration cap applied when a run is bounded only by ``target_rmse``
#: (or a time budget): far past any convergent training, it bounds the
#: damage of a diverging run that can never reach its target.
MAX_UNBOUNDED_ITERATIONS = 10_000


def resolve_stopping_conditions(
    iterations: Optional[int],
    target_rmse: Optional[float],
    max_simulated_time: Optional[float],
    default_iterations: int,
    has_test: bool,
    error: type,
) -> int:
    """Shared ``run()`` preamble of every backend.

    Validates that target-RMSE stopping has a test set to evaluate,
    applies the default iteration count when no stopping condition was
    given at all, and derives the effective iteration cap.  Keeping this
    in one place is what keeps the backends' stopping semantics — and
    hence the 1-worker sim-parity guarantee — in lockstep.

    Returns the iteration cap of the run; raises ``error`` on an invalid
    combination.
    """
    if target_rmse is not None and not has_test:
        raise error("target_rmse stopping requires a test set")
    if iterations is None and target_rmse is None and max_simulated_time is None:
        iterations = default_iterations
    return iterations if iterations is not None else MAX_UNBOUNDED_ITERATIONS


def effective_kernel_name(training, exact_kernel=False, block_major=True) -> str:
    """The concrete kernel a run with these settings executes.

    :func:`~repro.sgd.kernels.resolve_kernel_name` plus the one fact it
    cannot know: whether the run has block-major data.  Without it the
    auto-selected band-local kernel has no band frame and the global
    mini-batch kernel stands in (bitwise-identical to
    ``"minibatch_local"``); an *explicitly* forced band-local kernel is
    an error instead of a silent swap.
    """
    from ..sgd.kernels import BLOCK_MAJOR_KERNELS, resolve_kernel_name

    name = resolve_kernel_name(training.kernel, exact_kernel=exact_kernel)
    if block_major or name not in BLOCK_MAJOR_KERNELS:
        return name
    if training.kernel != "auto":
        raise ConfigurationError(
            f'kernel="{name}" requires the block-major data plane; '
            'enable the block store or use kernel="minibatch" '
            '(bitwise-identical to "minibatch_local")'
        )
    return "minibatch"


def apply_task_updates(
    model, train, task, rate, training, exact_kernel=False, store=None
):
    """Apply one task's SGD updates to the shared factor matrices.

    The single kernel-invocation point used by every backend: both
    engines must issue byte-identical kernel calls or the 1-worker
    sim-parity guarantee breaks.

    When a :class:`~repro.sparse.BlockStore` is given (the engines'
    default), the task's ratings come as pre-gathered, pre-validated,
    band-local contiguous arrays and the kernels run with
    ``validate=False``; without one, the legacy path gathers
    ``train.*[indices]`` per call and the kernels re-validate.  Within
    the numpy kernels the two paths are bitwise-identical — the store
    only changes *where* the gather and the validation happen (once per
    run instead of once per task per epoch); under ``"auto"`` the store
    additionally unlocks the ``"native"`` kernel (within 1e-12).
    """
    from ..sgd.kernels import sgd_block_minibatch, sgd_block_sequential

    kernel_name = effective_kernel_name(
        training, exact_kernel=exact_kernel, block_major=store is not None
    )
    if store is not None:
        apply_block_data(
            model.p, model.q, store.task_data(task), rate, training, kernel_name
        )
        return

    indices = task.indices()
    if len(indices) == 0:
        return
    if kernel_name == "sequential":
        sgd_block_sequential(
            model.p, model.q,
            train.rows[indices], train.cols[indices], train.vals[indices],
            rate, training.reg_p, training.reg_q,
        )
    else:
        sgd_block_minibatch(
            model.p, model.q,
            train.rows[indices], train.cols[indices], train.vals[indices],
            rate, training.reg_p, training.reg_q,
            batch_size=training.effective_batch_size,
        )


def apply_block_data(p, q, data, rate, training, kernel_name):
    """Apply one pre-gathered block record's SGD updates to ``p``/``q``.

    The store-fed half of :func:`apply_task_updates`, factored out so the
    process backend's workers — which hold shared-memory factor arrays
    and :class:`~repro.sparse.SharedBlockStore` records rather than a
    model and a task — issue byte-identical kernel calls to the in-process
    engines.  ``kernel_name`` must already be resolved
    (:func:`~repro.sgd.kernels.resolve_kernel_name`).
    """
    from ..sgd.kernels import (
        BLOCK_MAJOR_KERNELS,
        KERNELS,
        sgd_block_minibatch,
        sgd_block_sequential,
    )

    if data.nnz == 0:
        return
    if kernel_name == "sequential":
        sgd_block_sequential(
            p, q, data.rows, data.cols, data.vals,
            rate, training.reg_p, training.reg_q, validate=False,
        )
    elif kernel_name in BLOCK_MAJOR_KERNELS:
        KERNELS[kernel_name](
            p, q, data.local_rows, data.local_cols, data.vals,
            rate, training.reg_p, training.reg_q,
            data.row_range, data.col_range,
            batch_size=training.effective_batch_size, validate=False,
        )
    else:
        sgd_block_minibatch(
            p, q, data.rows, data.cols, data.vals,
            rate, training.reg_p, training.reg_q,
            batch_size=training.effective_batch_size, validate=False,
        )


class Engine(ABC):
    """Common interface of the execution backends.

    Engines are single-use: construct one per run with the scheduler,
    data and hyper-parameters, then either call :meth:`run` once or
    drive the run epoch by epoch through :meth:`start` (the stepwise
    session protocol of :mod:`repro.exec.session`).  Concrete engines
    expose at least ``scheduler`` and ``model`` attributes so callers
    can inspect the grid state and the trained factors, plus a
    ``backend_name`` matching their registry name.
    """

    #: Registry name of the backend (see :mod:`repro.exec.registry`).
    backend_name: str = ""

    @property
    def kernel_name(self) -> str:
        """The concrete kernel this engine's tasks execute (``"auto"`` resolved).

        Reads the ``training``, ``exact_kernel`` and ``_store`` attributes
        the built-in engines share; an engine without them overrides this.
        """
        return effective_kernel_name(
            self.training, self.exact_kernel, block_major=self._store is not None
        )

    @abstractmethod
    def start(
        self,
        iterations: Optional[int] = None,
        target_rmse: Optional[float] = None,
        max_simulated_time: Optional[float] = None,
        pause_on_epoch: Union[bool, Callable[[int], bool]] = False,
    ) -> EngineSession:
        """Begin a stepwise run and return its session.

        Parameters
        ----------
        iterations:
            Stop after this many full passes over the training ratings
            (defaults to ``training.iterations`` when neither a target
            RMSE nor a time budget is given).  Runs bounded only by a
            target RMSE or a time budget are additionally capped at
            :data:`MAX_UNBOUNDED_ITERATIONS` epochs.  When resuming from
            a checkpoint this is the *total* epoch cap, checkpointed
            epochs included.
        target_rmse:
            Stop as soon as the test RMSE at an iteration boundary is at
            or below this value (requires a test set).
        max_simulated_time:
            Hard cap on engine seconds (simulated seconds for the
            simulator, wall-clock seconds for the threaded backend).
        pause_on_epoch:
            Ask for a fully quiescent pause at epoch boundaries: ``True``
            pauses every boundary, a ``(epoch) -> bool`` predicate only
            the selected ones.  The simulator pauses inherently; the
            threaded backend drains in-flight tasks at the selected
            boundaries — required for checkpointing, unnecessary for
            mere observation.
        """

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
