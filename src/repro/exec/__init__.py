"""Execution backends: turning scheduler decisions into SGD updates.

This package defines the execution API every backend implements and the
machinery built on top of it:

* :mod:`repro.exec.base` — the :class:`Engine` base (``start()`` /
  ``run()``, the run inputs and validation every backend shares) and
  the backend-agnostic :class:`EngineResult`;
* :mod:`repro.exec.session` — the stepwise session protocol
  (:class:`EpochReport`: one ``step()`` per epoch, observable and
  stoppable between steps) and its single implementation, the session
  core :class:`EngineSession` — epoch ledger, completion booking,
  boundaries, stop reasons, checkpoint state — under which each backend
  is a thin executor;
* :mod:`repro.exec.trace` — the execution trace every backend records
  (also importable from :mod:`repro.sim`, its historical home);
* :mod:`repro.exec.callbacks` — epoch-boundary callbacks
  (:class:`EarlyStopping`, :class:`Checkpoint`, :class:`JsonlLogger`,
  :class:`TimeBudget`);
* :mod:`repro.exec.checkpoint` — :class:`TrainCheckpoint`, serializable
  snapshots that resume bitwise-identically on the simulator;
* :mod:`repro.exec.registry` — the pluggable backend registry
  (:func:`register_backend` / :func:`get_backend`), consulted by config
  validation, the trainer and the CLI;
* :mod:`repro.exec.threaded` — :class:`ThreadedEngine`, a thread pool of
  genuinely concurrent workers applying conflict-free block updates to
  the shared factor matrices (Hogwild-safe under the band-lock
  guarantee);
* :mod:`repro.exec.process` — :class:`ProcessEngine`, worker *processes*
  over ``multiprocessing.shared_memory``-backed factors and block data:
  the same band-lock execution model without the GIL, for true multicore
  scaling.

The discrete-event backend lives in :mod:`repro.sim` and implements the
same protocol; select between backends with ``backend="simulate"`` /
``"threads"`` / ``"processes"`` (or any registered name, or ``"auto"``)
on :class:`~repro.config.TrainingConfig`,
:meth:`~repro.core.trainer.HeterogeneousTrainer.fit` or the CLI.
"""

from .session import (
    STOP_CALLBACK,
    STOP_ITERATIONS,
    STOP_TARGET_RMSE,
    STOP_TIME_BUDGET,
    EngineSession,
    EpochReport,
    run_session,
)
from .base import BACKENDS, Engine, EngineResult, WallClockResult
from .callbacks import (
    CONTINUE,
    STOP,
    Callback,
    CallbackList,
    Checkpoint,
    EarlyStopping,
    JsonlLogger,
    TimeBudget,
)
from .checkpoint import TrainCheckpoint
from .registry import (
    BUILTIN_BACKENDS,
    backend_names,
    get_backend,
    is_registered,
    register_backend,
    resolve_backend_name,
    unregister_backend,
)
from .threaded import IDLE_POLL_SECONDS, ThreadedEngine, ThreadedResult, ThreadedSession
from .process import (
    ProcessEngine,
    ProcessResult,
    ProcessSession,
    process_backend_supported,
)

__all__ = [
    "BACKENDS",
    "BUILTIN_BACKENDS",
    "Engine",
    "EngineResult",
    "WallClockResult",
    "EngineSession",
    "EpochReport",
    "run_session",
    "STOP_CALLBACK",
    "STOP_ITERATIONS",
    "STOP_TARGET_RMSE",
    "STOP_TIME_BUDGET",
    "CONTINUE",
    "STOP",
    "Callback",
    "CallbackList",
    "Checkpoint",
    "EarlyStopping",
    "JsonlLogger",
    "TimeBudget",
    "TrainCheckpoint",
    "backend_names",
    "get_backend",
    "is_registered",
    "register_backend",
    "resolve_backend_name",
    "unregister_backend",
    "IDLE_POLL_SECONDS",
    "ThreadedEngine",
    "ThreadedResult",
    "ThreadedSession",
    "ProcessEngine",
    "ProcessResult",
    "ProcessSession",
    "process_backend_supported",
]
