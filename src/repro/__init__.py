"""repro — Efficient Matrix Factorization on Heterogeneous CPU-GPU Systems.

A from-scratch Python reproduction of Yu et al., *Efficient Matrix
Factorization on Heterogeneous CPU-GPU Systems* (ICDE 2021): HSGD* —
SGD-based matrix factorization scheduled across CPU threads and GPUs with
a nonuniform matrix division, a tailored cost model and dynamic work
stealing — together with every substrate it needs (block grids, SGD
kernels, a simulated heterogeneous platform, cost-model calibration, a
discrete-event engine, datasets, metrics and the full experiment
harness).

Quick start::

    from repro import factorize, load_dataset

    data = load_dataset("movielens")
    result = factorize(data.train, data.test, algorithm="hsgd_star",
                       iterations=10)
    print(result.final_test_rmse, result.engine_time)

See ``README.md`` for the architecture overview and ``DESIGN.md`` for the
paper-to-module mapping.
"""

from .config import (
    BACKENDS,
    ExperimentConfig,
    HardwareConfig,
    SchedulingConfig,
    TrainingConfig,
)
from .core import (
    ALGORITHMS,
    HeterogeneousTrainer,
    TrainResult,
    factorize,
)
from .costmodel import CalibrationResult, WorkloadSplit, calibrate_platform, solve_alpha
from .datasets import dataset_names, get_dataset, load_dataset
from .exceptions import ReproError
from .exec import (
    Callback,
    Checkpoint,
    EarlyStopping,
    Engine,
    EngineResult,
    EngineSession,
    EpochReport,
    JsonlLogger,
    ProcessEngine,
    ProcessResult,
    ThreadedEngine,
    ThreadedResult,
    TimeBudget,
    TrainCheckpoint,
    backend_names,
    get_backend,
    register_backend,
    unregister_backend,
)
from .hardware import HeterogeneousPlatform, PlatformPreset, paper_machine_preset
from .serve import (
    ModelHandle,
    ModelStore,
    Recommendation,
    RecommendationService,
    Scorer,
    attach_model,
)
from .sgd import FactorModel, rmse, train_als, train_serial_sgd
from .sparse import SparseRatingMatrix
from .stream import (
    DriftMonitor,
    DriftPolicy,
    DriftReading,
    IngestReport,
    IngestSession,
    IngestStats,
)
from .tune import TunedProfile, run_tune, set_active_profile, use_profile

__version__ = "1.7.0"

__all__ = [
    "BACKENDS",
    "ExperimentConfig",
    "HardwareConfig",
    "SchedulingConfig",
    "TrainingConfig",
    "Engine",
    "EngineResult",
    "EngineSession",
    "EpochReport",
    "Callback",
    "Checkpoint",
    "EarlyStopping",
    "JsonlLogger",
    "TimeBudget",
    "TrainCheckpoint",
    "backend_names",
    "get_backend",
    "register_backend",
    "unregister_backend",
    "ProcessEngine",
    "ProcessResult",
    "ThreadedEngine",
    "ThreadedResult",
    "ALGORITHMS",
    "HeterogeneousTrainer",
    "TrainResult",
    "factorize",
    "CalibrationResult",
    "WorkloadSplit",
    "calibrate_platform",
    "solve_alpha",
    "dataset_names",
    "get_dataset",
    "load_dataset",
    "ReproError",
    "HeterogeneousPlatform",
    "PlatformPreset",
    "paper_machine_preset",
    "ModelHandle",
    "ModelStore",
    "Recommendation",
    "RecommendationService",
    "Scorer",
    "attach_model",
    "FactorModel",
    "rmse",
    "train_als",
    "train_serial_sgd",
    "SparseRatingMatrix",
    "DriftMonitor",
    "DriftPolicy",
    "DriftReading",
    "IngestReport",
    "IngestSession",
    "IngestStats",
    "TunedProfile",
    "run_tune",
    "set_active_profile",
    "use_profile",
    "__version__",
]
