"""Configuration objects shared across the library.

The paper's experimental setup is parameterised by three groups of values:

* **training hyper-parameters** (Table I): the number of latent factors
  ``k``, the regularisation coefficients ``lambda_p`` and ``lambda_q``, the
  learning rate ``gamma``, and the number of iterations ``t``;
* **hardware resources** (Section VII): the number of CPU worker threads
  ``nc``, the number of GPUs ``ng``, and the number of GPU parallel workers
  (the paper's definition from CuMF_SGD: how many ratings a GPU kernel
  updates simultaneously);
* **scheduling options**: whether the nonuniform division, the tailored
  cost model, and the dynamic work-stealing phase are enabled.

Keeping these in small frozen dataclasses makes experiment definitions
declarative and easy to sweep.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Union

from .exceptions import ConfigurationError

#: Default latent dimensionality used throughout the paper's evaluation.
DEFAULT_LATENT_FACTORS = 128

#: Default CPU thread count of the paper's machine (16 of 20 cores used).
DEFAULT_CPU_THREADS = 16

#: Default number of GPUs in the paper's machine.
DEFAULT_GPU_COUNT = 1

#: Default number of GPU parallel workers (CuMF_SGD definition).
DEFAULT_GPU_PARALLEL_WORKERS = 128

#: The *built-in* execution backends: the discrete-event simulator
#: (:mod:`repro.sim`), the real thread pool (:mod:`repro.exec`), and the
#: shared-memory process pool (:mod:`repro.exec.process`).
#: The authoritative, extensible list lives in the backend registry
#: (:func:`repro.exec.registry.backend_names`), which validation and the
#: CLI consult — backends added with
#: :func:`repro.exec.register_backend` are accepted everywhere without
#: touching this constant.
BACKENDS = ("simulate", "threads", "processes")

#: Pseudo-backend name resolved per run by
#: :func:`repro.exec.registry.resolve_backend_name`: real worker
#: processes when the run has more than one worker and the platform
#: supports shared-memory multiprocessing, worker threads otherwise.
AUTO_BACKEND = "auto"

#: The sentinel accepted by every tunable the autotuner can resolve
#: (training batch size, serving chunk/batch, CLI worker counts): with a
#: :class:`repro.tune.TunedProfile` active it resolves to the calibrated
#: value, without one it falls back to the documented hand-picked
#: default — bitwise-identical to the pre-autotuning behaviour.
AUTO_TUNABLE = "auto"

#: Default mini-batch length of the vectorised SGD kernels, used when
#: :attr:`TrainingConfig.batch_size` is left ``None``.  Small enough that
#: repeated rows/columns within one batch stay rare on skewed rating data
#: (keeping the mini-batch relaxation close to sequential SGD), large
#: enough that the per-batch numpy overhead is amortised.
DEFAULT_BATCH_SIZE = 256

#: Default number of worker-process respawns the ``"processes"`` backend
#: performs across one run before a worker death escalates to
#: :class:`~repro.exceptions.ExecutionError` (see
#: :attr:`TrainingConfig.max_worker_restarts`).
DEFAULT_MAX_WORKER_RESTARTS = 3

#: The selectable SGD update kernels (see :mod:`repro.sgd.kernels`):
#: ``"auto"`` picks the compiled ``"native"`` kernel when it loads on this
#: machine and the numpy ``"minibatch_local"`` kernel otherwise,
#: ``"minibatch_local"`` forces the band-local numpy kernel, ``"native"``
#: forces the C kernel (within 1e-12 of the numpy one; an error when it
#: cannot be built), and ``"sequential"`` forces the exact per-rating
#: reference loop (slow).  All but ``"sequential"`` read the per-block
#: band-local arrays of :class:`repro.sparse.BlockStore`.
KERNEL_NAMES = ("auto", "minibatch_local", "native", "sequential")


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of the SGD matrix-factorization training loop.

    Mirrors the inputs of Algorithm 1 in the paper:
    ``R, k, lambda_P, lambda_Q, gamma, t``.

    Attributes
    ----------
    latent_factors:
        Number of latent factors ``k`` of the factor matrices ``P`` and ``Q``.
    learning_rate:
        SGD step size ``gamma``.
    reg_p:
        Regularisation coefficient ``lambda_P`` applied to user factors.
    reg_q:
        Regularisation coefficient ``lambda_Q`` applied to item factors.
    iterations:
        Number of full passes (epochs) over the rating matrix ``t``.
    seed:
        Seed for factor initialisation and block-order randomisation.
    init_scale:
        Scale of the uniform random initialisation of ``P`` and ``Q``.
        The common heuristic ``1/sqrt(k)`` is used when left ``None``.
    backend:
        Execution backend running the training: ``"simulate"`` (the
        discrete-event engine with cost-model timing) or ``"threads"``
        (real concurrent worker threads; see :mod:`repro.exec`).
    kernel:
        SGD update kernel (one of :data:`KERNEL_NAMES`).  The default
        ``"auto"`` selects a block-major kernel, which consumes per-block
        pre-gathered, pre-validated band-local arrays: the compiled
        ``"native"`` kernel when it loads on this machine, else the numpy
        ``"minibatch_local"`` kernel (``"native"`` agrees with it to
        1e-12).
    batch_size:
        Mini-batch length of the vectorised kernels
        (:data:`DEFAULT_BATCH_SIZE` when ``None``).  ``"auto"`` resolves
        through the active :class:`repro.tune.TunedProfile` when one is
        loaded and to :data:`DEFAULT_BATCH_SIZE` otherwise.  Only
        affects the mini-batch relaxation — the ``"sequential"``
        reference kernel updates rating by rating and ignores it.
    max_worker_restarts:
        Retry budget of the ``"processes"`` backend's worker
        supervision: how many worker-process deaths one run absorbs by
        rolling back to the last epoch-boundary recovery snapshot,
        respawning the worker and replaying the epoch.  ``0`` restores
        the fail-fast behaviour (any worker death aborts the run); once
        the budget is exhausted the next death raises
        :class:`~repro.exceptions.ExecutionError` with full
        diagnostics.  Ignored by the simulator and thread backends
        (threads cannot die independently of the controller).
    """

    latent_factors: int = DEFAULT_LATENT_FACTORS
    learning_rate: float = 0.005
    reg_p: float = 0.05
    reg_q: float = 0.05
    iterations: int = 20
    seed: int = 0
    init_scale: Optional[float] = None
    backend: str = "simulate"
    kernel: str = "auto"
    batch_size: Optional[Union[int, str]] = None
    max_worker_restarts: int = DEFAULT_MAX_WORKER_RESTARTS

    def __post_init__(self) -> None:
        if self.latent_factors <= 0:
            raise ConfigurationError(
                f"latent_factors must be positive, got {self.latent_factors}"
            )
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.reg_p < 0 or self.reg_q < 0:
            raise ConfigurationError(
                f"regularisation must be non-negative, got "
                f"reg_p={self.reg_p}, reg_q={self.reg_q}"
            )
        if self.iterations <= 0:
            raise ConfigurationError(
                f"iterations must be positive, got {self.iterations}"
            )
        if self.init_scale is not None and self.init_scale <= 0:
            raise ConfigurationError(
                f"init_scale must be positive when given, got {self.init_scale}"
            )
        if isinstance(self.batch_size, str):
            if self.batch_size != AUTO_TUNABLE:
                raise ConfigurationError(
                    f"batch_size must be a positive integer, None or "
                    f"{AUTO_TUNABLE!r}, got {self.batch_size!r}"
                )
        elif self.batch_size is not None and self.batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive when given, got {self.batch_size}"
            )
        if self.max_worker_restarts < 0:
            raise ConfigurationError(
                f"max_worker_restarts must be >= 0, got {self.max_worker_restarts}"
            )
        # Imported lazily: the registry lives under repro.exec, whose
        # engine modules import this one at module load.
        from .exec.registry import backend_names, is_registered

        if self.backend != AUTO_BACKEND and not is_registered(self.backend):
            raise ConfigurationError(
                f"backend must be one of {(AUTO_BACKEND,) + backend_names()}, "
                f"got {self.backend!r}"
            )
        if self.kernel not in KERNEL_NAMES:
            raise ConfigurationError(
                f"kernel must be one of {KERNEL_NAMES}, got {self.kernel!r}"
            )

    def with_iterations(self, iterations: int) -> "TrainingConfig":
        """Return a copy of this config with a different iteration count."""
        return dataclasses.replace(self, iterations=iterations)

    def with_backend(self, backend: str) -> "TrainingConfig":
        """Return a copy of this config with a different execution backend."""
        return dataclasses.replace(self, backend=backend)

    def with_kernel(self, kernel: str) -> "TrainingConfig":
        """Return a copy of this config with a different SGD kernel."""
        return dataclasses.replace(self, kernel=kernel)

    def with_batch_size(
        self, batch_size: Optional[Union[int, str]]
    ) -> "TrainingConfig":
        """Return a copy of this config with a different mini-batch size."""
        return dataclasses.replace(self, batch_size=batch_size)

    @property
    def effective_batch_size(self) -> int:
        """The mini-batch length the vectorised kernels actually use."""
        if self.batch_size == AUTO_TUNABLE:
            # Lazy: repro.tune.profile imports this module's constants.
            from .tune.profile import resolve_training_batch_size

            return resolve_training_batch_size(AUTO_TUNABLE)
        if self.batch_size is not None:
            return self.batch_size
        return DEFAULT_BATCH_SIZE

    def with_max_worker_restarts(self, restarts: int) -> "TrainingConfig":
        """Return a copy with a different worker-respawn retry budget."""
        return dataclasses.replace(self, max_worker_restarts=restarts)

    def with_seed(self, seed: int) -> "TrainingConfig":
        """Return a copy of this config with a different random seed."""
        return dataclasses.replace(self, seed=seed)

    @property
    def effective_init_scale(self) -> float:
        """The factor-initialisation scale actually used."""
        if self.init_scale is not None:
            return self.init_scale
        return 1.0 / float(self.latent_factors) ** 0.5


@dataclass(frozen=True)
class HardwareConfig:
    """Description of the heterogeneous platform used by a run.

    Attributes
    ----------
    cpu_threads:
        Number of CPU worker threads ``nc``.
    gpu_count:
        Number of GPUs ``ng``.
    gpu_parallel_workers:
        Number of ratings processed simultaneously inside one GPU kernel
        (the CuMF_SGD notion of "parallel workers"; the paper sweeps this
        from 32 to 512 in Figure 10).
    """

    cpu_threads: int = DEFAULT_CPU_THREADS
    gpu_count: int = DEFAULT_GPU_COUNT
    gpu_parallel_workers: int = DEFAULT_GPU_PARALLEL_WORKERS

    def __post_init__(self) -> None:
        if self.cpu_threads < 0:
            raise ConfigurationError(
                f"cpu_threads must be >= 0, got {self.cpu_threads}"
            )
        if self.gpu_count < 0:
            raise ConfigurationError(
                f"gpu_count must be >= 0, got {self.gpu_count}"
            )
        if self.cpu_threads == 0 and self.gpu_count == 0:
            raise ConfigurationError(
                "a platform needs at least one CPU thread or one GPU"
            )
        if self.gpu_count > 0 and self.gpu_parallel_workers <= 0:
            raise ConfigurationError(
                "gpu_parallel_workers must be positive when GPUs are present, "
                f"got {self.gpu_parallel_workers}"
            )

    @property
    def total_workers(self) -> int:
        """Total number of scheduling workers (CPU threads plus GPUs)."""
        return self.cpu_threads + self.gpu_count

    def with_cpu_threads(self, cpu_threads: int) -> "HardwareConfig":
        """Return a copy of this config with a different CPU thread count."""
        return dataclasses.replace(self, cpu_threads=cpu_threads)

    def with_gpu_parallel_workers(self, workers: int) -> "HardwareConfig":
        """Return a copy with a different GPU parallel-worker count."""
        return dataclasses.replace(self, gpu_parallel_workers=workers)


@dataclass(frozen=True)
class SchedulingConfig:
    """Options selecting between the paper's scheduling variants.

    The four published configurations map onto this dataclass as:

    ==============  ==================  ===================  =================
    Algorithm       nonuniform_division cost_model           dynamic_scheduling
    ==============  ==================  ===================  =================
    HSGD            False               (ignored)            True (greedy)
    HSGD*-Q         True                ``"qilin"``          False
    HSGD*-M         True                ``"paper"``          False
    HSGD* (full)    True                ``"paper"``          True
    ==============  ==================  ===================  =================
    """

    nonuniform_division: bool = True
    cost_model: str = "paper"
    dynamic_scheduling: bool = True
    #: Extra multiplier on the Rule-1 minimum block-column count, for
    #: sensitivity experiments. ``1.0`` reproduces the paper.
    column_scale: float = 1.0

    _VALID_COST_MODELS = ("paper", "qilin", "oracle")

    def __post_init__(self) -> None:
        if self.cost_model not in self._VALID_COST_MODELS:
            raise ConfigurationError(
                f"cost_model must be one of {self._VALID_COST_MODELS}, "
                f"got {self.cost_model!r}"
            )
        if self.column_scale <= 0:
            raise ConfigurationError(
                f"column_scale must be positive, got {self.column_scale}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of all configuration pieces for one experiment run."""

    training: TrainingConfig = field(default_factory=TrainingConfig)
    hardware: HardwareConfig = field(default_factory=HardwareConfig)
    scheduling: SchedulingConfig = field(default_factory=SchedulingConfig)

    def describe(self) -> str:
        """One-line human-readable summary used in experiment logs."""
        return (
            f"k={self.training.latent_factors} "
            f"gamma={self.training.learning_rate} "
            f"iters={self.training.iterations} "
            f"nc={self.hardware.cpu_threads} ng={self.hardware.gpu_count} "
            f"gpu_workers={self.hardware.gpu_parallel_workers} "
            f"division={'nonuniform' if self.scheduling.nonuniform_division else 'uniform'} "
            f"cost_model={self.scheduling.cost_model} "
            f"dynamic={self.scheduling.dynamic_scheduling}"
        )
