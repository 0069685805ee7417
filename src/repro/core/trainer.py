"""High-level training API.

:class:`HeterogeneousTrainer` wires together calibration, workload
division, scheduling and simulation into the two-phase workflow of the
paper's Algorithm 2 (HSGD*):

1. an **offline phase** — :meth:`HeterogeneousTrainer.calibrate` probes
   the platform and fits the cost models (run once per machine);
2. an **online phase** — :meth:`HeterogeneousTrainer.fit` divides the
   given matrix according to the cost models, builds the scheduler for
   the chosen algorithm and runs the simulated training.

The free function :func:`factorize` is a convenience one-liner for
examples and quick experiments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..config import HardwareConfig, TrainingConfig
from ..costmodel import CalibrationResult, WorkloadSplit, calibrate_platform, solve_alpha
from ..exceptions import CheckpointError, ConfigurationError
from ..exec import Engine
from ..exec.base import EngineResult
from ..exec.callbacks import Callback, CallbackList
from ..exec.checkpoint import TrainCheckpoint
from ..exec.registry import get_backend, resolve_backend_name
from ..exec.session import run_session
from ..hardware import HeterogeneousPlatform, PlatformPreset, PAPER_MACHINE
from ..sgd import FactorModel
from ..sgd.schedules import LearningRateSchedule
from ..sparse import SparseRatingMatrix
from .algorithms import (
    AlgorithmSpec,
    build_grid,
    build_scheduler,
    effective_hardware,
    get_algorithm,
)


@dataclass
class TrainResult(EngineResult):
    """Everything produced by one training run.

    Extends the backend-agnostic :class:`~repro.exec.base.EngineResult`
    (which supplies :attr:`engine_time`, :attr:`final_test_rmse`,
    :meth:`rmse_curve` and :meth:`time_to_rmse`) with what only the
    trainer knows: the algorithm, the cost-model split and the backend
    that executed the run.
    """

    algorithm: str = ""
    alpha: Optional[float] = None
    calibration: Optional[CalibrationResult] = None
    backend: str = "simulate"
    """Which execution backend produced the run (a
    :mod:`repro.exec.registry` name, e.g. ``"simulate"`` or
    ``"threads"``); determines the time base of :attr:`engine_time`."""


class HeterogeneousTrainer:
    """Train matrix-factorization models on a (simulated) CPU-GPU machine.

    Parameters
    ----------
    algorithm:
        One of the names in :data:`repro.core.algorithms.ALGORITHMS`
        (``"hsgd_star"`` by default).
    hardware:
        Worker counts and GPU parallel workers.
    training:
        SGD hyper-parameters.
    preset:
        Machine constants of the simulated platform (the paper's machine
        by default).  Use ``preset.scaled(...)`` when training scaled-down
        datasets.
    column_scale:
        Multiplier on the nonuniform division's column count (ablation
        knob; 1.0 reproduces the paper).
    stream_overlap:
        Disable to model a GPU without CUDA-stream overlap (ablation).
    seed:
        Seed for scheduling tie-breaks.
    """

    def __init__(
        self,
        algorithm: str = "hsgd_star",
        hardware: Optional[HardwareConfig] = None,
        training: Optional[TrainingConfig] = None,
        preset: Optional[PlatformPreset] = None,
        column_scale: float = 1.0,
        stream_overlap: bool = True,
        seed: int = 0,
    ) -> None:
        self.spec: AlgorithmSpec = get_algorithm(algorithm)
        self.hardware = hardware or HardwareConfig()
        self.training = training or TrainingConfig()
        self.preset = preset or PAPER_MACHINE
        self.column_scale = column_scale
        self.stream_overlap = stream_overlap
        self.seed = seed
        self._calibration: Optional[CalibrationResult] = None
        self._effective_hardware = effective_hardware(self.spec, self.hardware)
        self._platform = HeterogeneousPlatform.from_preset(
            self._effective_hardware, self.preset, stream_overlap=stream_overlap
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def platform(self) -> HeterogeneousPlatform:
        """The simulated platform the trainer schedules onto."""
        return self._platform

    @property
    def calibration(self) -> Optional[CalibrationResult]:
        """The cost models from the last :meth:`calibrate` call, if any."""
        return self._calibration

    # ------------------------------------------------------------------ #
    # Offline phase
    # ------------------------------------------------------------------ #
    def calibrate(
        self,
        matrix: SparseRatingMatrix,
        segments: int = 12,
        sample_fraction: float = 1.0,
    ) -> CalibrationResult:
        """Run the offline cost-model calibration (Algorithm 3).

        The result is cached on the trainer and reused by subsequent
        :meth:`fit` calls, mirroring the paper's "performed only once on a
        machine" offline phase.
        """
        self._calibration = calibrate_platform(
            self._platform,
            matrix,
            training=self.training,
            segments=segments,
            sample_fraction=sample_fraction,
            seed=self.seed,
        )
        return self._calibration

    def workload_split(
        self, matrix: SparseRatingMatrix
    ) -> Optional[WorkloadSplit]:
        """Compute the cost-model workload split for ``matrix``.

        Returns ``None`` for algorithms that do not use a cost model.
        Calibrates on demand if :meth:`calibrate` has not been called.

        The GPU cost is evaluated at the *block* granularity the
        nonuniform division will actually produce: a GPU assigned
        ``alpha * |R|`` ratings processes them as ``nc + 2 ng + 1``
        column blocks of its GPU row (Figure 9), and — per Observation 1 —
        GPU throughput depends on that block size, not on the aggregate
        workload.  The CPU cost is linear, so its granularity is
        irrelevant (Observation 2).
        """
        if self.spec.cost_model is None:
            return None
        if self._calibration is None:
            self.calibrate(matrix)
        calibration = self._calibration
        if calibration is None:  # pragma: no cover - defensive
            raise ConfigurationError("calibration failed to produce models")

        nc = self._effective_hardware.cpu_threads
        ng = self._effective_hardware.gpu_count
        n_columns = max(2, int(round((nc + 2 * ng + 1) * self.column_scale)))
        blocks_per_gpu_share = max(1, n_columns * max(ng, 1))
        cost_model = self.spec.cost_model

        def gpu_time(points: float) -> float:
            if points <= 0:
                return 0.0
            if cost_model == "qilin":
                # Qilin predicts the offloaded workload as a whole — it has
                # no notion of the block granularity the division imposes,
                # which is precisely the inaccuracy Table II exposes.
                return calibration.gpu_time_for_points(points, cost_model)
            block_points = points / blocks_per_gpu_share
            per_block = calibration.gpu_time_for_points(block_points, cost_model)
            return per_block * blocks_per_gpu_share

        def cpu_time(points: float) -> float:
            return calibration.cpu_time_for_points(points, cost_model)

        return solve_alpha(
            gpu_time,
            cpu_time,
            total_points=matrix.nnz,
            n_gpus=ng,
            n_cpu_threads=nc,
        )

    # ------------------------------------------------------------------ #
    # Online phase
    # ------------------------------------------------------------------ #
    def fit(
        self,
        train: SparseRatingMatrix,
        test: Optional[SparseRatingMatrix] = None,
        iterations: Optional[int] = None,
        target_rmse: Optional[float] = None,
        max_simulated_time: Optional[float] = None,
        model: Optional[FactorModel] = None,
        schedule: Optional[LearningRateSchedule] = None,
        alpha_override: Optional[float] = None,
        compute_train_rmse: bool = False,
        backend: Optional[str] = None,
        kernel: Optional[str] = None,
        batch_size: Optional[int] = None,
        callbacks: Optional[Sequence[Callback]] = None,
        resume_from: Optional[Union[str, os.PathLike, TrainCheckpoint]] = None,
    ) -> TrainResult:
        """Divide, schedule and train on ``train``.

        Parameters
        ----------
        train, test:
            Training ratings and optional held-out ratings.
        iterations:
            Number of full passes; defaults to ``training.iterations``.
            When resuming from a checkpoint, this is the *total* epoch
            cap — checkpointed epochs included — so ``fit(...,
            iterations=10, resume_from=ckpt)`` after a 5-epoch
            checkpoint runs 5 more epochs.
        target_rmse:
            Stop as soon as the test RMSE reaches this value.
        max_simulated_time:
            Hard time budget (simulated seconds for the ``"simulate"``
            backend, wall-clock seconds for ``"threads"``).
        model:
            Optional warm-start factor model.
        schedule:
            Optional learning-rate schedule.
        alpha_override:
            Bypass the cost model and force a specific GPU workload share
            (used by the alpha-sensitivity ablation).
        compute_train_rmse:
            Also record training RMSE each iteration.
        backend:
            Execution backend override: any name registered with
            :func:`repro.exec.register_backend` (built-ins:
            ``"simulate"``, the discrete-event engine; ``"threads"``,
            real concurrent worker threads; ``"processes"``, worker
            processes over shared-memory factors), or ``"auto"`` to pick
            processes when the run has more than one worker and the
            platform supports them, threads otherwise.  Defaults to
            ``training.backend``.
        kernel:
            SGD kernel override (one of
            :data:`repro.config.KERNEL_NAMES`).  Defaults to
            ``training.kernel`` (normally ``"auto"``, the block-major
            local kernel).
        batch_size:
            Mini-batch length override for the vectorised kernels
            (defaults to ``training.batch_size``, itself defaulting to
            :data:`repro.config.DEFAULT_BATCH_SIZE`).  The sequential
            reference kernel is unaffected.
        callbacks:
            Epoch-boundary callbacks (:mod:`repro.exec.callbacks`):
            early stopping, checkpointing, JSONL logging, wall-clock
            budgets, or any custom :class:`~repro.exec.callbacks.Callback`.
        resume_from:
            A :class:`~repro.exec.checkpoint.TrainCheckpoint` (or a path
            to one) to resume.  With ``train`` identical to the
            checkpointed run's matrix (and the trainer constructed
            identically: same algorithm, hardware and seed), resuming on
            the simulate backend is bitwise-identical to the
            uninterrupted run.  With a matrix that has since **grown**
            (streaming appends — see
            :meth:`~repro.sparse.SparseRatingMatrix.append`), the run
            becomes a *warm-start retrain*: the checkpointed factors are
            padded to the new shape with least-squares fold-in rows, the
            grid and scheduler are re-derived from the grown matrix, and
            the session restarts at epoch 0 (``iterations`` counts from
            zero again).  A matrix smaller than the checkpointed one
            raises :class:`~repro.exceptions.CheckpointError`.
        """
        alpha: Optional[float] = None
        if self.spec.division == "nonuniform":
            if alpha_override is not None:
                alpha = float(alpha_override)
            else:
                split = self.workload_split(train)
                alpha = split.alpha if split is not None else 0.0

        grid = build_grid(
            self.spec,
            train,
            self._effective_hardware,
            alpha=alpha,
            column_scale=self.column_scale,
        )
        scheduler = build_scheduler(
            self.spec, grid, self._effective_hardware, seed=self.seed
        )
        backend = backend if backend is not None else self.training.backend
        backend = resolve_backend_name(backend, n_workers=scheduler.n_workers)
        training = self.training
        if kernel is not None:
            training = training.with_kernel(kernel)
        if batch_size is not None:
            training = training.with_batch_size(batch_size)
        checkpoint: Optional[TrainCheckpoint] = None
        if resume_from is not None:
            checkpoint = (
                resume_from
                if isinstance(resume_from, TrainCheckpoint)
                else TrainCheckpoint.load(resume_from)
            )
            checkpoint, model = self._dispatch_resume(
                checkpoint, train, training, model
            )
        engine = self._build_engine(
            backend,
            scheduler,
            train,
            training=training,
            test=test,
            model=model,
            schedule=schedule,
            compute_train_rmse=compute_train_rmse,
        )
        callback_list = CallbackList(callbacks)
        session = engine.start(
            iterations=iterations,
            target_rmse=target_rmse,
            max_simulated_time=max_simulated_time,
            pause_on_epoch=(
                callback_list.pause_at if callback_list.requires_pause else False
            ),
        )
        if checkpoint is not None:
            checkpoint.restore(session)
        outcome = run_session(session, callback_list)
        return TrainResult(
            model=outcome.model,
            trace=outcome.trace,
            converged=outcome.converged,
            stop_reason=outcome.stop_reason,
            worker_restarts=outcome.worker_restarts,
            kernel_name=outcome.kernel_name,
            algorithm=self.spec.key,
            alpha=alpha,
            calibration=self._calibration,
            backend=backend,
        )

    def _dispatch_resume(
        self,
        checkpoint: TrainCheckpoint,
        train: SparseRatingMatrix,
        training: TrainingConfig,
        model: Optional[FactorModel],
    ):
        """Route ``resume_from`` to exact resume or grown warm-start.

        Exact resume (the matrix is identical to the checkpointed run's:
        same shape, same rating count) keeps the checkpoint — it is
        restored into the fresh session and continues bitwise-identically
        (simulate backend) to the uninterrupted run.

        A *grown* matrix (streaming appends since the checkpoint: more
        ratings and possibly new users/items) cannot restore scheduler
        state — the grid, quotas and update counters all describe the old
        division.  Instead the checkpointed factors are padded to the new
        shape with least-squares fold-in rows
        (:func:`repro.sgd.foldin.grow_model`) and handed to the engine as
        the warm-start ``model``; the scheduler and grid are re-derived
        from the grown matrix and the session starts at epoch 0.

        A matrix *smaller* than the checkpointed one is a caller error
        (dimensions never shrink under streaming) and raises
        :class:`~repro.exceptions.CheckpointError`.

        Returns the ``(checkpoint, model)`` pair to use: ``(checkpoint,
        model)`` unchanged for exact resume, ``(None, grown_model)`` for
        warm-start.
        """
        old_m = int(checkpoint.meta.get("n_rows", -1))
        old_n = int(checkpoint.meta.get("n_cols", -1))
        old_nnz = checkpoint.meta.get("total_points")
        if train.n_rows < old_m or train.n_cols < old_n:
            raise CheckpointError(
                f"matrix shape ({train.n_rows}, {train.n_cols}) is smaller "
                f"than the checkpointed ({old_m}, {old_n}); dimensions "
                "never shrink"
            )
        exact = (train.n_rows, train.n_cols) == (old_m, old_n) and (
            old_nnz is None or train.nnz == int(old_nnz)
        )
        if exact:
            return checkpoint, model
        if model is not None:
            raise ConfigurationError(
                "model and a grown-matrix resume_from are mutually "
                "exclusive: the warm-start model is derived from the "
                "checkpoint's factors"
            )
        from ..sgd import grow_model

        grown = grow_model(
            FactorModel(checkpoint.p, checkpoint.q),
            train,
            (old_m, old_n),
            reg_p=training.reg_p,
            reg_q=training.reg_q,
            seed=self.seed,
            init_scale=training.effective_init_scale,
        )
        return None, grown

    def _build_engine(
        self,
        backend: str,
        scheduler,
        train: SparseRatingMatrix,
        training: TrainingConfig,
        test: Optional[SparseRatingMatrix],
        model: Optional[FactorModel],
        schedule: Optional[LearningRateSchedule],
        compute_train_rmse: bool,
    ) -> Engine:
        """Construct the execution backend for one run.

        Backends are resolved through :mod:`repro.exec.registry`, so any
        backend registered with
        :func:`repro.exec.register_backend` — built-in or third-party —
        is constructible here without editing this method.
        """
        factory = get_backend(backend)
        return factory(
            scheduler=scheduler,
            train=train,
            training=training,
            test=test,
            model=model,
            schedule=schedule,
            platform=self._platform,
            compute_train_rmse=compute_train_rmse,
        )


def factorize(
    train: SparseRatingMatrix,
    test: Optional[SparseRatingMatrix] = None,
    algorithm: str = "hsgd_star",
    hardware: Optional[HardwareConfig] = None,
    training: Optional[TrainingConfig] = None,
    preset: Optional[PlatformPreset] = None,
    iterations: Optional[int] = None,
    target_rmse: Optional[float] = None,
    max_simulated_time: Optional[float] = None,
    seed: int = 0,
    backend: Optional[str] = None,
    kernel: Optional[str] = None,
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    schedule: Optional[LearningRateSchedule] = None,
    compute_train_rmse: bool = False,
    callbacks: Optional[Sequence[Callback]] = None,
    resume_from: Optional[Union[str, os.PathLike, TrainCheckpoint]] = None,
) -> TrainResult:
    """One-call matrix factorization on the heterogeneous machine.

    A thin convenience wrapper around :class:`HeterogeneousTrainer` for
    examples and quick experiments; it accepts the full set of
    :meth:`HeterogeneousTrainer.fit` run options — stopping conditions
    (``iterations`` / ``target_rmse`` / ``max_simulated_time``), the
    learning-rate ``schedule``, per-iteration training RMSE
    (``compute_train_rmse``), epoch ``callbacks`` and checkpoint
    resumption (``resume_from``) — see the method for parameter details.
    ``backend`` selects the execution backend (any registered name;
    ``"simulate"``, ``"threads"`` and ``"processes"`` built in, plus the
    ``"auto"`` rule); ``kernel`` the SGD update kernel (``"auto"``
    default); ``batch_size`` the vectorised kernels' mini-batch length.
    ``workers`` overrides the CPU worker count of ``hardware`` — the
    handy knob when sweeping real thread/process parallelism.
    """
    if workers is not None:
        hardware = (hardware or HardwareConfig()).with_cpu_threads(workers)
    trainer = HeterogeneousTrainer(
        algorithm=algorithm,
        hardware=hardware,
        training=training,
        preset=preset,
        seed=seed,
    )
    return trainer.fit(
        train,
        test=test,
        iterations=iterations,
        target_rmse=target_rmse,
        max_simulated_time=max_simulated_time,
        backend=backend,
        kernel=kernel,
        batch_size=batch_size,
        schedule=schedule,
        compute_train_rmse=compute_train_rmse,
        callbacks=callbacks,
        resume_from=resume_from,
    )
