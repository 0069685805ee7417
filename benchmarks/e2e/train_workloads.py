"""The two training workloads: ``train_wall`` and ``train_sim_paper``.

Both call the library in the benchmark process — that is how users run
``fit()`` — with a callback that stamps every epoch boundary.  One run
trains a fixed number of epochs with no stopping rule, so throughput and
time-to-target come from the same ``fit()``: the target is crossed at
whatever boundary the curve says.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import Callback, HardwareConfig, HeterogeneousTrainer, TrainingConfig, load_dataset, rmse
from repro.config import DEFAULT_BATCH_SIZE
from repro.core.algorithms import build_grid, effective_hardware, get_algorithm
from repro.datasets.splits import holdout_split
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_matrix
from repro.sgd import FactorModel, sgd_block_minibatch_local
from repro.shm import live_segment_names
from repro.sparse import BlockStore

from procs import self_peak_rss_mb
from spec import QUICK_SIZES, SIZES
from tracing import Tracer


@dataclass
class Outcome:
    """What one measured run of a workload produced."""

    e2e: Dict[str, float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    #: Counts and context printed beside the metrics and kept in the result file.
    detail: Dict[str, object] = field(default_factory=dict)


class EpochStamps(Callback):
    """Wall-clock instant and test RMSE of every epoch boundary."""

    def __init__(self) -> None:
        self.at: List[float] = []
        self.test_rmse: List[float] = []

    def on_epoch_end(self, report, session):
        self.at.append(time.perf_counter())
        self.test_rmse.append(report.test_rmse)


@dataclass
class FitRecord:
    """One timed ``fit()``: the result plus the harness's own clock."""

    result: object
    started: float
    ended: float
    stamps: EpochStamps
    epochs: int

    @property
    def wall(self) -> float:
        return self.ended - self.started

    @property
    def epoch_seconds(self) -> np.ndarray:
        return np.diff([self.started] + self.stamps.at)

    def reached_at(self, target: float) -> Optional[int]:
        """0-based epoch whose test RMSE first met ``target``."""
        for epoch, value in enumerate(self.stamps.test_rmse):
            if value <= target:
                return epoch
        return None


def timed_fit(trainer, train, test, epochs: int, backend: str, tracer: Tracer) -> FitRecord:
    stamps = EpochStamps()
    with tracer.span("exec:fit"):
        started = time.perf_counter()
        result = trainer.fit(train, test, iterations=epochs, backend=backend, callbacks=[stamps])
        ended = time.perf_counter()
        previous = started
        for at in stamps.at:
            tracer.add("exec:epoch", previous, at)
            previous = at
    return FitRecord(result, started, ended, stamps, epochs)


def training_e2e(fit: FitRecord, train_nnz: int, target: float) -> Dict[str, float]:
    """The named metrics every training workload shares."""
    reached = fit.reached_at(target)
    return {
        "time_to_target_s": fit.stamps.at[reached] - fit.started if reached is not None else float("nan"),
        "ratings_per_s": fit.epochs * train_nnz / fit.wall,
        "epoch_p50_ms": float(np.median(fit.epoch_seconds)) * 1000.0,
        "final_rmse": fit.stamps.test_rmse[-1],
        "peak_rss_mb": self_peak_rss_mb(),
    }


def replay_kernel_epoch(train, grid, training: TrainingConfig, tracer: Tracer) -> Dict[str, float]:
    """Grid, block store and one serial kernel epoch over the run's own blocks."""
    layers: Dict[str, float] = {}
    blocks = list(grid.iter_blocks())
    layers["core.n_blocks"] = grid.n_blocks
    with tracer.span("sparse:blockstore"):
        started = time.perf_counter()
        store = BlockStore(train)
        records = [store.block_data(block) for block in blocks]
        layers["sparse.blockstore_build_s"] = time.perf_counter() - started
    model = FactorModel.for_matrix(train, training)
    with tracer.span("sgd:kernel_epoch"):
        started = time.perf_counter()
        for data in records:
            if data.nnz:
                sgd_block_minibatch_local(
                    model.p,
                    model.q,
                    data.local_rows,
                    data.local_cols,
                    data.vals,
                    training.learning_rate,
                    training.reg_p,
                    training.reg_q,
                    data.row_range,
                    data.col_range,
                    batch_size=DEFAULT_BATCH_SIZE,
                    validate=False,
                )
        layers["sgd.kernel_epoch_s"] = time.perf_counter() - started
    return layers


def rmse_eval_ms(model, test, tracer: Tracer, repeats: int = 5) -> float:
    with tracer.span("metrics:rmse"):
        started = time.perf_counter()
        for _ in range(repeats):
            rmse(model, test)
        return (time.perf_counter() - started) / repeats * 1000.0


class TrainWall:
    """Seeded synthetic matrix, ``hsgd`` on 2 worker processes, real wall clock."""

    name = "train_wall"

    def __init__(self, seed: int, quick: bool, seconds: float) -> None:
        self.seed = seed
        self.size = (QUICK_SIZES if quick else SIZES)[self.name]
        self.epochs = max(10, round(self.size.epochs_per_second * seconds))
        self.hardware = HardwareConfig(cpu_threads=self.size.cpu_threads, gpu_count=0)

    def _trainer(self, hardware: HardwareConfig) -> HeterogeneousTrainer:
        return HeterogeneousTrainer(algorithm="hsgd", hardware=hardware, training=self.training, seed=self.seed)

    def setup(self, tracer: Tracer) -> Dict[str, float]:
        size = self.size
        with tracer.span("datasets:generate"):
            started = time.perf_counter()
            matrix, _, _ = generate_synthetic_matrix(
                SyntheticConfig(n_rows=size.n_rows, n_cols=size.n_cols, n_ratings=size.n_ratings, seed=self.seed)
            )
            self.train, self.test = holdout_split(matrix, size.test_fraction, seed=self.seed)
            generate_s = time.perf_counter() - started
        self.training = TrainingConfig(
            latent_factors=size.latent_factors, learning_rate=size.learning_rate, seed=self.seed
        )
        self.trainer = self._trainer(self.hardware)
        return {"datasets.generate_s": generate_s}

    def run(self, tracer: Tracer) -> Outcome:
        size, epochs = self.size, self.epochs
        fit = timed_fit(self.trainer, self.train, self.test, epochs, "processes", tracer)
        self.fit = fit
        e2e = training_e2e(fit, self.train.nnz, size.target_rmse)
        reached = fit.reached_at(size.target_rmse)
        curve = fit.stamps.test_rmse
        margin = float("nan")
        if reached is not None:
            above = curve[reached - 1] - size.target_rmse if reached else float("inf")
            margin = min(above, size.target_rmse - curve[reached])
        checks = {
            "target_reached": reached is not None,
            # The stopping epoch must not be able to flip between runs.
            "target_margin_ok": margin >= 5 * size.rmse_run_spread,
            "final_rmse_under_ceiling": curve[-1] <= size.rmse_ceiling,
            "no_worker_restarts": fit.result.worker_restarts == 0,
        }
        failed = 0 if all(checks.values()) else 1
        detail = {
            "epochs": epochs,
            "train_nnz": self.train.nnz,
            "target_rmse": size.target_rmse,
            "target_epoch": reached,
            "target_margin": margin,
            "fit_wall_s": fit.wall,
            "rmse_curve": curve,
        }
        return Outcome(e2e, attempted=1, failed=failed, checks=checks, detail=detail)

    def layers(self, tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
        fit, size, train = self.fit, self.size, self.train
        workers = size.cpu_threads
        trace = fit.result.trace
        spec = get_algorithm("hsgd")
        with tracer.span("core:build_grid"):
            started = time.perf_counter()
            grid = build_grid(spec, train, effective_hardware(spec, self.hardware))
            grid_build_s = time.perf_counter() - started
        layers = replay_kernel_epoch(train, grid, self.training, tracer)
        epoch_p50_s = float(np.median(fit.epoch_seconds))
        busy = sum(task.duration for task in trace.tasks)
        layers.update(
            {
                "core.grid_build_s": grid_build_s,
                "sgd.kernel_share": layers["sgd.kernel_epoch_s"] / (workers * epoch_p50_s),
                "metrics.rmse_eval_ms": rmse_eval_ms(fit.result.model, self.test, tracer),
                "exec.epoch_p50_s": epoch_p50_s,
                "exec.epoch_max_s": float(fit.epoch_seconds.max()),
                "exec.pool_start_s": fit.wall - fit.result.engine_time,
                "exec.worker_busy_share": busy / (workers * fit.result.engine_time),
                "exec.tasks": len(trace.tasks),
            }
        )
        # The plain single-worker baseline of the same task, and the
        # thread backend the GIL-releasing-kernel item will be judged on.
        serial = timed_fit(
            self._trainer(self.hardware.with_cpu_threads(1)), train, self.test, 2, "simulate", Tracer(False)
        )
        threads = timed_fit(self.trainer, train, self.test, 2, "threads", Tracer(False))
        serial_rate = 2 * train.nnz / serial.wall
        layers["exec.serial_ratings_per_s"] = serial_rate
        layers["exec.scaling_efficiency"] = outcome.e2e["ratings_per_s"] / (workers * serial_rate)
        layers["exec.threads_ratings_per_s"] = 2 * train.nnz / threads.wall
        return layers

    def teardown(self) -> int:
        return len(live_segment_names())


class TrainSimPaper:
    """The registry's Netflix analogue on the paper's machine, simulated."""

    name = "train_sim_paper"

    def __init__(self, seed: int, quick: bool, seconds: float) -> None:
        self.seed = seed
        self.size = (QUICK_SIZES if quick else SIZES)[self.name]
        self.epochs = max(10, round(self.size.epochs_per_second * seconds))
        self.hardware = HardwareConfig()

    def _trainer(self, algorithm: str) -> HeterogeneousTrainer:
        return HeterogeneousTrainer(
            algorithm=algorithm,
            hardware=self.hardware,
            training=self.data.spec.recommended_training(seed=self.seed),
            seed=self.seed,
        )

    def setup(self, tracer: Tracer) -> Dict[str, float]:
        with tracer.span("datasets:load_dataset"):
            started = time.perf_counter()
            self.data = load_dataset(self.size.dataset, seed=self.seed)
            generate_s = time.perf_counter() - started
        self.trainer = self._trainer("hsgd_star")
        with tracer.span("costmodel:calibrate"):
            started = time.perf_counter()
            self.trainer.calibrate(self.data.train)
            calibrate_s = time.perf_counter() - started
        return {"datasets.generate_s": generate_s, "costmodel.calibrate_s": calibrate_s}

    def run(self, tracer: Tracer) -> Outcome:
        data, size, epochs = self.data, self.size, self.epochs
        target = data.spec.target_rmse
        fit = timed_fit(self.trainer, data.train, data.test, epochs, "simulate", tracer)
        self.fit = fit
        e2e = training_e2e(fit, data.train.nnz, target)
        trace = fit.result.trace
        sim_time = trace.time_to_rmse(target)
        e2e["sim_time_to_target_s"] = sim_time if sim_time is not None else float("nan")
        checks = {
            "target_reached": sim_time is not None,
            "final_rmse_under_ceiling": e2e["final_rmse"] <= size.rmse_ceiling,
        }
        #: Simulated statistics: these repeat exactly for one seed, so the
        #: timed and the traced pass must agree on every one of them.
        self.exact = {
            "sim_time_to_target_s": e2e["sim_time_to_target_s"],
            "final_rmse": e2e["final_rmse"],
            "alpha": fit.result.alpha,
            "tasks": len(trace.tasks),
            "stolen_tasks": trace.stolen_task_count(),
            "engine_time": fit.result.engine_time,
        }
        detail = {
            "epochs": epochs,
            "train_nnz": data.train.nnz,
            "target_rmse": target,
            "target_epoch": fit.reached_at(target),
            "fit_wall_s": fit.wall,
            "exact": self.exact,
        }
        return Outcome(e2e, attempted=1, failed=0 if all(checks.values()) else 1, checks=checks, detail=detail)

    def layers(self, tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
        fit, data = self.fit, self.data
        trace = fit.result.trace
        training = self.trainer.training
        spec = get_algorithm("hsgd_star")
        hardware = effective_hardware(spec, self.hardware)
        with tracer.span("core:build_grid"):
            started = time.perf_counter()
            grid = build_grid(spec, data.train, hardware, alpha=fit.result.alpha)
            grid_build_s = time.perf_counter() - started
        layers = replay_kernel_epoch(data.train, grid, training, tracer)
        eval_ms = rmse_eval_ms(fit.result.model, data.test, tracer)
        epoch_p50_s = float(np.median(fit.epoch_seconds))
        tasks = len(trace.tasks)
        # The simulator runs every task on the one host thread.
        replayed = fit.epochs * (layers["sgd.kernel_epoch_s"] + eval_ms / 1000.0)
        target = data.spec.target_rmse
        with tracer.span("exec:fit_hsgd"):
            baseline = self._trainer("hsgd").fit(data.train, data.test, target_rmse=target, backend="simulate")
        layers.update(
            {
                "core.grid_build_s": grid_build_s,
                "costmodel.alpha": fit.result.alpha,
                "sgd.kernel_share": layers["sgd.kernel_epoch_s"] / epoch_p50_s,
                "metrics.rmse_eval_ms": eval_ms,
                "exec.epoch_p50_s": epoch_p50_s,
                "exec.epoch_max_s": float(fit.epoch_seconds.max()),
                "exec.tasks": tasks,
                "sim.tasks_per_s": tasks / fit.wall,
                "sim.overhead_us_per_task": (fit.wall - replayed) / tasks * 1e6,
                "sim.utilization": trace.utilization(hardware.total_workers),
                "sim.stolen_tasks": trace.stolen_task_count(),
                "sim.gpu_share": trace.resource_share()["gpu"],
                "core.sim_speedup_vs_hsgd": baseline.trace.target_reached_at / outcome.e2e["sim_time_to_target_s"],
            }
        )
        return layers

    def teardown(self) -> int:
        return len(live_segment_names())
