"""Everything the end-to-end benchmark fixes in advance.

Sizes, rates, epoch counts and RMSE targets are constants here and are
never derived from a measurement at run time, so a parent commit and a
change always see the same load.  The three metric tables are the single
source for ``BENCHMARK.json`` (``python benchmarks/e2e/spec.py`` prints
it; the self-test pins the committed file to this output), for the
README glossary and for ``compare.py``.

Two levels of end-to-end metric, because the benchmark contract makes
every workload print every gated metric:

* ``DRIVER_METRICS`` — four *role* metrics every workload has
  (set-up time, throughput, latency of one unit of service, peak RSS).
  These are ``BENCHMARK.json``'s ``end_to_end`` list; the driver bounds
  them on every workload.
* ``E2E_METRICS`` — the named metrics of the issue (``closed_qps``,
  ``time_to_target_s``, ``publish_to_served_ms`` ...), each with the
  workloads it exists on and its own bound.  ``compare.py`` gates these,
  and ``DRIVER_METRICS`` says which of them fills each role where.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: BLAS threads per process.  2 readers x 2 BLAS threads on 2 cores
#: would measure the OS scheduler, not the program.
BLAS_THREADS = "1"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: How long one measured run lasts (``BENCHMARK.json: run_seconds``).
RUN_SECONDS = 10

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Warm-up requests' duration before the first serving phase.
WARMUP_SECONDS = 1.0

#: Every N-th HTTP slate is kept and compared with brute force.
CHECK_EVERY = 50

#: ``ann_recall_at_10`` is taken over the first this-many kept slates
#: (positions 0, 50, ... 450 of the seeded user sequence), which every run
#: reaches, so it repeats exactly for a seed.
RECALL_SLATES = 10

#: ``req_p99_ms`` wants at least ten samples beyond the percentile.
P99_MIN_SAMPLES = 1040

WORKLOADS: Dict[str, str] = {
    "train_wall": (
        "real 2-process training on few large blocks: the SGD kernel does most of the work, "
        "so a kernel, dtype or data-plane change must show here"
    ),
    "train_sim_paper": (
        "the paper's 16 CPU + 1 GPU machine, simulated: ~350 small tasks per epoch, so scheduler "
        "and session code dominate host time and a kernel change should barely move it"
    ),
    "serve_frontdoor": (
        "small catalogue over HTTP, closed loop then open loop at 500 req/s: transport-bound, "
        "scoring is a small share of a request, so a front-door fix must show here"
    ),
    "serve_catalog": (
        "paper-size catalogue (17,770 items, k=128), exact closed loop, open loop at 250 req/s, then "
        "ANN closed loop: scorer-bound, so a front-door fix must show no change and a GEMM/ANN change must"
    ),
    "live_ingest": (
        "IngestSession publishes every 200 ms beside reads at 300 req/s, one forced retrain, then "
        "200 batches back to back: the publish and hot-swap path, where a read gain that makes swaps dearer shows"
    ),
}


# --------------------------------------------------------------------- #
# Sizing.  ``quick`` is the toy size of the self-test.
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TrainWallSize:
    n_rows: int = 40_000
    n_cols: int = 4_000
    n_ratings: int = 1_500_000
    latent_factors: int = 32
    learning_rate: float = 0.003
    test_fraction: float = 1.0 / 15.0
    cpu_threads: int = 2
    epochs_per_second: float = 2.0
    #: Midpoint between the reference run's epoch-5 (0.607-0.614) and
    #: epoch-6 (0.583-0.585) test RMSE, so the stopping epoch cannot
    #: flip between runs.
    target_rmse: float = 0.597
    #: Observed run-to-run spread of the RMSE at one epoch on one seed.
    rmse_run_spread: float = 0.001
    rmse_ceiling: float = 0.56


@dataclass(frozen=True)
class TrainSimSize:
    dataset: str = "netflix"
    epochs_per_second: float = 8.0
    rmse_ceiling: float = 0.72


@dataclass(frozen=True)
class ServeSize:
    n_users: int
    n_items: int
    latent_factors: int
    open_rate: float
    #: Shares of ``--seconds`` given to the closed, open and ANN phases.
    closed_share: float
    open_share: float
    ann_share: float = 0.0
    nlist: int = 64
    nprobe: int = 4


@dataclass(frozen=True)
class LiveIngestSize:
    base_rows: int = 20_000
    base_cols: int = 5_000
    new_rows: int = 6_000
    new_cols: int = 250
    n_ratings: int = 1_100_000
    latent_factors: int = 32
    learning_rate: float = 0.01
    train_iterations: int = 3
    retrain_iterations: int = 1
    batch_ratings: int = 2_000
    newcomer_share: float = 0.05
    window_size: int = 2_000
    batch_interval: float = 0.2
    read_rate: float = 300.0
    #: Phase A's share of ``--seconds``; the retrain is forced half-way.
    phase_a_share: float = 0.7
    phase_b_batches: int = 200
    rmse_ceiling: float = 0.8


SIZES = {
    "train_wall": TrainWallSize(),
    "train_sim_paper": TrainSimSize(),
    "serve_frontdoor": ServeSize(5_000, 2_000, 32, open_rate=500.0, closed_share=0.45, open_share=0.55),
    "serve_catalog": ServeSize(
        20_000, 17_770, 128, open_rate=250.0, closed_share=0.25, open_share=0.5, ann_share=0.25, nprobe=8
    ),
    "live_ingest": LiveIngestSize(),
}

QUICK_SIZES = {
    "train_wall": TrainWallSize(
        n_rows=2_000,
        n_cols=400,
        n_ratings=40_000,
        latent_factors=8,
        learning_rate=0.01,
        epochs_per_second=5.0,
        target_rmse=2.0,
        rmse_ceiling=2.0,
    ),
    "train_sim_paper": TrainSimSize(dataset="movielens", epochs_per_second=5.0, rmse_ceiling=0.8),
    "serve_frontdoor": ServeSize(500, 200, 8, open_rate=200.0, closed_share=0.4, open_share=0.6),
    "serve_catalog": ServeSize(
        1_000, 2_000, 16, open_rate=100.0, closed_share=0.3, open_share=0.4, ann_share=0.3, nlist=16, nprobe=8
    ),
    "live_ingest": LiveIngestSize(
        base_rows=2_000,
        base_cols=500,
        new_rows=600,
        new_cols=50,
        n_ratings=60_000,
        latent_factors=8,
        train_iterations=2,
        batch_ratings=400,
        window_size=400,
        read_rate=100.0,
        phase_b_batches=10,
        rmse_ceiling=3.0,
    ),
}


# --------------------------------------------------------------------- #
# Metric tables
# --------------------------------------------------------------------- #
TRAIN = ("train_wall", "train_sim_paper")
SERVE = ("serve_frontdoor", "serve_catalog")
REQUESTS = SERVE + ("live_ingest",)
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class E2EMetric:
    unit: str
    better: str
    bound: float
    workloads: Tuple[str, ...]
    definition: str
    #: ``"relative"``: worse by more than ``bound`` x base is a
    #: regression.  ``"absolute"``: worse by more than ``bound``.
    #: ``"exact"``: any change must be declared.
    kind: str = "relative"
    #: Workloads on which the metric repeats exactly (overrides kind).
    exact_on: Tuple[str, ...] = ()
    floor: Optional[float] = None


E2E_METRICS: Dict[str, E2EMetric] = {
    "setup_s": E2EMetric(
        "s",
        "lower",
        0.25,
        ALL,
        "import + median of the set-ups: generation, calibrate, base train, index build, server ready, warm-up",
    ),
    "time_to_target_s": E2EMetric(
        "s",
        "lower",
        0.1,
        TRAIN,
        "host wall from the fit() call to the epoch boundary whose test RMSE first <= target",
    ),
    "ratings_per_s": E2EMetric("ratings/s", "higher", 0.1, TRAIN, "epochs x train nnz / fit() wall"),
    "epoch_p50_ms": E2EMetric("ms", "lower", 0.1, TRAIN, "median gap between epoch-boundary callbacks"),
    "sim_time_to_target_s": E2EMetric(
        "sim_s",
        "lower",
        0.0,
        ("train_sim_paper",),
        "trace.time_to_rmse(target): the paper's headline quantity",
        kind="exact",
    ),
    "final_rmse": E2EMetric(
        "rmse",
        "lower",
        0.01,
        TRAIN + ("live_ingest",),
        "test RMSE after the last epoch; held-out window RMSE after the last batch",
        exact_on=("train_sim_paper",),
    ),
    "closed_qps": E2EMetric(
        "req/s",
        "higher",
        0.1,
        SERVE,
        "200-responses per second (median 0.25 s window), closed loop of nproc clients, exact tier",
    ),
    "req_p50_ms": E2EMetric(
        "ms",
        "lower",
        0.1,
        REQUESTS,
        "median latency from due time at the workload's fixed rate; non-200 counts as missing",
    ),
    "req_p99_ms": E2EMetric("ms", "lower", 0.2, REQUESTS, "99th percentile of the same samples"),
    "ann_closed_qps": E2EMetric("req/s", "higher", 0.1, ("serve_catalog",), "the same on the ANN tier (nprobe=8)"),
    "ann_recall_at_10": E2EMetric(
        "ratio",
        "higher",
        0.0,
        ("serve_catalog",),
        "overlap of sampled HTTP slates with brute force on the same model",
        kind="exact",
        floor=0.95,
    ),
    "ingest_ratings_per_s": E2EMetric(
        "ratings/s",
        "higher",
        0.1,
        ("live_ingest",),
        "phase B: ratings of one batch / median session.ingest() time",
    ),
    "publish_to_served_ms": E2EMetric(
        "ms",
        "lower",
        0.15,
        ("live_ingest",),
        "median over phase-A publishes: ingest() returned version v -> first response with model_version >= v",
    ),
    "failed_share": E2EMetric("ratio", "lower", 0.001, ALL, "failed / attempted operations", kind="absolute"),
    "peak_rss_mb": E2EMetric(
        "MB",
        "lower",
        0.1,
        ALL,
        "high-water RSS: VmHWM summed over the server tree; ru_maxrss self + children for training",
    ),
}

#: ``BENCHMARK.json: end_to_end`` — role metric -> (unit, better, bound,
#: which named metric fills the role on each workload).  The bounds are
#: the widest the contract allows: this 2-core shared box drifts by 10%
#: over minutes and drops to ~55% speed for seconds at a time (README,
#: "Run-to-run spread"), and a driver gate tighter than the box's own
#: noise rejects changes at random.  ``compare.py`` keeps the issue's
#: bounds and says "unresolved" where the spread is wider.
DRIVER_METRICS: Dict[str, Tuple[str, str, float, Dict[str, str]]] = {
    "setup_s": ("s", "lower", 0.25, {w: "setup_s" for w in ALL}),
    "throughput": (
        "1/s",
        "higher",
        0.25,
        {
            "train_wall": "ratings_per_s",
            "train_sim_paper": "ratings_per_s",
            "serve_frontdoor": "closed_qps",
            "serve_catalog": "closed_qps",
            "live_ingest": "ingest_ratings_per_s",
        },
    ),
    "latency_p50_ms": (
        "ms",
        "lower",
        0.25,
        {
            "train_wall": "epoch_p50_ms",
            "train_sim_paper": "epoch_p50_ms",
            "serve_frontdoor": "req_p50_ms",
            "serve_catalog": "req_p50_ms",
            "live_ingest": "req_p50_ms",
        },
    ),
    # 0.15, not the named metric's 0.10: on ``live_ingest`` the readers' RSS
    # counts every segment still mapped while swaps race publishes, and its
    # spread over 10 seeds (0.036) was above a third of 0.10.
    "peak_rss_mb": ("MB", "lower", 0.15, {w: "peak_rss_mb" for w in ALL}),
}


@dataclass(frozen=True)
class LayerMetric:
    unit: str
    better: str
    #: The named end-to-end metric this layer metric should move.
    moves: str
    #: The workloads it is measured on (0 elsewhere).
    on: Tuple[str, ...]
    how: str


def _layer(unit, better, moves, on, how):
    return LayerMetric(unit, better, moves, on if isinstance(on, tuple) else (on,), how)


LAYER_METRICS: Dict[str, LayerMetric] = {
    "datasets.generate_s": _layer(
        "s",
        "lower",
        "setup_s",
        TRAIN + ("live_ingest",),
        "generate_synthetic_matrix / load_dataset",
    ),
    "costmodel.calibrate_s": _layer("s", "lower", "setup_s", "train_sim_paper", "trainer.calibrate"),
    "costmodel.alpha": _layer("ratio", "higher", "sim_time_to_target_s", "train_sim_paper", "result.alpha (exact)"),
    "core.grid_build_s": _layer("s", "lower", "time_to_target_s", TRAIN, "build_grid on the resolved split"),
    "core.n_blocks": _layer("count", "lower", "time_to_target_s", TRAIN, "grid.n_blocks"),
    "sparse.blockstore_build_s": _layer(
        "s",
        "lower",
        "time_to_target_s",
        TRAIN,
        "BlockStore(train) + block_data over the grid",
    ),
    "sparse.append_ms": _layer(
        "ms",
        "lower",
        "ingest_ratings_per_s",
        "live_ingest",
        "SparseRatingMatrix.append of one batch",
    ),
    "sgd.kernel_epoch_s": _layer(
        "s",
        "lower",
        "ratings_per_s",
        TRAIN,
        "one epoch of sgd_block_minibatch_local replayed over the run's own blocks",
    ),
    "sgd.kernel_share": _layer(
        "ratio",
        "higher",
        "ratings_per_s",
        TRAIN,
        "kernel_epoch_s / (workers x exec.epoch_p50_s)",
    ),
    "metrics.rmse_eval_ms": _layer("ms", "lower", "time_to_target_s", TRAIN, "rmse(model, test)"),
    "exec.epoch_p50_s": _layer("s", "lower", "ratings_per_s", TRAIN, "callback timestamps"),
    "exec.epoch_max_s": _layer("s", "lower", "ratings_per_s", TRAIN, "callback timestamps"),
    "exec.pool_start_s": _layer("s", "lower", "time_to_target_s", "train_wall", "fit() wall - result.engine_time"),
    "exec.worker_busy_share": _layer(
        "ratio",
        "higher",
        "ratings_per_s",
        "train_wall",
        "sum of task durations / (workers x engine time)",
    ),
    "exec.tasks": _layer("count", "lower", "ratings_per_s", TRAIN, "len(result.trace.tasks)"),
    "exec.serial_ratings_per_s": _layer(
        "ratings/s",
        "higher",
        "ratings_per_s",
        "train_wall",
        "same task, 1 worker, simulate backend: the plain single-worker baseline",
    ),
    "exec.scaling_efficiency": _layer(
        "ratio",
        "higher",
        "ratings_per_s",
        "train_wall",
        "ratings_per_s / (workers x serial_ratings_per_s)",
    ),
    "exec.threads_ratings_per_s": _layer(
        "ratings/s",
        "higher",
        "ratings_per_s",
        "train_wall",
        "2 epochs on backend='threads' (diagnostic: GIL-releasing kernel item)",
    ),
    "sim.tasks_per_s": _layer("1/s", "higher", "ratings_per_s", "train_sim_paper", "tasks / fit() wall"),
    "sim.overhead_us_per_task": _layer(
        "us",
        "lower",
        "ratings_per_s",
        "train_sim_paper",
        "(fit() wall - kernel replay - RMSE evals) / tasks",
    ),
    "sim.utilization": _layer(
        "ratio",
        "higher",
        "sim_time_to_target_s",
        "train_sim_paper",
        "trace.utilization (exact)",
    ),
    "sim.stolen_tasks": _layer(
        "count",
        "higher",
        "sim_time_to_target_s",
        "train_sim_paper",
        "trace.stolen_task_count (exact)",
    ),
    "sim.gpu_share": _layer(
        "ratio",
        "higher",
        "sim_time_to_target_s",
        "train_sim_paper",
        "trace.resource_share (exact)",
    ),
    "core.sim_speedup_vs_hsgd": _layer(
        "ratio",
        "higher",
        "sim_time_to_target_s",
        "train_sim_paper",
        "simulated time to target of algorithm='hsgd' / that of hsgd_star (exact)",
    ),
    "service.protocol.parse_us": _layer(
        "us",
        "lower",
        "req_p50_ms",
        REQUESTS,
        "read_request on an in-memory StreamReader",
    ),
    "service.protocol.render_us": _layer("us", "lower", "req_p50_ms", REQUESTS, "render_response of a k=10 payload"),
    "service.routing.route_us": _layer("us", "lower", "req_p50_ms", REQUESTS, "HashRing.route"),
    "service.eventloop_cpu_ms_per_req": _layer(
        "ms",
        "lower",
        "closed_qps",
        REQUESTS,
        "/proc/<pid>/stat of the event-loop process over the closed (live_ingest: read) phase / requests",
    ),
    "service.reader_cpu_ms_per_req": _layer(
        "ms",
        "lower",
        "closed_qps",
        REQUESTS,
        "/proc/<pid>/stat of the reader processes over the same phase / requests",
    ),
    "serve.scorer.batch1_us": _layer(
        "us",
        "lower",
        "req_p50_ms",
        SERVE,
        "Scorer.top_k for 1 user on the workload's model",
    ),
    "serve.scorer.users_per_s": _layer("1/s", "higher", "closed_qps", SERVE, "Scorer.top_k for 64 users"),
    "serve.service.direct_users_per_s": _layer(
        "1/s",
        "higher",
        "closed_qps",
        SERVE,
        "in-process RecommendationService.recommend, one user at a time",
    ),
    "service.frontdoor_efficiency": _layer("ratio", "higher", "closed_qps", SERVE, "closed_qps / direct_users_per_s"),
    "service.residual_ms": _layer(
        "ms",
        "lower",
        "req_p50_ms",
        SERVE,
        "req_p50_ms - (parse + route + batch-1 score + render): pipe + event loop + sockets",
    ),
    "service.stats.mean_batch": _layer(
        "count",
        "higher",
        "closed_qps",
        REQUESTS,
        "/stats: users_scored / batches_scored over the closed (read) phase",
    ),
    "service.stats.max_in_flight": _layer("count", "lower", "req_p99_ms", REQUESTS, "/stats"),
    "service.rejected_share": _layer(
        "ratio",
        "lower",
        "failed_share",
        REQUESTS,
        "/stats: rejected_overload / requests",
    ),
    "service.expired_share": _layer("ratio", "lower", "failed_share", REQUESTS, "/stats: expired_deadline / requests"),
    "loadgen.late_p99_ms": _layer("ms", "lower", "req_p99_ms", REQUESTS, "send - due in the open-loop phase"),
    "loadgen.cpu_share": _layer(
        "ratio",
        "lower",
        "req_p99_ms",
        REQUESTS,
        "generator CPU / wall, worst phase (run flagged above 0.8)",
    ),
    "loadgen.p95_ms": _layer("ms", "lower", "req_p99_ms", REQUESTS, "same samples as req_p99_ms"),
    "loadgen.p999_ms": _layer("ms", "lower", "req_p99_ms", REQUESTS, "same samples as req_p99_ms"),
    "serve.ann.build_s": _layer("s", "lower", "setup_s", "serve_catalog", "IvfIndex.build"),
    "serve.ann.batch1_us": _layer("us", "lower", "ann_closed_qps", "serve_catalog", "AnnScorer.top_k for 1 user"),
    "serve.ann.users_per_s": _layer("1/s", "higher", "ann_closed_qps", "serve_catalog", "AnnScorer.top_k for 64 users"),
    "serve.store.publish_ms": _layer(
        "ms",
        "lower",
        "publish_to_served_ms",
        REQUESTS,
        "ModelStore.publish of the workload's model",
    ),
    "serve.store.attach_ms": _layer(
        "ms",
        "lower",
        "publish_to_served_ms",
        REQUESTS,
        "attach_model of the published handle",
    ),
    "serve.store.segment_mb": _layer("MB", "lower", "peak_rss_mb", REQUESTS, "handle.total_nbytes"),
    "stream.ingest_batch_p50_ms": _layer(
        "ms",
        "lower",
        "ingest_ratings_per_s",
        "live_ingest",
        "per session.ingest() call, phase B",
    ),
    "stream.ingest_batch_p99_ms": _layer(
        "ms",
        "lower",
        "publish_to_served_ms",
        "live_ingest",
        "per session.ingest() call, phase B",
    ),
    "sgd.foldin.users_per_s": _layer(
        "1/s",
        "higher",
        "ingest_ratings_per_s",
        "live_ingest",
        "FactorModel.fold_in_users at the batch's newcomer shape",
    ),
    "stream.drift_eval_ms": _layer(
        "ms",
        "lower",
        "ingest_ratings_per_s",
        "live_ingest",
        "DriftMonitor.evaluate on the window",
    ),
    "stream.retrain_s": _layer("s", "lower", "req_p99_ms", "live_ingest", "the forced session.retrain()"),
    "stream.retrain_req_p99_ms": _layer(
        "ms",
        "lower",
        "req_p99_ms",
        "live_ingest",
        "read p99 over exactly the retrain interval",
    ),
    "stream.publishes": _layer("count", "higher", "publish_to_served_ms", "live_ingest", "IngestStats.publishes"),
    "stream.folded_users": _layer("count", "higher", "publish_to_served_ms", "live_ingest", "IngestStats.folded_users"),
    "stream.folded_items": _layer("count", "higher", "publish_to_served_ms", "live_ingest", "IngestStats.folded_items"),
    "service.stats.model_swaps": _layer(
        "count",
        "higher",
        "publish_to_served_ms",
        "live_ingest",
        "/stats: server.model_swaps",
    ),
    "service.stats.reload_failures": _layer(
        "count",
        "lower",
        "failed_share",
        "live_ingest",
        "/stats: readers' reload_failures (must be 0)",
    ),
    "service.stats.reader_deaths": _layer(
        "count",
        "lower",
        "failed_share",
        "live_ingest",
        "/stats: server.reader_deaths (a swap racing the next publish kills the reader)",
    ),
    "service.swap_visible_max_ms": _layer(
        "ms",
        "lower",
        "publish_to_served_ms",
        "live_ingest",
        "worst publish -> served",
    ),
    "shm.segments_leaked": _layer(
        "count",
        "lower",
        "failed_share",
        ALL,
        "live_segment_names() after teardown (must be 0)",
    ),
    "trace.attribution_error": _layer(
        "ratio",
        "lower",
        "failed_share",
        ALL,
        "abs(sum of layer self-times - wall) / wall over the measured run",
    ),
    "trace.overhead_share": _layer(
        "ratio",
        "lower",
        "failed_share",
        ALL,
        "1 - traced / untraced throughput role metric",
    ),
}


def benchmark_json() -> dict:
    """The contract file, generated from the tables above."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _) in DRIVER_METRICS.items()
        ],
        "per_layer": [
            {"name": name, "unit": metric.unit, "better": metric.better} for name, metric in LAYER_METRICS.items()
        ],
    }


if __name__ == "__main__":
    json.dump(benchmark_json(), sys.stdout, indent=2)
    sys.stdout.write("\n")
