"""Worker-count scaling of the execution backends, and the block-major
data plane vs the legacy gather-per-task path.

Two benchmarks run on the Netflix-sized synthetic dataset:

* ``test_backend_scaling_curve`` — wall-clock ratings/s of the
  ``simulate`` (serial), ``threads`` (GIL-bound) and ``processes``
  (shared-memory, multicore) backends for worker counts in
  ``REPRO_BENCH_WORKERS`` (default ``1,2,4``), written to
  ``BENCH_exec.json`` (override the path with ``REPRO_BENCH_OUT`` — CI's
  regression guard writes a fresh file and compares it against the
  committed baseline with ``check_perf_regression.py``).  The
  acceptance target — processes >= 2x the serial simulator's ratings/s at
  4 workers — is asserted only when the machine actually has >= 4 usable
  cores; the JSON records the core count either way so a
  hardware-limited run is never mistaken for a scaling regression.
* ``test_kernel_data_plane_throughput`` — epoch throughput of the
  pre-PR-2 path (``kernel="minibatch"`` + per-task gather/validate) vs
  the block-major path (``kernel="minibatch_local"`` +
  :class:`repro.sparse.BlockStore`) vs the compiled ``kernel="native"``
  (where it loads) for the simulate and threads engines, plus per-stage
  timings (gather vs validate vs each kernel vs RMSE eval).  Results are
  written to ``BENCH_kernels.json``; the first two paths are
  bitwise-identical, so that speedup is pure data-plane overhead
  removed, and the ``native_*`` figures are the same run's before/after
  row for the compiled kernel (``native_speedup`` is over the numpy
  block-major path; on ``threads`` it also counts the released GIL).
"""

import json
import os
import time

from conftest import emit

from repro.config import HardwareConfig
from repro.core import HeterogeneousTrainer, factorize
from repro.datasets import load_dataset
from repro.hardware import machine_fingerprint
from repro.sgd import native_status

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(_ROOT, "BENCH_kernels.json")
BENCH_EXEC_JSON = os.environ.get(
    "REPRO_BENCH_OUT", os.path.join(_ROOT, "BENCH_exec.json")
)

#: Worker counts of the scaling curve (CI trims this to "2" for speed).
SCALING_WORKERS = tuple(
    int(w) for w in os.environ.get("REPRO_BENCH_WORKERS", "1,2,4").split(",")
)

#: The acceptance bar of the process backend: ratings/s multiple over the
#: serial simulator at 4 workers, on a machine with >= 4 usable cores.
TARGET_SPEEDUP_AT_4 = 2.0

#: Threads previously delivered 0.83x at 4 workers (negative scaling);
#: the process backend must at least never be beaten by threads when the
#: cores exist to scale on.
SCALING_BACKENDS = ("simulate", "threads", "processes")


def _iterations(profile: str) -> int:
    return {"quick": 2, "full": 10}.get(profile, 5)


def _run(data, training, backend: str, kernel=None, use_block_store=True,
         calibrated_trainer=None):
    trainer = calibrated_trainer or HeterogeneousTrainer(
        algorithm="hsgd_star",
        hardware=HardwareConfig(cpu_threads=4, gpu_count=1),
        training=training,
        seed=0,
    )
    start = time.perf_counter()
    result = trainer.fit(
        data.train, data.test, iterations=training.iterations, backend=backend,
        kernel=kernel, use_block_store=use_block_store,
    )
    wall = time.perf_counter() - start
    return result, wall


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _scaling_run(data, training, backend: str, workers: int):
    """One timed fit: uniform-division HSGD, CPU workers only.

    The CPU-only greedy configuration needs no cost-model calibration,
    so the measured time is pure execution — the quantity the backends
    compete on.  Returns ``(result, total_wall, engine_wall)``:
    ``engine_wall`` is the pool's own clock (launch to last task
    completion) for the real backends, which excludes the one-time
    fork/shared-memory setup so quick CI runs and long baseline runs
    measure the same steady-state throughput; the simulator executes
    inline and its wall time is its engine time.
    """
    start = time.perf_counter()
    result = factorize(
        data.train,
        data.test,
        algorithm="hsgd",
        hardware=HardwareConfig(cpu_threads=workers, gpu_count=0),
        training=training,
        iterations=training.iterations,
        backend=backend,
        seed=0,
    )
    wall = time.perf_counter() - start
    assert len(result.trace.iterations) == training.iterations
    engine_wall = wall if backend == "simulate" else max(result.engine_time, 1e-9)
    return result, wall, engine_wall


def test_backend_scaling_curve(bench_profile):
    """Ratings/s of every backend at each worker count -> BENCH_exec.json."""
    data = load_dataset("netflix", seed=0)
    iterations = _iterations(bench_profile)
    training = data.spec.recommended_training(iterations=iterations, seed=0)
    cores = _usable_cores()

    rows = [
        f"{'workers':>7} {'backend':<10} {'wall s':>9} {'ratings/s':>12} "
        f"{'vs serial':>9}"
    ]
    scaling = []
    serial_tp = None
    for workers in SCALING_WORKERS:
        entry = {"workers": workers}
        for backend in SCALING_BACKENDS:
            result, wall, engine_wall = _scaling_run(
                data, training, backend, workers
            )
            tp = result.trace.total_points() / engine_wall
            entry[backend] = {
                "wall_s": round(wall, 4),
                "engine_wall_s": round(engine_wall, 4),
                "setup_s": round(wall - engine_wall, 4),
                "ratings_per_s": round(tp),
                "final_test_rmse": round(result.final_test_rmse, 4),
            }
            if backend == "simulate":
                # The simulator executes kernels serially regardless of
                # the scheduled worker count: its ratings/s IS the
                # serial baseline (measured per worker count, reported
                # against the 1-worker figure).
                if serial_tp is None:
                    serial_tp = tp
            speedup = tp / serial_tp
            entry[backend]["speedup_vs_serial"] = round(speedup, 3)
            rows.append(
                f"{workers:>7} {backend:<10} {wall:>9.3f} {tp:>12.0f} "
                f"{speedup:>8.2f}x"
            )
        scaling.append(entry)

    by_workers = {entry["workers"]: entry for entry in scaling}
    acceptance = {
        "target": (
            f"processes >= {TARGET_SPEEDUP_AT_4}x serial-simulator ratings/s "
            "at 4 workers"
        ),
        "usable_cores": cores,
        "hardware_limited": cores < 4,
    }
    if 4 in by_workers:
        acceptance["processes_speedup_at_4"] = by_workers[4]["processes"][
            "speedup_vs_serial"
        ]
        acceptance["threads_speedup_at_4"] = by_workers[4]["threads"][
            "speedup_vs_serial"
        ]
        acceptance["met"] = (
            acceptance["processes_speedup_at_4"] >= TARGET_SPEEDUP_AT_4
        )

    payload = {
        "dataset": "netflix",
        "train_nnz": int(data.train.nnz),
        "iterations": iterations,
        "profile": bench_profile,
        "hardware": {
            "cpu_count": os.cpu_count(),
            "usable_cores": cores,
        },
        "serial_baseline_ratings_per_s": round(serial_tp),
        "scaling": scaling,
        "acceptance": acceptance,
    }
    with open(BENCH_EXEC_JSON, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    emit(
        f"Backend scaling, netflix ({data.train.nnz} ratings, {iterations} "
        f"iterations, {cores} usable cores) -> {BENCH_EXEC_JSON}",
        "\n".join(rows),
    )

    # Quality parity: every backend trains the same model family to the
    # same ballpark; the schedulers only change interleaving.
    for entry in scaling:
        rmses = [entry[b]["final_test_rmse"] for b in SCALING_BACKENDS]
        assert max(rmses) - min(rmses) < 0.05

    # The acceptance gate is a *hardware* claim, so it only binds where
    # the hardware exists: with >= 4 usable cores, 4 process workers must
    # beat the serial simulator by the target factor (threads cannot —
    # that is the point of the backend).
    if cores >= 4 and 4 in by_workers:
        assert acceptance["met"], (
            "process backend failed the scaling acceptance: "
            f"{acceptance['processes_speedup_at_4']}x < "
            f"{TARGET_SPEEDUP_AT_4}x at 4 workers on {cores} cores"
        )


def _stage_timings(data, training):
    """Per-stage costs of one epoch: the legacy path's gather + validate,
    both kernels on pre-gathered data, and the RMSE evaluation."""
    from repro.core.partition import nonuniform_partition
    from repro.sgd import (
        FactorModel,
        rmse,
        sgd_block_minibatch,
        sgd_block_minibatch_local,
        sgd_block_native,
    )
    from repro.sparse import BlockStore

    train = data.train
    grid = nonuniform_partition(train, alpha=0.3, n_cpu_threads=4, n_gpus=1)
    blocks = [b for row in grid.blocks for b in row if b.nnz > 0]
    model = FactorModel.for_matrix(train, training)
    rate = training.learning_rate

    start = time.perf_counter()
    gathered = [
        (train.rows[b.indices], train.cols[b.indices], train.vals[b.indices])
        for b in blocks
    ]
    gather_s = time.perf_counter() - start

    start = time.perf_counter()
    for rows, cols, _ in gathered:
        rows.max(), rows.min(), cols.max(), cols.min()
    validate_s = time.perf_counter() - start

    start = time.perf_counter()
    for rows, cols, vals in gathered:
        sgd_block_minibatch(
            model.p, model.q, rows, cols, vals, rate,
            training.reg_p, training.reg_q, validate=False,
        )
    kernel_minibatch_s = time.perf_counter() - start

    store = BlockStore(train)
    records = [store.block_data(b) for b in blocks]

    def band_local_epoch_s(kernel):
        start = time.perf_counter()
        for rec in records:
            kernel(
                model.p, model.q, rec.local_rows, rec.local_cols, rec.vals,
                rate, training.reg_p, training.reg_q,
                rec.row_range, rec.col_range, validate=False,
            )
        return time.perf_counter() - start

    kernel_local_s = band_local_epoch_s(sgd_block_minibatch_local)
    kernel_native_s = (
        band_local_epoch_s(sgd_block_native) if native_status()[0] else None
    )

    start = time.perf_counter()
    rmse(model, data.test)
    eval_s = time.perf_counter() - start

    return {
        "gather_ms": round(1e3 * gather_s, 3),
        "validate_ms": round(1e3 * validate_s, 3),
        "kernel_minibatch_ms": round(1e3 * kernel_minibatch_s, 3),
        "kernel_minibatch_local_ms": round(1e3 * kernel_local_s, 3),
        "kernel_native_ms": (
            None if kernel_native_s is None else round(1e3 * kernel_native_s, 3)
        ),
        "rmse_eval_ms": round(1e3 * eval_s, 3),
        "n_blocks": len(blocks),
        "train_nnz": int(train.nnz),
    }


def test_kernel_data_plane_throughput(bench_profile):
    """Old (gather-per-task + minibatch) vs new (BlockStore + local kernel)
    epoch throughput, both engines; writes BENCH_kernels.json."""
    data = load_dataset("netflix", seed=0)
    iterations = _iterations(bench_profile)
    training = data.spec.recommended_training(iterations=iterations, seed=0)

    def calibrated():
        trainer = HeterogeneousTrainer(
            algorithm="hsgd_star",
            hardware=HardwareConfig(cpu_threads=4, gpu_count=1),
            training=training,
            seed=0,
        )
        trainer.calibrate(data.train)  # keep the offline phase out of timing
        return trainer

    native_ok, native_reason = native_status()
    engines = {}
    rows = [
        f"{'engine':<10} {'path':<12} {'wall s':>9} {'ratings/s':>12} "
        f"{'speedup':>8}",
    ]
    for backend in ("simulate", "threads"):
        legacy_result, legacy_wall = _run(
            data, training, backend, kernel="minibatch", use_block_store=False,
            calibrated_trainer=calibrated(),
        )
        block_result, block_wall = _run(
            data, training, backend, kernel="minibatch_local",
            calibrated_trainer=calibrated(),
        )
        legacy_tp = legacy_result.trace.total_points() / legacy_wall
        block_tp = block_result.trace.total_points() / block_wall
        speedup = block_tp / legacy_tp
        engines[backend] = {
            "legacy_wall_s": round(legacy_wall, 4),
            "legacy_ratings_per_s": round(legacy_tp),
            "block_major_wall_s": round(block_wall, 4),
            "block_major_ratings_per_s": round(block_tp),
            "speedup": round(speedup, 3),
        }
        rows.append(
            f"{backend:<10} {'legacy':<12} {legacy_wall:>9.3f} "
            f"{legacy_tp:>12.0f} {'1.00x':>8}"
        )
        rows.append(
            f"{backend:<10} {'block-major':<12} {block_wall:>9.3f} "
            f"{block_tp:>12.0f} {speedup:>7.2f}x"
        )
        # Bitwise identity is enforced by the test suite; here we only
        # require the data plane not to regress throughput.
        assert speedup > 1.0, f"{backend}: block-major path slower than legacy"
        if native_ok:
            native_result, native_wall = _run(
                data, training, backend, kernel="native",
                calibrated_trainer=calibrated(),
            )
            native_tp = native_result.trace.total_points() / native_wall
            engines[backend].update(
                {
                    "native_wall_s": round(native_wall, 4),
                    "native_ratings_per_s": round(native_tp),
                    "native_speedup": round(native_tp / block_tp, 3),
                }
            )
            rows.append(
                f"{backend:<10} {'native':<12} {native_wall:>9.3f} "
                f"{native_tp:>12.0f} {native_tp / legacy_tp:>7.2f}x"
            )

    stages = _stage_timings(data, training)
    payload = {
        "dataset": "netflix",
        "iterations": iterations,
        "profile": bench_profile,
        "train_nnz": stages["train_nnz"],
        # The machine the numbers were measured on; the *scheduled* shape
        # (4 CPU workers + 1 GPU worker of hsgd_star) is a workload fact.
        "hardware": machine_fingerprint(),
        "scheduled_workers": {"cpu_threads": 4, "gpu_count": 1},
        "native_unavailable": None if native_ok else native_reason,
        "engines": engines,
        "stages_per_epoch": stages,
    }
    with open(BENCH_JSON, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    rows.append("")
    rows.append(
        "per-epoch stages (ms): "
        + ", ".join(
            f"{key.removesuffix('_ms')}={value}"
            for key, value in stages.items()
            if key.endswith("_ms")
        )
    )
    emit(
        f"Kernel data plane, netflix ({stages['train_nnz']} ratings, "
        f"{iterations} iterations) -> {BENCH_JSON}",
        "\n".join(rows),
    )
