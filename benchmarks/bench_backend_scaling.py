"""Worker-count scaling of the execution backends.

``test_backend_scaling_curve`` runs on the Netflix-sized synthetic
dataset and measures the wall-clock ratings/s of the ``simulate``
(serial), ``threads`` (GIL-bound) and ``processes`` (shared-memory,
multicore) backends for worker counts in ``REPRO_BENCH_WORKERS``
(default ``1,2,4``), written to ``BENCH_exec.json`` (override the path
with ``REPRO_BENCH_OUT`` — CI's regression guard writes a fresh file and
compares it against the committed baseline with
``check_perf_regression.py``).  The acceptance target — processes >= 2x
the serial simulator's ratings/s at 4 workers — is asserted only when
the machine actually has >= 4 usable cores; the JSON records the core
count either way so a hardware-limited run is never mistaken for a
scaling regression.
"""

import json
import os
import time

from conftest import emit

from repro.config import HardwareConfig
from repro.core import factorize
from repro.datasets import load_dataset

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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

