"""The repo's end-to-end benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py --seed S [--workload W] [--seconds N] [--trace [0|1]] [--quick] [--out FILE]

Generates each workload's inputs from the seed, runs it against the
program's public API, checks the outputs, and prints every metric by
name with its unit.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
metrics are ``BENCHMARK.json``'s ``end_to_end`` list, with ``--trace 1``
its ``per_layer`` list.

``--trace 1`` runs the workload twice: an untraced pass, which alone
supplies end-to-end metrics, then a traced pass that records spans
around calls into each layer, runs the per-layer probes and writes
``out/trace-<workload>.jsonl``; the difference between the two passes is
``trace.overhead_share``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

_STARTED = time.perf_counter()

import spec  # noqa: E402  (stdlib only; safe before the checks below)

_SUPERVISED = "REPRO_E2E_SUPERVISED"
#: Seconds the descendants of a finished benchmark get to end by themselves.
_REAP_GRACE_S = 10.0


def supervise(argv: list) -> int:
    """Run the benchmark as a child and return only once its whole tree has ended.

    The program's shared memory starts a ``multiprocessing`` resource
    tracker in every process that creates a segment (this one, the server
    driver); a tracker ends only *after* its parent has, so the benchmark
    process alone cannot wait for it.  This thin parent can: as the child
    subreaper it inherits every orphan of the tree and waits for each one,
    on every path out of the benchmark, and kills what outlives the grace.
    """
    import ctypes
    import signal

    pr_set_child_subreaper = 36
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv],
        env={**os.environ, _SUPERVISED: "1"},
        start_new_session=True,
    )

    def forward(signum, _frame):
        # The session is the tree: the driver's signal reaches all of it.
        try:
            os.killpg(child.pid, signum)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    code = None
    deadline = None
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG if deadline is not None else 0)
        except ChildProcessError:
            break  # nothing of the tree is left
        if pid == child.pid:
            code = os.waitstatus_to_exitcode(status)
            deadline = time.monotonic() + _REAP_GRACE_S
        elif pid == 0:
            if time.monotonic() > deadline:
                forward(signal.SIGKILL, None)
                deadline = float("inf")
            time.sleep(0.005)
    return code if code is not None and code >= 0 else 1


if __name__ == "__main__" and not os.environ.get(_SUPERVISED):
    sys.exit(supervise(sys.argv[1:]))

if not os.path.isdir(os.path.join(spec.SRC_DIR, "repro")):
    sys.exit(f"run.py: no program to measure: {spec.SRC_DIR}/repro is missing")
for _name in spec.BLAS_ENV:
    os.environ[_name] = spec.BLAS_THREADS
# The program journals its shared-memory segments per pid; keep that inside the checkout.
os.environ.setdefault("REPRO_RUNTIME_DIR", os.path.join(spec.OUT_DIR, "runtime"))
sys.path.insert(0, spec.SRC_DIR)

from repro.hardware.fingerprint import machine_fingerprint, usable_cores  # noqa: E402

from serve_workloads import LiveIngest, Serving  # noqa: E402
from tracing import Tracer, attribution_error  # noqa: E402
from train_workloads import TrainSimPaper, TrainWall  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED


def make_workload(name: str, seed: int, quick: bool, seconds: float):
    if name == "train_wall":
        return TrainWall(seed, quick, seconds)
    if name == "train_sim_paper":
        return TrainSimPaper(seed, quick, seconds)
    if name == "live_ingest":
        return LiveIngest(seed, quick, seconds)
    return Serving(name, seed, quick, seconds)


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_pass(name: str, seed: int, seconds: float, quick: bool, traced: bool) -> dict:
    """Set up (several times), run once, tear down; one pass's full record."""
    tracer = Tracer(traced, name)
    off = Tracer(False)
    repeats = 1 if quick else spec.SETUP_REPEATS
    setup_times, setup_steps = [], []
    workload = None
    leaked = 0
    try:
        for repeat in range(repeats):
            if workload is not None:
                leaked += workload.teardown()
            workload = make_workload(name, seed, quick, seconds)
            # Only the set-up the run then uses is traced.
            active = tracer if repeat == repeats - 1 else off
            started = time.perf_counter()
            with active.span("setup"):
                setup_steps.append(workload.setup(active))
            setup_times.append(time.perf_counter() - started)
        with tracer.span("run"):
            outcome = workload.run(tracer)
        layers = workload.layers(tracer, outcome) if traced else {}
    finally:
        # Reaps the server tree whatever happened above.
        if workload is not None:
            leaked += workload.teardown()
    if traced:
        layers["shm.segments_leaked"] = leaked
        layers["trace.attribution_error"] = attribution_error(tracer.spans, "run")
        os.makedirs(spec.OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(spec.OUT_DIR, f"trace-{name}.jsonl"))
    e2e = dict(outcome.e2e)
    e2e["setup_s"] = IMPORT_S + statistics.median(setup_times)
    e2e["failed_share"] = outcome.failed / outcome.attempted
    checks = dict(outcome.checks)
    checks["no_segments_leaked"] = leaked == 0
    checks["metrics_finite"] = all(math.isfinite(value) for value in e2e.values())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "traced": traced,
        "e2e": e2e,
        "layers": layers,
        "checks": checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "correct": all(checks.values()),
        "setup_times_s": setup_times,
        "setup_steps": setup_steps,
        "detail": outcome.detail,
    }


def run_workload(name: str, seed: int, seconds: float, quick: bool, trace: bool) -> list:
    """The untraced pass and, with ``trace``, the traced pass after it."""
    timed = run_pass(name, seed, seconds, quick, traced=False)
    passes = [timed]
    if trace:
        traced = run_pass(name, seed, seconds, quick, traced=True)
        # Set-up steps are layer metrics; the slowest repeat of either pass
        # is the uncached one, the cost a user pays once per process.
        steps = timed["setup_steps"] + traced["setup_steps"]
        for step in steps[0]:
            traced["layers"][step] = max(repeat[step] for repeat in steps)
        role = spec.DRIVER_METRICS["throughput"][3][name]
        traced["layers"]["trace.overhead_share"] = 1.0 - traced["e2e"][role] / timed["e2e"][role]
        if "exact" in timed["detail"]:
            traced["checks"]["exact_repeat"] = timed["detail"]["exact"] == traced["detail"]["exact"]
            traced["correct"] = traced["correct"] and traced["checks"]["exact_repeat"]
        passes.append(traced)
    return passes


def finite(value: float) -> float:
    return float(value) if math.isfinite(value) else 0.0


def contract_line(passes: list, trace: bool) -> dict:
    """The one JSON object the driver reads."""
    name = passes[0]["workload"]
    if trace:
        layers = passes[-1]["layers"]
        metrics = {
            metric: {"value": finite(layers.get(metric, 0.0)), "unit": row.unit}
            for metric, row in spec.LAYER_METRICS.items()
        }
    else:
        e2e = passes[0]["e2e"]
        metrics = {
            metric: {"value": finite(e2e[named[name]]), "unit": unit}
            for metric, (unit, _, _, named) in spec.DRIVER_METRICS.items()
        }
    return {
        "correct": all(record["correct"] for record in passes),
        "attempted": sum(record["attempted"] for record in passes),
        "failed": sum(record["failed"] for record in passes),
        "metrics": metrics,
    }


def print_pass(record: dict) -> None:
    name = record["workload"]
    kind = "traced" if record["traced"] else "timed"
    print(f"== {name} seed={record['seed']} seconds={record['seconds']:g} ({kind} pass) ==")
    if not record["traced"]:
        for metric, value in record["e2e"].items():
            row = spec.E2E_METRICS[metric]
            print(f"  {metric:<28} {value:>14.6g} {row.unit}")
        for role, (unit, _, _, named) in spec.DRIVER_METRICS.items():
            print(f"  [{role} = {named[name]}]")
    for metric, value in record["layers"].items():
        print(f"  {metric:<36} {value:>14.6g} {spec.LAYER_METRICS[metric].unit}")
    for phase, counts in record["detail"].get("phases", {}).items():
        keys = ("sent", "ok", "rejected_503", "expired_504", "errors", "samples")
        shown = " ".join(f"{key}={counts[key]:g}" for key in keys)
        print(f"  phase {phase}: {shown} p50_ms={counts['p50_ms']:.3f} cpu_share={counts['cpu_share']:.2f}")
    failed = [check for check, passed in record["checks"].items() if not passed]
    print(f"  attempted={record['attempted']} failed={record['failed']} checks_failed={failed or 'none'}")


def append_results(path: str, passes: list) -> None:
    meta = {
        "fingerprint": machine_fingerprint(),
        "nproc": usable_cores(),
        "blas_threads": spec.BLAS_THREADS,
        "git_commit": git_commit(),
    }
    runs = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as stream:
            runs = json.load(stream)["runs"]
    runs.extend({**record, "meta": meta} for record in passes)
    with open(path, "w", encoding="utf-8") as stream:
        # One run per line: the file diffs and greps by run.
        stream.write('{"runs": [\n' + ",\n".join(json.dumps(run) for run in runs) + "\n]}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS), help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument(
        "--seconds", type=float, help=f"measured seconds per run (default {spec.RUN_SECONDS}; --quick: 2)"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1), help="also run the traced pass"
    )
    parser.add_argument("--quick", action="store_true", help="toy sizes, one set-up (the self-test)")
    parser.add_argument("--out", help="append every pass's full record to this JSON file")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (2.0 if args.quick else float(spec.RUN_SECONDS))
    if seconds <= 0:
        parser.error("--seconds must be positive")

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    last = {}
    for name in names:
        passes = run_workload(name, args.seed, seconds, args.quick, bool(args.trace))
        for record in passes:
            print_pass(record)
        if args.out:
            append_results(args.out, passes)
        line = contract_line(passes, bool(args.trace))
        if len(names) > 1:
            # One object per workload; the driver always names one.
            line = {"workload": name, **line}
        last = line
        print(json.dumps(line), flush=True)
    return 0 if last else 1


if __name__ == "__main__":
    sys.exit(main())
