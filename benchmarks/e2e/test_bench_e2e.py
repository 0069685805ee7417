"""Self-tests of the end-to-end benchmark harness.

Not collected by tier-1 (``testpaths = ["tests"]``); run with

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import compare
import spec
import streams
from serve_workloads import LiveIngest, Serving
from tracing import Tracer, attribution_error, covered, layer_self_times, percentile
from train_workloads import TrainWall

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# --------------------------------------------------------------------- #
# BENCHMARK.json
# --------------------------------------------------------------------- #
def test_benchmark_json_is_generated_from_spec():
    with open(spec.BENCHMARK_JSON, "r", encoding="utf-8") as stream:
        assert json.load(stream) == spec.benchmark_json()


def test_benchmark_json_meets_the_contract():
    contract = spec.benchmark_json()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 1 <= contract["run_seconds"] <= 60 and isinstance(contract["run_seconds"], int)
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for row in contract["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in contract["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(row["unit"]) and row["better"] in ("lower", "higher") and 0 < row["bound"] <= 0.25
    for row in contract["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
        assert UNIT.fullmatch(row["unit"]) and row["better"] in ("lower", "higher")
    setup = {row["name"]: row for row in contract["end_to_end"]}["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(row["bound"] for row in contract["end_to_end"])
    assert all(path.startswith("benchmarks/e2e") for path in contract["paths"])
    assert all(not part.startswith("/") and ".." not in part for part in contract["command"])


def test_metric_tables_are_consistent():
    for name, metric in spec.E2E_METRICS.items():
        assert UNIT.fullmatch(metric.unit), name
        assert metric.better in ("lower", "higher") and metric.kind in ("relative", "absolute", "exact")
        assert set(metric.workloads) <= set(spec.WORKLOADS) and metric.workloads
        assert set(metric.exact_on) <= set(metric.workloads)
    for name, layer in spec.LAYER_METRICS.items():
        assert layer.moves in spec.E2E_METRICS, name
        assert set(layer.on) <= set(spec.WORKLOADS) and layer.on, name
        # A layer metric is measured where the metric it should move exists.
        assert set(layer.on) & set(spec.E2E_METRICS[layer.moves].workloads), name
    for role, (unit, better, bound, named) in spec.DRIVER_METRICS.items():
        assert set(named) == set(spec.WORKLOADS), role
        for workload, metric in named.items():
            row = spec.E2E_METRICS[metric]
            assert workload in row.workloads and row.better == better and row.bound <= bound, (role, workload)


def test_readme_glossary_names_every_metric_and_workload():
    with open(os.path.join(spec.HERE, "README.md"), "r", encoding="utf-8") as stream:
        readme = stream.read()
    names = list(spec.WORKLOADS) + list(spec.E2E_METRICS) + list(spec.DRIVER_METRICS) + list(spec.LAYER_METRICS)
    assert [name for name in names if f"`{name}`" not in readme] == []


# --------------------------------------------------------------------- #
# Arithmetic
# --------------------------------------------------------------------- #
def test_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 99) == pytest.approx(99.01)
    assert percentile([7.0], 99) == 7.0
    assert np.isnan(percentile([], 50))


def test_covered_merges_overlapping_intervals():
    assert covered([]) == 0.0
    assert covered([(0, 1), (2, 3)]) == pytest.approx(2.0)
    assert covered([(0, 2), (1, 3), (2.5, 2.75)]) == pytest.approx(3.0)


def test_self_time_is_span_minus_the_part_children_cover():
    spans = [
        (0, "run", 0.0, 10.0, None),
        (1, "exec:fit", 1.0, 9.0, 0),
        (2, "exec:epoch", 2.0, 4.0, 1),
        (3, "exec:epoch", 4.0, 7.0, 1),
        # Two requests in flight together cover 3 s of their parent, not 4.
        (4, "service:phase", 0.0, 1.0, 0),
        (5, "loadgen:open", 10.0, 20.0, None),
        (6, "service:request", 11.0, 13.0, 5),
        (7, "service:request", 12.0, 14.0, 5),
    ]
    layers = layer_self_times(spans)
    assert layers["run"] == pytest.approx(1.0)
    assert layers["exec"] == pytest.approx(3.0 + 2.0 + 3.0)
    assert layers["loadgen"] == pytest.approx(7.0)
    assert layers["service"] == pytest.approx(1.0 + 4.0)
    # Under "run": fit self 3 + epochs 5 + phase 1 = 9 of 10 seconds attributed.
    assert attribution_error(spans, "run") == pytest.approx(0.1)


def test_tracer_records_nesting_and_disabled_tracer_records_nothing():
    tracer = Tracer(True, "w")
    with tracer.span("a:outer"):
        with tracer.span("b:inner"):
            pass
        tracer.add("c:timed_elsewhere", 1.0, 2.0)
    recorded = [(span[1], span[4]) for span in tracer.spans]
    assert recorded == [("a:outer", None), ("b:inner", 0), ("c:timed_elsewhere", 0)]
    off = Tracer(False)
    with off.span("a:outer"):
        off.add("c:x", 1.0, 2.0)
    assert off.spans == []


def test_compare_verdicts():
    lower = spec.E2EMetric("ms", "lower", 0.10, ("serve_frontdoor",), "")
    higher = spec.E2EMetric("req/s", "higher", 0.10, ("serve_frontdoor",), "")
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
    noisy = [1.0, 1.4, 0.7, 1.1, 0.8, 1.3]
    assert compare.verdict(lower, steady, [value * 0.8 for value in steady])[0] == "better"
    assert compare.verdict(lower, steady, [value * 1.05 for value in steady])[0] == "within bound"
    assert compare.verdict(lower, steady, [value * 1.2 for value in steady])[0] == "worse"
    assert compare.verdict(lower, noisy, [value * 1.05 for value in noisy])[0] == "unresolved"
    assert compare.verdict(lower, noisy, [value * 1.2 for value in noisy])[0] == "unresolved"
    assert compare.verdict(higher, steady, [value * 0.8 for value in steady])[0] == "worse"
    assert compare.verdict(higher, steady, [value * 1.3 for value in steady])[0] == "better"
    floor = dataclasses.replace(higher, floor=0.95)
    assert compare.verdict(floor, [0.98, 0.98], [0.94, 0.94])[0].startswith("worse (below the floor")


def test_compare_exact_metrics_seed_by_seed():
    def run(seed, value):
        return {"seed": seed, "e2e": {"sim_time_to_target_s": value}}

    base = [run(1, 0.5), run(2, 0.75)]
    assert compare.exact_verdict("sim_time_to_target_s", base, [run(2, 0.75), run(1, 0.5)]) == "identical"
    assert compare.exact_verdict("sim_time_to_target_s", base, [run(1, 0.5000001)]) == "CHANGED"
    assert compare.exact_verdict("sim_time_to_target_s", base, [run(3, 0.5)]).startswith("unresolved")


# --------------------------------------------------------------------- #
# Seeds
# --------------------------------------------------------------------- #
def test_a_seed_changes_the_inputs_and_nothing_in_the_configuration():
    one, two = Serving("serve_catalog", 1, True, 2.0), Serving("serve_catalog", 2, True, 2.0)
    assert not np.array_equal(one.users, two.users)
    assert {key for key in one.sut_config() if one.sut_config()[key] != two.sut_config()[key]} == {"seed"}

    one, two = LiveIngest(1, True, 2.0), LiveIngest(2, True, 2.0)
    assert {key for key in one.sut_config() if one.sut_config()[key] != two.sut_config()[key]} == {"seed"}
    size = spec.QUICK_SIZES["live_ingest"]
    first, again, other = (streams.RatingStream(size, seed, batches=3) for seed in (1, 1, 2))
    assert np.array_equal(first.base.vals, again.base.vals)
    assert all(np.array_equal(a, b) for a, b in zip(first.next_batch(), again.next_batch()))
    assert first.base.nnz != other.base.nnz or not np.array_equal(first.base.vals, other.base.vals)

    one, two = TrainWall(1, True, 2.0), TrainWall(2, True, 2.0)
    one.setup(Tracer(False))
    two.setup(Tracer(False))
    assert not np.array_equal(one.train.vals[:100], two.train.vals[:100])
    assert dataclasses.replace(one.training, seed=0) == dataclasses.replace(two.training, seed=0)
    assert (one.hardware, one.epochs, one.size) == (two.hardware, two.epochs, two.size)


def test_every_batch_brings_users_the_model_has_not_seen():
    size = spec.QUICK_SIZES["live_ingest"]
    stream = streams.RatingStream(size, 5, batches=6)
    seen = size.base_rows
    for _ in range(6):
        users, items, vals = stream.next_batch()
        assert len(users) == len(items) == len(vals) == size.batch_ratings
        assert users.max() >= seen
        seen = users.max() + 1


# --------------------------------------------------------------------- #
# The whole thing, at toy size
# --------------------------------------------------------------------- #
def adopt_orphans(on: bool) -> None:
    """Make this process the one that inherits its descendants' orphans (or stop)."""
    pr_set_child_subreaper = 36
    assert ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, int(on), 0, 0, 0) == 0


def test_quick_runs_all_five_workloads_under_a_minute(tmp_path):
    out = tmp_path / "quick.json"
    adopt_orphans(True)
    try:
        started = time.monotonic()
        finished = subprocess.run(
            [sys.executable, os.path.join(spec.HERE, "run.py"), "--quick", "--seed", "3", "--trace", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        elapsed = time.monotonic() - started
        # Anything of run.py's tree that outlived it, running or not yet
        # reaped (a resource tracker does, by a moment), is now a child here.
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    finally:
        adopt_orphans(False)
    assert finished.returncode == 0, finished.stderr[-2000:]
    assert elapsed < 60.0
    lines = [json.loads(line) for line in finished.stdout.splitlines() if line.startswith("{")]
    assert [line["workload"] for line in lines] == list(spec.WORKLOADS)
    for line in lines:
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line["workload"]
        assert set(line["metrics"]) == set(spec.LAYER_METRICS)
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 2 * len(spec.WORKLOADS)
    for run in runs:
        assert {"fingerprint", "nproc", "blas_threads", "git_commit"} <= set(run["meta"])
        named = {name for name, metric in spec.E2E_METRICS.items() if run["workload"] in metric.workloads}
        assert set(run["e2e"]) == named
        if run["traced"]:
            measured = {name for name, layer in spec.LAYER_METRICS.items() if run["workload"] in layer.on}
            assert set(run["layers"]) == measured, run["workload"]
    assert compare.main([str(out), str(out)]) == 0
