"""Compare two result files: one row per (end-to-end metric, workload).

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change; both are files
written by ``run.py --out``, ideally ten or more runs per workload.  Each
row shows both medians, their ratio beside its base, the run-to-run
spread and the metric's bound, and one verdict:

* ``better`` — every run of B reads better than every run of A;
* ``within bound`` — B's median is no worse than A's by more than the bound;
* ``unresolved`` — the spread is wider than the bound, so neither
  "unchanged" nor "worse" can be said;
* ``worse`` — B's median is worse by more than the bound;
* ``identical`` / ``CHANGED`` — exact metrics, compared seed by seed: any
  change is a change to the modelled design and must be declared.

Only the untraced pass is compared.  Exit code 1 when any row is
``worse``, ``CHANGED`` or below its floor.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

import spec

Runs = Dict[str, List[dict]]


def load(path: str) -> Runs:
    """Untraced runs of a result file, by workload."""
    with open(path, "r", encoding="utf-8") as stream:
        runs = json.load(stream)["runs"]
    by_workload: Runs = {}
    for run in runs:
        if not run["traced"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def spread(values: List[float]) -> float:
    """Interquartile range over the median (range over median below 4 runs)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def verdict(metric: spec.E2EMetric, base: List[float], change: List[float]) -> Tuple[str, float]:
    """``(verdict, spread)`` of one bounded metric on one workload."""
    sign = 1.0 if metric.better == "lower" else -1.0
    base_median, change_median = statistics.median(base), statistics.median(change)
    worsening = sign * (change_median - base_median)
    if metric.kind == "relative":
        worsening = worsening / abs(base_median) if base_median else 0.0
        noise = max(spread(base), spread(change))
    else:
        noise = max(spread(base) * abs(base_median), spread(change) * abs(change_median))
    every_better = all(sign * (b - a) < 0 for a in base for b in change)
    every_worse = all(sign * (b - a) > 0 for a in base for b in change)
    if metric.floor is not None and change_median < metric.floor:
        return f"worse (below the floor {metric.floor:g})", noise
    if every_better:
        return "better", noise
    if worsening > metric.bound:
        return ("worse" if noise <= metric.bound or every_worse else "unresolved"), noise
    if noise > metric.bound:
        return "unresolved", noise
    return "within bound", noise


def exact_verdict(name: str, base: List[dict], change: List[dict]) -> str:
    by_seed = {run["seed"]: run["e2e"][name] for run in base}
    common = [run for run in change if run["seed"] in by_seed]
    if not common:
        return "unresolved (no common seed)"
    return "identical" if all(run["e2e"][name] == by_seed[run["seed"]] for run in common) else "CHANGED"


def describe(label: str, runs: Runs) -> str:
    metas = {json.dumps(run["meta"], sort_keys=True) for workload in runs.values() for run in workload}
    seeds = sorted({run["seed"] for workload in runs.values() for run in workload})
    lines = [f"{label}: seeds {seeds}"]
    for meta in sorted(metas):
        meta = json.loads(meta)
        lines.append(
            f"  commit {meta['git_commit']}  nproc {meta['nproc']}  BLAS threads {meta['blas_threads']}  "
            f"{meta['fingerprint']['platform']}  numpy {meta['fingerprint']['numpy']}"
        )
    return "\n".join(lines)


def compare(base: Runs, change: Runs) -> Tuple[List[str], bool]:
    """The table's rows, and whether any of them is a regression."""
    rows = [
        f"{'metric':<22} {'workload':<16} {'A median':>12} {'B median':>12} "
        f"{'B/A':>7} {'spread':>7} {'bound':>7}  verdict"
    ]
    regressed = False
    for name, metric in spec.E2E_METRICS.items():
        for workload in metric.workloads:
            if workload not in base or workload not in change:
                continue
            a = [run["e2e"][name] for run in base[workload]]
            b = [run["e2e"][name] for run in change[workload]]
            a_median, b_median = statistics.median(a), statistics.median(b)
            ratio = f"{b_median / a_median:7.3f}" if a_median else "    n/a"
            if metric.kind == "exact" or workload in metric.exact_on:
                outcome, noise, bound = exact_verdict(name, base[workload], change[workload]), 0.0, "exact"
                if metric.floor is not None and b_median < metric.floor:
                    outcome = f"worse (below the floor {metric.floor:g})"
            else:
                outcome, noise = verdict(metric, a, b)
                bound = f"{metric.bound:g}" if metric.kind == "relative" else f"+{metric.bound:g}"
            regressed = regressed or outcome.startswith(("worse", "CHANGED"))
            rows.append(
                f"{name:<22} {workload:<16} {a_median:>12.6g} {b_median:>12.6g} {ratio} {noise:>7.3f} {bound:>7}  "
                f"{outcome} (n={len(a)},{len(b)})"
            )
    return rows, regressed


def main(argv=None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if len(arguments) != 2:
        sys.exit(__doc__.split("\n\n")[1].strip())
    base, change = load(arguments[0]), load(arguments[1])
    print(describe("A", base))
    print(describe("B", change))
    rows, regressed = compare(base, change)
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
