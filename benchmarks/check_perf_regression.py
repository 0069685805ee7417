"""Thresholded perf-regression guard over the scaling and serving benchmarks.

Compares a freshly measured run against a committed baseline and
**fails** (exit 1) when any measured configuration dropped more than
``--max-drop`` (default 30%) below the baseline.  The payload kind is
auto-detected:

* **execution scaling** (``BENCH_exec.json`` /
  ``bench_backend_scaling.py``): each real backend's ratings/s at each
  worker count, **normalised by the same run's serial-simulator
  ratings/s** — the simulator executes the identical kernels inline, so
  dividing by it cancels machine-speed and load differences between the
  baseline host and the CI runner;
* **serving throughput** (``BENCH_serve.json`` / ``bench_serving.py``):
  each ``(batch_size, chunk_items)`` configuration's users/s,
  **normalised by the same run's naive full-matmul users/s** — pure
  BLAS + selection with no serving-layer logic, the serving analogue of
  the simulator normaliser;
* **streaming fold-in** (``BENCH_stream.json`` / ``bench_stream.py``):
  each newcomer-batch size's batched fold-in users/s, **normalised by
  the same run's naive per-user solve loop** (the payload's
  ``speedup_vs_naive``);
* **HTTP service** (``BENCH_service.json`` / ``bench_service.py``): for
  each serving tier (``inline``: scored in the event loop, ``readers``:
  scored by the reader pool) each closed-loop client level's achieved
  requests/s, **normalised by the same run's direct in-process
  RecommendationService users/s on that tier's model** — the identical
  scoring work without HTTP, processes or queueing, so the ratio
  isolates the front door's own overhead from runner speed;
* **approximate retrieval** (the ``ann_frontier`` section that
  ``bench_serving.py`` merges into ``BENCH_serve.json``): each nprobe
  point's ANN users/s, **normalised by the same run's naive full-matmul
  users/s**, plus a *hard* recall gate — the measured recall@K at the
  accepted operating point must stay at or above the payload's
  ``recall_floor``.  Recall is a property of the (deterministic, seeded)
  index build, not of machine speed, so it is an absolute bound rather
  than a drop-relative one;
* **autotuning** (``BENCH_tune.json`` / ``repro tune --bench-out``): two
  *hard* gates plus one relative one.  Hard: every gated probe section's
  mean prediction error (``|predicted - measured| / measured``) must
  stay within the ``error_budget`` the payload itself carries — the
  fitted cost models predicting the machine they were fitted on is an
  absolute property, like ANN recall — and the run's ``acceptance.met``
  must hold (every resolved knob measured no slower than the hand-picked
  default it replaces).  Relative: each section's default-over-resolved
  time ratio is compared against the baseline with ``--max-drop``; both
  times come from the same run on the same machine, so the ratio is its
  own normaliser.  The ``backend`` section is report-only: linear
  scaling mispredicting GIL-bound threads is the Table II finding, not a
  regression.

A payload may carry several sections (``BENCH_serve.json`` holds both
``serving`` and ``ann_frontier``); every section present in *both* the
baseline and the current run is compared, and any one failing fails the
guard.

Either way the guard catches exactly what it exists to catch: the
subsystem becoming slower *relative to the same work done the obvious
way on the same machine* (a new copy on the hot path, lock contention, a
lost fast path).  A global slowdown that hits baseline and subsystem
equally is covered elsewhere (``BENCH_kernels.json``, the tier-1 suite);
normaliser rows are reported but never gated.

Usage (what the CI perf-guard job runs)::

    REPRO_BENCH_WORKERS=2 REPRO_BENCH_OUT=bench_current.json \\
        python -m pytest benchmarks/bench_backend_scaling.py \\
        -k scaling_curve -q -s
    python benchmarks/check_perf_regression.py \\
        --baseline BENCH_exec.json --current bench_current.json

    REPRO_BENCH_SERVE_OUT=bench_serve_current.json \\
        python -m pytest benchmarks/bench_serving.py -q -s
    python benchmarks/check_perf_regression.py \\
        --baseline BENCH_serve.json --current bench_serve_current.json

Improvements and new configurations are reported but never fail; a
configuration missing from the baseline is skipped (it has no reference
to regress against).
"""

from __future__ import annotations

import argparse
import json
import sys


def _index(payload: dict) -> dict:
    """``{(workers, backend): ratings_per_s}`` from a scaling bench JSON."""
    table = {}
    for entry in payload.get("scaling", []):
        workers = entry["workers"]
        for backend, stats in entry.items():
            if backend == "workers" or not isinstance(stats, dict):
                continue
            table[(workers, backend)] = float(stats["ratings_per_s"])
    return table


def _normalised(table: dict) -> dict:
    """``{(workers, backend): tp / simulate_tp}`` for the real backends."""
    out = {}
    for (workers, backend), tp in table.items():
        if backend == "simulate":
            continue
        serial = table.get((workers, "simulate"))
        if serial and serial > 0:
            out[(workers, backend)] = tp / serial
    return out


def _normalised_serving(payload: dict) -> dict:
    """``{(batch, chunk): users_per_s / full_matmul_users_per_s}``."""
    reference = float(
        payload.get("baselines", {}).get("full_matmul_users_per_s", 0.0)
    )
    out = {}
    if reference <= 0:
        return out
    for entry in payload.get("serving", []):
        key = (int(entry["batch_size"]), int(entry["chunk_items"]))
        out[key] = float(entry["users_per_s"]) / reference
    return out


def _report(base: dict, cur: dict, labeller, unit: str, max_drop: float) -> list:
    """Print the per-configuration comparison; return the failures."""
    failures = []
    for key in sorted(cur):
        label = labeller(key)
        if key not in base:
            print(
                f"  (new)    {label}: {cur[key]:.2f}x of {unit} "
                "(no baseline, skipped)"
            )
            continue
        ratio = cur[key] / base[key] if base[key] > 0 else float("inf")
        status = "ok" if ratio >= 1.0 - max_drop else "REGRESSED"
        print(
            f"  {status:>9} {label}: {cur[key]:.2f}x of {unit} "
            f"vs baseline {base[key]:.2f}x ({ratio:.2f} of baseline)"
        )
        if status == "REGRESSED":
            failures.append((key, ratio))
    return failures


def compare_scaling(baseline: dict, current: dict, max_drop: float) -> int:
    cur_raw = _index(current)
    base = _normalised(_index(baseline))
    cur = _normalised(cur_raw)
    if not cur:
        print("error: current run contains no comparable scaling measurements")
        return 1
    for (workers, backend), tp in sorted(cur_raw.items()):
        if backend == "simulate":
            print(f"  normaliser simulate @ {workers}w: {tp:.0f} ratings/s")
    failures = _report(
        base,
        cur,
        lambda key: f"{key[1]} @ {key[0]}w",
        "serial",
        max_drop,
    )
    if failures:
        print(
            f"\nperf regression: {len(failures)} backend(s) dropped more than "
            f"{max_drop:.0%} below the committed baseline (serial-normalised)"
        )
        return 1
    print("\nno backend regressed beyond the threshold")
    return 0


def compare_serving(baseline: dict, current: dict, max_drop: float) -> int:
    base = _normalised_serving(baseline)
    cur = _normalised_serving(current)
    if not cur:
        print("error: current run contains no comparable serving measurements")
        return 1
    reference = current.get("baselines", {}).get("full_matmul_users_per_s")
    print(f"  normaliser full-matmul: {reference} users/s")
    failures = _report(
        base,
        cur,
        lambda key: f"batch {key[0]} x chunk {key[1]}",
        "full-matmul",
        max_drop,
    )
    if failures:
        print(
            f"\nperf regression: {len(failures)} serving configuration(s) "
            f"dropped more than {max_drop:.0%} below the committed baseline "
            "(full-matmul-normalised)"
        )
        return 1
    print("\nno serving configuration regressed beyond the threshold")
    return 0


def _normalised_stream(payload: dict) -> dict:
    """``{batch_users: users_per_s / naive_users_per_s}``."""
    out = {}
    for entry in payload.get("fold_in", []):
        naive = float(entry.get("naive_users_per_s", 0.0))
        if naive > 0:
            out[int(entry["batch_users"])] = (
                float(entry["users_per_s"]) / naive
            )
    return out


def compare_stream(baseline: dict, current: dict, max_drop: float) -> int:
    base = _normalised_stream(baseline)
    cur = _normalised_stream(current)
    if not cur:
        print("error: current run contains no comparable fold-in measurements")
        return 1
    for entry in current.get("fold_in", []):
        print(
            f"  normaliser naive loop @ {entry['batch_users']}: "
            f"{entry['naive_users_per_s']} users/s"
        )
    failures = _report(
        base,
        cur,
        lambda key: f"fold-in batch {key}",
        "naive loop",
        max_drop,
    )
    if failures:
        print(
            f"\nperf regression: {len(failures)} fold-in batch size(s) "
            f"dropped more than {max_drop:.0%} below the committed baseline "
            "(naive-loop-normalised)"
        )
        return 1
    print("\nno fold-in batch size regressed beyond the threshold")
    return 0


_SERVICE_TIERS = ("inline", "readers")


def _normalised_service(payload: dict) -> dict:
    """``{"<tier> x<clients>": achieved_qps / the tier's direct_users_per_s}``."""
    out = {}
    for name in _SERVICE_TIERS:
        tier = payload.get("service", {}).get(name, {})
        direct = float(tier.get("direct_users_per_s", 0.0))
        if direct <= 0:
            continue
        for entry in tier.get("closed_loop", []):
            out[f"{name} x{int(entry['clients'])}"] = float(entry["achieved_qps"]) / direct
    return out


def compare_service(baseline: dict, current: dict, max_drop: float) -> int:
    base = _normalised_service(baseline)
    cur = _normalised_service(current)
    if not cur:
        print("error: current run contains no comparable service measurements")
        return 1
    for name in _SERVICE_TIERS:
        direct = current.get("service", {}).get(name, {}).get("direct_users_per_s")
        print(f"  normaliser direct in-process serving ({name}): {direct} users/s")
    failures = _report(
        base,
        cur,
        lambda key: f"closed loop {key}",
        "direct serving",
        max_drop,
    )
    if failures:
        print(
            f"\nperf regression: {len(failures)} closed-loop level(s) "
            f"dropped more than {max_drop:.0%} below the committed baseline "
            "(direct-serving-normalised)"
        )
        return 1
    print("\nno closed-loop level regressed beyond the threshold")
    return 0


def _normalised_ann(payload: dict) -> dict:
    """``{nprobe: users_per_s / full_matmul_users_per_s}``."""
    section = payload.get("ann_frontier", {})
    reference = float(section.get("full_matmul_users_per_s", 0.0))
    out = {}
    if reference <= 0:
        return out
    for entry in section.get("frontier", []):
        out[int(entry["nprobe"])] = float(entry["users_per_s"]) / reference
    return out


def compare_ann(baseline: dict, current: dict, max_drop: float) -> int:
    base = _normalised_ann(baseline)
    cur = _normalised_ann(current)
    if not cur:
        print("error: current run contains no comparable ANN measurements")
        return 1
    section = current.get("ann_frontier", {})
    reference = section.get("full_matmul_users_per_s")
    print(f"  normaliser full-matmul: {reference} users/s")
    failures = _report(
        base,
        cur,
        lambda key: f"ann nprobe {key}",
        "full-matmul",
        max_drop,
    )
    # Hard recall gate, independent of machine speed: the index build is
    # seeded and deterministic, so recall at the accepted operating point
    # is an absolute bound, not a drop-relative one.
    floor = float(section.get("recall_floor", 0.0))
    accept = section.get("acceptance", {}).get("accept_point") or {}
    recall = accept.get("recall_at_k")
    if recall is None:
        print("  RECALL GATE: no accept point in current run")
        failures.append(("recall", 0.0))
    elif float(recall) < floor:
        print(
            f"  RECALL GATE: recall@K {float(recall):.4f} at "
            f"nprobe {accept.get('nprobe')} is below the floor {floor}"
        )
        failures.append(("recall", float(recall)))
    else:
        print(
            f"  recall gate ok: recall@K {float(recall):.4f} at "
            f"nprobe {accept.get('nprobe')} >= floor {floor}"
        )
    if failures:
        print(
            f"\nperf regression: {len(failures)} ANN check(s) failed "
            f"(throughput drop > {max_drop:.0%} full-matmul-normalised, "
            "or recall below the floor)"
        )
        return 1
    print("\nno ANN operating point regressed beyond the threshold")
    return 0


def _tune_speedups(payload: dict) -> dict:
    """``{section: default_s / resolved_s}`` from a tune payload.

    >= 1.0 by construction (the resolver falls back to the default when
    it measured faster); both times come from the same run on the same
    machine, so the ratio needs no external normaliser.
    """
    out = {}
    sections = payload.get("tune", {}).get("acceptance", {}).get("sections", {})
    for name, acc in sections.items():
        resolved = float(acc.get("resolved_s", 0.0))
        default = float(acc.get("default_s", 0.0))
        if resolved > 0 and default > 0:
            out[name] = default / resolved
    return out


def compare_tune(baseline: dict, current: dict, max_drop: float) -> int:
    report = current.get("tune", {})
    sections = report.get("sections", {})
    if not sections:
        print("error: current run contains no tune probe sections")
        return 1
    failures = []
    # Hard gate 1: every gated section's cost model must predict the
    # machine it was fitted on within its own declared budget.
    for name in sorted(sections):
        section = sections[name]
        error = float(section.get("predict_error", 0.0))
        budget = section.get("error_budget")
        if not section.get("gated", False) or budget is None:
            print(f"  report-only {name}: predict error {error:.1%}")
            continue
        budget = float(budget)
        if error > budget:
            print(
                f"  ERROR BUDGET {name}: predict error {error:.1%} "
                f"exceeds the budget {budget:.0%}"
            )
            failures.append((name, error))
        else:
            print(
                f"  error budget ok {name}: predict error {error:.1%} "
                f"<= budget {budget:.0%}"
            )
    # Hard gate 2: no resolved knob may have measured slower than the
    # hand-picked default it replaces.
    acceptance = report.get("acceptance", {})
    if acceptance.get("met"):
        print("  acceptance ok: resolved knobs measured no slower than defaults")
    else:
        slower = [
            name
            for name, acc in acceptance.get("sections", {}).items()
            if not acc.get("ok")
        ]
        print(f"  ACCEPTANCE: resolved config measured slower than defaults {slower}")
        failures.append(("acceptance", 0.0))
    # Relative gate: the tuning win itself must not silently erode.
    failures += _report(
        _tune_speedups(baseline),
        _tune_speedups(current),
        lambda key: f"tuning win {key}",
        "default config",
        max_drop,
    )
    if failures:
        print(
            f"\nperf regression: {len(failures)} autotune check(s) failed "
            "(prediction error over budget, resolved config slower than "
            f"defaults, or tuning win down more than {max_drop:.0%})"
        )
        return 1
    print("\nno autotune check regressed beyond the threshold")
    return 0


_COMPARATORS = (
    ("scaling", "execution scaling", compare_scaling),
    ("serving", "serving throughput", compare_serving),
    ("fold_in", "streaming fold-in", compare_stream),
    ("service", "HTTP service", compare_service),
    ("ann_frontier", "approximate retrieval", compare_ann),
    ("tune", "autotune cost-model fidelity", compare_tune),
)


def compare(baseline: dict, current: dict, max_drop: float) -> int:
    """Run every comparator whose section both payloads carry."""
    worst = 0
    ran = []
    for key, title, comparator in _COMPARATORS:
        if key in baseline and key in current:
            if ran:
                print()
            print(f"== {title} ==")
            worst = max(worst, comparator(baseline, current, max_drop))
            ran.append(key)
    if not ran:
        print(
            "error: baseline and current share no comparable section; "
            "expected both to carry at least one of "
            f"{[key for key, _, _ in _COMPARATORS]}"
        )
        return 1
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        required=True,
        help="committed BENCH_exec.json or BENCH_serve.json",
    )
    parser.add_argument("--current", required=True, help="freshly measured run")
    parser.add_argument(
        "--max-drop",
        type=float,
        default=0.30,
        help=(
            "maximum tolerated fractional drop of serial-normalised "
            "ratings/s (default 0.30)"
        ),
    )
    args = parser.parse_args(argv)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(args.current, encoding="utf-8") as handle:
        current = json.load(handle)
    print(
        f"baseline: {args.baseline} "
        f"({baseline.get('hardware', {}).get('usable_cores', '?')} cores); "
        f"current: {args.current} "
        f"({current.get('hardware', {}).get('usable_cores', '?')} cores)"
    )
    return compare(baseline, current, args.max_drop)


if __name__ == "__main__":
    sys.exit(main())
