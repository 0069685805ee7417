"""HTTP front-door latency under load: percentiles, ceiling, shedding.

One benchmark over the full serving path — loopback HTTP into
:class:`repro.service.RecommendServer` and onto the published
shared-memory model — measuring what the in-process serving bench
(``bench_serving.py``) cannot: queueing, coalescing and admission
control under a *request stream*.  The server has two tiers, so the
bench has a section for each:

* ``inline`` — a model small enough that the event loop scores it
  itself (``INLINE_SHAPE``).  **Closed loop** (N back-to-back clients)
  finds the throughput ceiling; the best level's requests/s,
  **normalised by the same run's direct in-process**
  :class:`~repro.serve.RecommendationService` users/s (same model, no
  HTTP), is what the CI perf guard gates — dividing by the direct path
  cancels runner speed exactly like the full-matmul normaliser of
  ``BENCH_serve.json``.  **Open loop** at fixed offered rates below the
  ceiling reports the honest p50/p95/p99 (arrivals never wait for
  earlier requests, so the tail is not hidden by coordinated omission);
* ``readers`` — a model above ``INLINE_MAX_CELLS`` (``READER_SHAPE``),
  served by the reader pool.  Closed loop for its ceiling, then
  **overload** at 2x that ceiling, asserting admission control does its
  one job: a meaningful 503 rate, zero client-side errors, and the
  queue bound never exceeded.  Only this tier can shed — an inline
  request never queues inside the server;
* ``before`` — the inline shape forced through the readers (the
  threshold constant set to 0 for that run), which is the request path
  every model took before the loop scored anything: the before row of
  the inline tier's before/after, measured in the same run on the same
  machine.  Reported, not gated.

Run it with ``OPENBLAS_NUM_THREADS=1`` (CI and the committed file do;
the value is recorded under ``config``): two readers each spinning a
BLAS thread pool on a 2-core box measure the OS scheduler, not the
server.

Results go to ``BENCH_service.json`` (override with
``REPRO_BENCH_SERVICE_OUT``; CI writes a fresh file and compares it
against the committed baseline with ``check_perf_regression.py``).
"""

import asyncio
import json
import os
import time

from conftest import emit

from repro.hardware import machine_fingerprint
from repro.serve import ModelStore, RecommendationService
from repro.serve.bench import synthetic_model, user_pool
from repro.service import RecommendServer, ServiceConfig, run_closed_loop, run_open_loop
from repro.service import server as server_module
from repro.shm import live_segment_names

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_SERVICE_JSON = os.environ.get(
    "REPRO_BENCH_SERVICE_OUT", os.path.join(_ROOT, "BENCH_service.json")
)

#: CI-sized models, one per tier.  The inline one is transport-bound
#: (64k cells, scored in the loop); the reader one sits above
#: INLINE_MAX_CELLS (2**18) but stays small, because what this bench
#: measures is queueing and transport, not BLAS.
N_USERS = 5_000
INLINE_SHAPE = {"items": 2_000, "latent_factors": 32}
READER_SHAPE = {"items": 4_096, "latent_factors": 128}
TOP_K = 10

WORKERS = 2
QUEUE_DEPTH = 16  # per reader: a crisp admission bound for the overload probe
DEADLINE_MS = 2_000.0

#: Offered-QPS fractions of the measured ceiling for the open-loop pass.
OPEN_LOOP_FRACTIONS = (0.25, 0.5, 1.0)
OVERLOAD_FACTOR = 2.0


def _durations(profile: str) -> dict:
    if profile == "quick":
        return {"closed": 1.0, "open": 1.0, "overload": 1.5}
    if profile == "full":
        return {"closed": 4.0, "open": 4.0, "overload": 5.0}
    return {"closed": 2.0, "open": 2.0, "overload": 3.0}


def _direct_users_per_s(model, users, seconds: float) -> float:
    """The normaliser: the same requests served in-process, no HTTP."""
    with RecommendationService(
        model, k=TOP_K, batch_size=64, cache_size=0
    ) as service:
        served = 0
        position = 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            batch = [users[(position + i) % len(users)] for i in range(64)]
            position += 64
            service.recommend_many(batch)
            served += len(batch)
        elapsed = time.perf_counter() - start
    return served / elapsed


CONFIG = ServiceConfig(
    workers=WORKERS,
    k=TOP_K,
    queue_depth=QUEUE_DEPTH,
    deadline=DEADLINE_MS / 1000.0,
    cache_size=0,  # measure scoring round-trips, not dict lookups
)


async def _measure(store, users, durations, open_loop: bool, overload: bool) -> dict:
    """One server lifetime: closed loop, then the passes asked for."""
    server = RecommendServer(store, CONFIG)
    await server.start()
    port = server.port
    try:
        closed = []
        for clients in (2, 8):
            report = await run_closed_loop(
                "127.0.0.1", port, users, clients=clients,
                duration=durations["closed"],
            )
            closed.append({"clients": clients, **report.as_dict()})
        ceiling = max(entry["achieved_qps"] for entry in closed)
        section = {"closed_loop": closed, "ceiling_qps": round(ceiling, 2)}
        if open_loop:
            section["open_loop"] = []
            for fraction in OPEN_LOOP_FRACTIONS:
                report = await run_open_loop(
                    "127.0.0.1", port, users,
                    offered_qps=max(10.0, ceiling * fraction),
                    duration=durations["open"],
                )
                section["open_loop"].append(
                    {"fraction_of_ceiling": fraction, **report.as_dict()}
                )
        if overload:
            report = await run_open_loop(
                "127.0.0.1", port, users,
                offered_qps=max(20.0, ceiling * OVERLOAD_FACTOR),
                duration=durations["overload"],
            )
            section["overload"] = {
                "factor_of_ceiling": OVERLOAD_FACTOR, **report.as_dict()
            }
        section["server_stats"] = server.stats.as_dict()
    finally:
        await server.stop()
    return section


def _tier(shape, users, durations, open_loop=False, overload=False, through_readers=False):
    """Publish a model of ``shape`` and measure one server over it.

    ``through_readers`` zeroes the inline threshold for this server, so
    even the inline shape takes the reader path.
    """
    model = synthetic_model(N_USERS, shape["items"], shape["latent_factors"], seed=0)
    direct = _direct_users_per_s(model, users, seconds=durations["closed"] / 2)
    threshold = server_module.INLINE_MAX_CELLS
    if through_readers:
        server_module.INLINE_MAX_CELLS = 0
    try:
        with ModelStore() as store:
            store.publish(model)
            section = asyncio.run(_measure(store, users, durations, open_loop, overload))
    finally:
        server_module.INLINE_MAX_CELLS = threshold
    return {
        "model_shape": {"users": N_USERS, **shape},
        "direct_users_per_s": round(direct),
        "normalised_ceiling_vs_direct": round(section["ceiling_qps"] / direct, 5),
        **section,
    }


def test_service_latency_under_load(bench_profile):
    """Closed/open-loop HTTP measurements -> BENCH_service.json."""
    durations = _durations(bench_profile)
    users = [int(u) for u in user_pool(N_USERS, 2_048, seed=0)]

    inline = _tier(INLINE_SHAPE, users, durations, open_loop=True)
    readers = _tier(READER_SHAPE, users, durations, overload=True)
    before = _tier(INLINE_SHAPE, users, durations, through_readers=True)

    served, served_inline = (
        inline["server_stats"]["served"],
        inline["server_stats"]["served_inline"],
    )
    overload = readers["overload"]
    queue_bound = CONFIG.queue_depth * CONFIG.workers
    max_in_flight = readers["server_stats"]["max_in_flight"]
    acceptance = {
        "target": (
            "the inline shape is scored in the loop and the reader shape "
            "by the readers; on the reader tier, overload at 2x the "
            "closed-loop ceiling is shed with 503s (bounded queue), with "
            "zero client-side transport errors"
        ),
        # Per level, not per ceiling: with 8 clients the readers coalesce
        # and amortise the hand-offs that 2 clients pay per request.
        "inline_qps_vs_before": {
            f"x{after['clients']}": round(after["achieved_qps"] / prior["achieved_qps"], 3)
            for after, prior in zip(inline["closed_loop"], before["closed_loop"])
        },
        "overload_rejection_rate": overload["rejection_rate"],
        "queue_bound": queue_bound,
        "max_in_flight": max_in_flight,
        "queue_stayed_bounded": max_in_flight <= queue_bound,
        "met": (
            served_inline == served > 0
            and readers["server_stats"]["served_inline"] == 0
            and before["server_stats"]["served_inline"] == 0
            and overload["rejection_rate"] > 0.0
            and overload["errors"] == 0
            and max_in_flight <= queue_bound
        ),
    }

    payload = {
        "top_k": TOP_K,
        "profile": bench_profile,
        "hardware": machine_fingerprint(),
        "config": {
            "workers": WORKERS,
            "queue_depth_per_reader": QUEUE_DEPTH,
            "deadline_ms": DEADLINE_MS,
            "inline_max_cells": server_module.INLINE_MAX_CELLS,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "service": {"inline": inline, "readers": readers, "before": before},
        "acceptance": acceptance,
    }
    with open(BENCH_SERVICE_JSON, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    rows = [
        f"{'load':<34} {'offered':>8} {'achieved':>9} {'p50':>7} "
        f"{'p95':>7} {'p99':>7} {'503%':>6}"
    ]
    for name, tier in payload["service"].items():
        entries = [
            (f"closed loop x{entry['clients']}", entry) for entry in tier["closed_loop"]
        ]
        entries += [
            (f"open loop {entry['fraction_of_ceiling']}x", entry)
            for entry in tier.get("open_loop", [])
        ]
        if "overload" in tier:
            entries.append((f"open loop {OVERLOAD_FACTOR}x", tier["overload"]))
        for label, entry in entries:
            offered = entry["offered_qps"]
            rows.append(
                f"{name + ' ' + label:<34} "
                f"{'-' if offered is None else format(offered, '.1f'):>8} "
                f"{entry['achieved_qps']:>9.1f} {entry['p50_ms']:>7.2f} "
                f"{entry['p95_ms']:>7.2f} {entry['p99_ms']:>7.2f} "
                f"{100 * entry['rejection_rate']:>5.1f}%"
            )
    emit(
        f"Service latency under load, {WORKERS} readers, top-{TOP_K}, "
        f"inline / same shape through the readers "
        f"{acceptance['inline_qps_vs_before']} "
        f"({payload['hardware']['usable_cores']} usable cores) -> "
        f"{BENCH_SERVICE_JSON}",
        "\n".join(rows),
    )

    assert live_segment_names() == (), "the service leaked a segment"
    for tier in payload["service"].values():
        assert tier["ceiling_qps"] > 0
    for entry in inline["open_loop"]:
        assert entry["errors"] == 0, "transport errors during open loop"
    assert acceptance["met"], (
        f"service acceptance failed: {served_inline} of {served} inline-tier "
        f"requests scored inline; reader tier rejection rate "
        f"{overload['rejection_rate']} at {OVERLOAD_FACTOR}x ceiling, "
        f"errors {overload['errors']}, max in-flight {max_in_flight} "
        f"vs bound {queue_bound}"
    )
