"""The system under test as its own process tree.

``python sut.py '<json config>'`` builds a model (or trains one), owns
the :class:`ModelStore`, runs one or two :class:`RecommendServer` s with
their reader processes, and for ``live_ingest`` an :class:`IngestSession`
on the same store.  It is separate from the load generator so that
server CPU and generator CPU can be told apart in ``/proc/<pid>/stat``.

Protocol: one JSON object per line.  The driver prints ``ready`` (ports,
pids, set-up timings); the benchmark sends commands on stdin
(``phase_a``, ``phase_b``, ``stop``) and reads one reply per command.
Ingest phases run in a worker thread — the event loop keeps serving —
and stamp ``time.monotonic()``, which the load generator's clock shares.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import sys
import time

from repro import DriftPolicy, HardwareConfig, HeterogeneousTrainer, IngestSession, ModelStore, TrainingConfig
from repro.serve import IvfIndex
from repro.serve.bench import synthetic_model
from repro.service import RecommendServer, ServiceConfig
from repro.shm import live_segment_names

import streams
from spec import LiveIngestSize


def reply(**payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def build_serving(config: dict, store: ModelStore, timings: dict) -> None:
    started = time.perf_counter()
    model = synthetic_model(config["n_users"], config["n_items"], config["latent_factors"], seed=config["seed"])
    timings["model_s"] = time.perf_counter() - started
    index = None
    if config["nlist"]:
        started = time.perf_counter()
        index = IvfIndex.build(model, nlist=config["nlist"], seed=0)
        timings["ann_build_s"] = time.perf_counter() - started
    started = time.perf_counter()
    handle = store.publish(model, index=index)
    timings["publish_s"] = time.perf_counter() - started
    timings["segment_mb"] = handle.total_nbytes / 1e6


def build_ingest(config: dict, store: ModelStore, timings: dict):
    """Base matrix + trained base model, published; returns ``(session, stream)``."""
    started = time.perf_counter()
    stream = streams.RatingStream(LiveIngestSize(**config["size"]), config["seed"], config["batches"])
    timings["generate_s"] = time.perf_counter() - started
    size = stream.size
    trainer = HeterogeneousTrainer(
        algorithm="hsgd_star",
        hardware=HardwareConfig(cpu_threads=2, gpu_count=0),
        training=TrainingConfig(
            latent_factors=size.latent_factors,
            learning_rate=size.learning_rate,
            iterations=size.train_iterations,
            seed=config["seed"],
        ),
        seed=config["seed"],
    )
    session = IngestSession(
        trainer,
        stream.base,
        store=store,
        window_size=size.window_size,
        # Thresholds no reading can trip: the only retrain is the forced one.
        policy=DriftPolicy(rmse_increase=1e9, min_coverage=0.0),
        backend="simulate",
        train_iterations=size.train_iterations,
        retrain_iterations=size.retrain_iterations,
    )
    started = time.perf_counter()
    session.start()
    timings["base_train_s"] = time.perf_counter() - started
    timings["segment_mb"] = store.current_handle().total_nbytes / 1e6
    return session, stream


def ingest_batch(session: IngestSession, stream: "streams.RatingStream", log: list) -> None:
    users, items, vals = stream.next_batch()
    called = time.monotonic()
    report = session.ingest(users, items, vals)
    log.append(
        {
            "called": called,
            "returned": time.monotonic(),
            "version": report.published_version,
            "model_changed": bool(report.folded_users or report.folded_items or report.retrained),
            "publish_error": report.publish_error,
            "window_rmse": report.drift.rmse if report.drift else None,
        }
    )


def phase_a(session, stream, duration: float, interval: float) -> dict:
    """A batch every ``interval`` seconds, one forced retrain half-way.

    A batch is never sent less than ``interval`` after the one before it:
    after the retrain's stall the schedule shifts instead of catching up
    in a burst, so phase A's publishes stay 200 ms apart.
    """
    log: list = []
    retrain = None
    started = time.monotonic()
    due = started
    while due - started < duration:
        if retrain is None and due - started >= duration / 2:
            retrain = {"started": time.monotonic()}
            session.retrain()
            retrain["ended"] = time.monotonic()
        ingest_batch(session, stream, log)
        due = max(due + interval, time.monotonic())
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
    return {"batches": log, "retrain": retrain}


def phase_b(session, stream, batches: int) -> dict:
    """``batches`` ingests back to back."""
    log: list = []
    started = time.perf_counter()
    for _ in range(batches):
        ingest_batch(session, stream, log)
    stats = session.stats
    return {
        "batches": log,
        "wall_s": time.perf_counter() - started,
        "stats": {
            "publishes": stats.publishes,
            "publish_failures": stats.publish_failures,
            "folded_users": stats.folded_users,
            "folded_items": stats.folded_items,
            "retrains": stats.retrains,
        },
    }


async def serve(config: dict) -> None:
    loop = asyncio.get_running_loop()
    timings: dict = {}
    store = ModelStore()
    servers = []
    try:
        if config["kind"] == "ingest":
            session, stream = build_ingest(config, store, timings)
        else:
            build_serving(config, store, timings)
        started = time.perf_counter()
        for overrides in config["servers"]:
            # Default ServiceConfig except the slate cache: with it on, the
            # benchmark would time a dict lookup after the first pass over users.
            server = RecommendServer(store, ServiceConfig(cache_size=0, **overrides))
            await server.start()
            servers.append(server)
        timings["server_start_s"] = time.perf_counter() - started
        reply(
            event="ready",
            ports=[server.port for server in servers],
            pid=os.getpid(),
            readers=[child.pid for child in multiprocessing.active_children()],
            timings=timings,
        )
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            command = json.loads(line) if line.strip() else {"op": "stop"}
            if command["op"] == "stop":
                break
            if command["op"] == "phase_a":
                result = await loop.run_in_executor(
                    None, phase_a, session, stream, command["duration"], command["interval"]
                )
            elif command["op"] == "phase_b":
                result = await loop.run_in_executor(None, phase_b, session, stream, command["batches"])
            else:
                result = {"error": f"unknown op {command['op']!r}"}
            reply(event=command["op"], **result)
    finally:
        for server in servers:
            await server.stop()
        store.close()
    reply(event="stopped", segments_leaked=len(live_segment_names()))


if __name__ == "__main__":
    asyncio.run(serve(json.loads(sys.argv[1])))
