"""Per-layer probes of the serving and streaming layers.

Each probe times calls into one layer's public functions, in the
benchmark process, on the workload's own model and request shapes.  They
run in the traced pass only, after the measured phases, while the server
tree sits idle.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Sequence

import numpy as np

from repro.serve import AnnScorer, IvfIndex, ModelStore, RecommendationService, Scorer, attach_model
from repro.service.protocol import read_request, render_response
from repro.service.routing import HashRing
from repro.sgd import FactorModel
from repro.stream import DriftMonitor

import streams
from spec import LiveIngestSize
from tracing import Tracer


def per_call_us(call, arguments: Sequence, repeats: int = 1) -> float:
    """Mean microseconds of ``call(argument)`` over ``arguments``, ``repeats`` times."""
    started = time.perf_counter()
    for _ in range(repeats):
        for argument in arguments:
            call(argument)
    return (time.perf_counter() - started) / (repeats * len(arguments)) * 1e6


def protocol(tracer: Tracer, users: Sequence[int], requests: int = 2000) -> Dict[str, float]:
    """Parse, route and render one ``/recommend`` exchange, without sockets."""
    users = [int(user) for user in users[:requests]]

    async def parse_all() -> float:
        spent = 0.0
        for start in range(0, len(users), 100):
            # 100 requests per reader: its buffer stays far below the stream limit.
            reader = asyncio.StreamReader()
            chunk = users[start : start + 100]
            for user in chunk:
                reader.feed_data(f"GET /recommend?user={user} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode("latin-1"))
            started = time.perf_counter()
            for _ in chunk:
                await read_request(reader)
            spent += time.perf_counter() - started
        return spent / len(users) * 1e6

    payload = {
        "user": 1234,
        "model_version": 1,
        "items": list(range(1000, 1010)),
        "scores": [float(score) for score in np.linspace(0.9, 0.1, 10) + 1e-9],
    }
    ring = HashRing(range(2))
    with tracer.span("service.protocol:probe"):
        parse_us = asyncio.run(parse_all())
        render_us = per_call_us(lambda _: render_response(200, payload), users)
    with tracer.span("service.routing:probe"):
        route_us = per_call_us(ring.route, users)
    return {
        "service.protocol.parse_us": parse_us,
        "service.protocol.render_us": render_us,
        "service.routing.route_us": route_us,
    }


def _scorer_rows(prefix: str, scorer, users: np.ndarray) -> Dict[str, float]:
    singles = [np.asarray([user]) for user in users[:200]]
    batch = np.asarray(users[:64])
    batch1_us = per_call_us(lambda one: scorer.top_k(one, 10), singles)
    batch64_us = per_call_us(lambda many: scorer.top_k(many, 10), [batch], repeats=5)
    return {f"{prefix}.batch1_us": batch1_us, f"{prefix}.users_per_s": len(batch) / (batch64_us / 1e6)}


def scoring(tracer: Tracer, model, users: np.ndarray) -> Dict[str, float]:
    """The exact scorer alone, and behind the in-process service."""
    with tracer.span("serve.scorer:probe"):
        layers = _scorer_rows("serve.scorer", Scorer(model), users)
    with tracer.span("serve.service:probe"):
        with RecommendationService(model, k=10, cache_size=0) as service:
            direct_us = per_call_us(service.recommend, [int(user) for user in users[:500]])
    layers["serve.service.direct_users_per_s"] = 1e6 / direct_us
    return layers


def store(tracer: Tracer, model, nlist: int, nprobe: int, users: np.ndarray) -> Dict[str, float]:
    """Index build, ANN scorer, publish and attach on the workload's model."""
    layers: Dict[str, float] = {}
    index = None
    if nlist:
        with tracer.span("serve.ann:build"):
            started = time.perf_counter()
            index = IvfIndex.build(model, nlist=nlist, seed=0)
            layers["serve.ann.build_s"] = time.perf_counter() - started
        with tracer.span("serve.ann:probe"):
            layers.update(_scorer_rows("serve.ann", AnnScorer(model, index, nprobe=nprobe), users))
    with ModelStore() as model_store:
        with tracer.span("serve.store:publish"):
            started = time.perf_counter()
            handle = model_store.publish(model, index=index)
            layers["serve.store.publish_ms"] = (time.perf_counter() - started) * 1000.0
        with tracer.span("serve.store:attach"):
            started = time.perf_counter()
            attached = attach_model(handle, with_index=True)
            layers["serve.store.attach_ms"] = (time.perf_counter() - started) * 1000.0
        segment = attached[-1]
        del attached  # the views pin the mapping
        segment.close()
        layers["serve.store.segment_mb"] = handle.total_nbytes / 1e6
    return layers


def random_model(size: LiveIngestSize) -> FactorModel:
    """A model of the base matrix's shape (layer costs depend on shapes only)."""
    return FactorModel.initialize(size.base_rows, size.base_cols, size.latent_factors, seed=0)


def streaming(tracer: Tracer, size: LiveIngestSize, seed: int) -> Dict[str, float]:
    """Append, fold-in and drift evaluation at one batch's shape."""
    stream = streams.RatingStream(size, seed, batches=1)
    users, items, vals = stream.next_batch()
    model = random_model(size)
    # The batch's newcomer ratings (they come first), against items the model knows.
    foldable = slice(0, max(1, int(size.batch_ratings * size.newcomer_share)))
    monitor = DriftMonitor()
    repeats = 20
    with tracer.span("sgd.foldin:probe"):
        started = time.perf_counter()
        for _ in range(repeats):
            folded, _ = model.fold_in_users(users[foldable], items[foldable] % size.base_cols, vals[foldable])
        foldin_s = (time.perf_counter() - started) / repeats
    with tracer.span("stream.drift:probe"):
        drift_us = per_call_us(lambda _: monitor.evaluate(model, users, items, vals), range(repeats))
    with tracer.span("sparse:append"):
        started = time.perf_counter()
        stream.base.append(users, items, vals)
        append_ms = (time.perf_counter() - started) * 1000.0
    return {
        "sparse.append_ms": append_ms,
        "sgd.foldin.users_per_s": len(folded) / foldin_s,
        "stream.drift_eval_ms": drift_us / 1000.0,
    }
