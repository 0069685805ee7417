"""The serving workloads: ``serve_frontdoor``, ``serve_catalog``, ``live_ingest``.

The system under test is a separate process tree (``sut.py``); this
process is the load generator.  Each measured phase is bracketed by a
``/stats`` read and a ``/proc`` CPU reading, so every phase reports
sent/ok/503/504/error counts, server-side counters and the CPU the
event loop, the readers and the generator each spent on it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hardware.fingerprint import usable_cores
from repro.serve import brute_force_top_k
from repro.serve.bench import recall_at_k, synthetic_model
from repro.service.loadgen import HttpClient
from repro.shm import live_segment_names

import probes
from loadgen import PhaseResult, closed_loop, open_loop
from procs import SutProcess
from spec import P99_MIN_SAMPLES, QUICK_SIZES, RECALL_SLATES, SIZES, WARMUP_SECONDS
from tracing import Tracer, percentile
from train_workloads import Outcome

NPROC = usable_cores()


async def server_stats(port: int) -> dict:
    client = HttpClient("127.0.0.1", port)
    try:
        status, payload = await client.get("/stats")
    finally:
        await client.close()
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return payload


def reader_total(stats: dict, key: str) -> int:
    return sum(int(reader.get(key, 0)) for reader in stats["readers"].values())


class Phases:
    """Runs load phases against one SUT and keeps each phase's outside view."""

    def __init__(self, sut: SutProcess) -> None:
        self.sut = sut
        self.results: Dict[str, PhaseResult] = {}
        self.server: Dict[str, Dict[str, float]] = {}

    async def run(self, port: int, phase) -> PhaseResult:
        """Await ``phase`` (a load coroutine) between two outside readings."""
        stats_before, cpu_before = await server_stats(port), self.sut.cpu()
        result: PhaseResult = await phase
        stats_after, cpu_after = await server_stats(port), self.sut.cpu()
        delta = {
            key: stats_after["server"][key] - stats_before["server"][key]
            for key in ("requests", "served", "rejected_overload", "expired_deadline", "failed", "model_swaps")
        }
        batches = reader_total(stats_after, "batches_scored") - reader_total(stats_before, "batches_scored")
        scored = reader_total(stats_after, "users_scored") - reader_total(stats_before, "users_scored")
        requests = max(result.ok, 1)
        delta.update(
            mean_batch=scored / batches if batches else 0.0,
            max_in_flight=stats_after["server"]["max_in_flight"],
            reload_failures=reader_total(stats_after, "reload_failures"),
            eventloop_cpu_ms_per_req=(cpu_after["eventloop"] - cpu_before["eventloop"]) * 1000.0 / requests,
            reader_cpu_ms_per_req=(cpu_after["readers"] - cpu_before["readers"]) * 1000.0 / requests,
        )
        self.results[result.name] = result
        self.server[result.name] = delta
        return result

    @property
    def attempted(self) -> int:
        return sum(result.sent for result in self.results.values())

    @property
    def failed(self) -> int:
        return sum(result.failed for result in self.results.values())

    def detail(self) -> Dict[str, object]:
        return {
            name: {**result.counts(), "server": self.server[name]} for name, result in self.results.items()
        }

    def stats_layers(self, throughput_phase: str, latency_phase: str) -> Dict[str, float]:
        """The ``/stats``, ``/proc`` and generator rows of the layer table."""
        server = self.server[throughput_phase]
        requests = sum(delta["requests"] for delta in self.server.values())
        latency = self.results[latency_phase]
        return {
            "service.eventloop_cpu_ms_per_req": server["eventloop_cpu_ms_per_req"],
            "service.reader_cpu_ms_per_req": server["reader_cpu_ms_per_req"],
            "service.stats.mean_batch": server["mean_batch"],
            "service.stats.max_in_flight": max(delta["max_in_flight"] for delta in self.server.values()),
            "service.rejected_share": sum(d["rejected_overload"] for d in self.server.values()) / max(requests, 1),
            "service.expired_share": sum(d["expired_deadline"] for d in self.server.values()) / max(requests, 1),
            "loadgen.late_p99_ms": percentile(latency.late_ms, 99),
            "loadgen.cpu_share": max(result.cpu_share for result in self.results.values()),
            "loadgen.p95_ms": latency.pct(95),
            "loadgen.p999_ms": latency.pct(99.9),
        }


def served_and_exact(model, slates: List[tuple], k: int = 10) -> Tuple[np.ndarray, np.ndarray]:
    """``(served, exact)`` item ids of the kept slates; exact is brute force on ``model``."""
    if not slates:
        return np.empty((0, k), dtype=np.int64), np.empty((0, k), dtype=np.int64)
    users = np.asarray([user for _, user, _, _ in slates], dtype=np.int64)
    exact, _ = brute_force_top_k(model.p[users] @ model.q, k)
    return np.asarray([items for _, _, items, _ in slates], dtype=np.int64), exact


class Serving:
    """A published synthetic model behind ``RecommendServer``, read over HTTP."""

    def __init__(self, name: str, seed: int, quick: bool, seconds: float) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.size = (QUICK_SIZES if quick else SIZES)[name]
        self.sut: Optional[SutProcess] = None
        self.users = np.random.default_rng(seed).integers(0, self.size.n_users, size=8192)

    def sut_config(self) -> dict:
        """What the server tree is told: shapes, tiers and the seed of the factors."""
        size = self.size
        return {
            "kind": "serve",
            "seed": self.seed,
            "n_users": size.n_users,
            "n_items": size.n_items,
            "latent_factors": size.latent_factors,
            "nlist": size.nlist if size.ann_share else 0,
            "servers": [{}] + ([{"ann": True, "nprobe": size.nprobe}] if size.ann_share else []),
        }

    def setup(self, tracer: Tracer) -> Dict[str, float]:
        with tracer.span("service:start"):
            self.sut = SutProcess(self.sut_config())
        with tracer.span("service:warmup"):
            asyncio.run(self._warmup())
        return {}

    async def _warmup(self) -> None:
        share = WARMUP_SECONDS / len(self.sut.ports)
        for port in self.sut.ports:
            await closed_loop("warmup", port, self.users, NPROC, share, Tracer(False))

    def run(self, tracer: Tracer) -> Outcome:
        phases = Phases(self.sut)
        self.phases = phases
        asyncio.run(self._phases(phases, self.seconds, tracer))
        size = self.size
        closed, opened = phases.results["closed"], phases.results["open"]
        e2e = {
            "closed_qps": closed.qps,
            "req_p50_ms": opened.pct(50),
            "req_p99_ms": opened.pct(99),
            "peak_rss_mb": self.sut.peak_rss_mb(),
        }
        model = synthetic_model(size.n_users, size.n_items, size.latent_factors, seed=self.seed)
        served, exact = served_and_exact(model, closed.slates + opened.slates)
        mismatches = int((served != exact).any(axis=1).sum())
        versions = {version for result in phases.results.values() for version in result.versions}
        checks = {
            "slates_match_brute_force": mismatches == 0,
            "versions_published": versions <= {1},
            "versions_monotonic": all(result.version_regressions == 0 for result in phases.results.values()),
            "generator_not_saturated": all(result.cpu_share <= 0.8 for result in phases.results.values()),
        }
        detail: Dict[str, object] = {
            "phases": phases.detail(),
            "slates_checked": len(served),
            "p99_samples_ok": len(opened.latencies_ms) >= P99_MIN_SAMPLES,
            "sut_setup": self.sut.timings,
        }
        if size.ann_share:
            ann = phases.results["ann_closed"]
            e2e["ann_closed_qps"] = ann.qps
            e2e["ann_recall_at_10"] = recall_at_k(*served_and_exact(model, ann.slates[:RECALL_SLATES]))
            checks["ann_recall_floor"] = e2e["ann_recall_at_10"] >= 0.95
            detail["ann_slates_checked"] = min(len(ann.slates), RECALL_SLATES)
        self.model = model
        return Outcome(e2e, phases.attempted, phases.failed + mismatches, checks, detail)

    async def _phases(self, phases: Phases, seconds: float, tracer: Tracer) -> None:
        size, port = self.size, self.sut.ports[0]
        with tracer.span("loadgen:closed"):
            await phases.run(
                port, closed_loop("closed", port, self.users, NPROC, size.closed_share * seconds, tracer)
            )
        with tracer.span("loadgen:open"):
            await phases.run(
                port,
                open_loop("open", port, self.users, size.open_rate, size.open_share * seconds, NPROC, tracer),
            )
        if size.ann_share:
            ann_port = self.sut.ports[1]
            with tracer.span("loadgen:ann_closed"):
                await phases.run(
                    ann_port, closed_loop("ann_closed", ann_port, self.users, NPROC, size.ann_share * seconds, tracer)
                )

    def layers(self, tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
        size = self.size
        layers = self.phases.stats_layers("closed", "open")
        layers.update(probes.protocol(tracer, self.users))
        layers.update(probes.scoring(tracer, self.model, self.users))
        layers.update(probes.store(tracer, self.model, size.nlist if size.ann_share else 0, size.nprobe, self.users))
        layers["service.frontdoor_efficiency"] = (
            outcome.e2e["closed_qps"] / layers["serve.service.direct_users_per_s"]
        )
        in_request_us = sum(
            layers[name]
            for name in (
                "service.protocol.parse_us",
                "service.routing.route_us",
                "serve.scorer.batch1_us",
                "service.protocol.render_us",
            )
        )
        layers["service.residual_ms"] = outcome.e2e["req_p50_ms"] - in_request_us / 1000.0
        return layers

    def teardown(self) -> int:
        """Stop the server tree; returns the segments anybody leaked."""
        sut, self.sut = self.sut, None
        leaked = sut.stop() if sut is not None else 0
        return leaked + len(live_segment_names())


class LiveIngest:
    """``IngestSession`` publishing into the store a ``RecommendServer`` reads."""

    name = "live_ingest"

    def __init__(self, seed: int, quick: bool, seconds: float) -> None:
        self.seed = seed
        self.size = (QUICK_SIZES if quick else SIZES)[self.name]
        self.phase_a_seconds = self.size.phase_a_share * seconds
        self.sut: Optional[SutProcess] = None
        # Reads are for base users only: newcomers exist in later versions alone.
        self.users = np.random.default_rng(seed).integers(0, self.size.base_rows, size=8192)

    def sut_config(self) -> dict:
        # One more than fit: the pacing loop may start a batch at the last instant.
        phase_a_batches = math.ceil(self.phase_a_seconds / self.size.batch_interval) + 1
        return {
            "kind": "ingest",
            "seed": self.seed,
            "size": dataclasses.asdict(self.size),
            "batches": phase_a_batches + self.size.phase_b_batches,
            "servers": [{}],
        }

    def setup(self, tracer: Tracer) -> Dict[str, float]:
        with tracer.span("service:start"):
            self.sut = SutProcess(self.sut_config())
        with tracer.span("service:warmup"):
            asyncio.run(closed_loop("warmup", self.sut.ports[0], self.users, NPROC, WARMUP_SECONDS, Tracer(False)))
        return {"datasets.generate_s": self.sut.timings["generate_s"]}

    def run(self, tracer: Tracer) -> Outcome:
        size, sut = self.size, self.sut
        phases = Phases(sut)
        self.phases = phases
        duration = self.phase_a_seconds
        with tracer.span("stream:phase_a"):
            phase_a = asyncio.run(self._phase_a(phases, duration, tracer))
        sut.peak_rss_mb()  # readers the back-to-back publishes of phase B kill are gone afterwards
        with tracer.span("stream:phase_b"):
            phase_b = sut.command("phase_b", batches=size.phase_b_batches)
        final_stats = asyncio.run(server_stats(sut.ports[0]))
        self.phase_a, self.phase_b, self.final_stats = phase_a, phase_b, final_stats

        reads = phases.results["reads"]
        order = np.argsort(reads.done_at)
        done_at = np.asarray(reads.done_at)[order]
        versions = np.asarray(reads.versions)[order]
        visible_ms = []
        for batch in phase_a["batches"]:
            if batch["version"] is None:
                continue
            served = np.flatnonzero(versions >= batch["version"])
            if len(served):
                visible_ms.append((done_at[served[0]] - batch["returned"]) * 1000.0)
        self.visible_ms = visible_ms
        batches = phase_a["batches"] + phase_b["batches"]
        publish_errors = sum(1 for batch in batches if batch["publish_error"])
        published = max(batch["version"] or 0 for batch in batches)
        e2e = {
            "final_rmse": phase_b["batches"][-1]["window_rmse"],
            "req_p50_ms": reads.pct(50),
            "req_p99_ms": reads.pct(99),
            # Ratings over the median batch's time: the back-to-back publishes
            # of phase B race the readers' swaps, and each reader the program
            # loses and respawns stalls the ingest thread for a random while.
            "ingest_ratings_per_s": size.batch_ratings / (percentile(self._batch_ms(phase_b), 50) / 1000.0),
            "publish_to_served_ms": percentile(visible_ms, 50),
            "peak_rss_mb": sut.peak_rss_mb(),
        }
        checks = {
            "versions_published": bool(len(versions) and 1 <= versions.min() and versions.max() <= published),
            "versions_monotonic": reads.version_regressions == 0,
            # A batch publishes exactly when it changed the live model.
            "every_change_published": all(
                (batch["version"] is not None) == batch["model_changed"] for batch in batches
            ),
            "final_rmse_under_ceiling": bool(e2e["final_rmse"] <= size.rmse_ceiling),
            "no_reload_failures": reader_total(final_stats, "reload_failures") == 0,
            "one_retrain": phase_b["stats"]["retrains"] == 1,
            "generator_not_saturated": reads.cpu_share <= 0.8,
        }
        detail = {
            "phases": phases.detail(),
            "phase_a_batches": len(phase_a["batches"]),
            "phase_b_batches": len(phase_b["batches"]),
            "publishes_observed": len(visible_ms),
            "p99_samples_ok": len(reads.latencies_ms) >= P99_MIN_SAMPLES,
            "phase_b_wall_s": phase_b["wall_s"],
            "reader_deaths": final_stats["server"]["reader_deaths"],
            "ingest_stats": phase_b["stats"],
            "sut_setup": sut.timings,
        }
        attempted = phases.attempted + len(batches)
        return Outcome(e2e, attempted, phases.failed + publish_errors, checks, detail)

    @staticmethod
    def _batch_ms(phase: dict) -> List[float]:
        return [(batch["returned"] - batch["called"]) * 1000.0 for batch in phase["batches"]]

    async def _phase_a(self, phases: Phases, duration: float, tracer: Tracer) -> dict:
        size, sut = self.size, self.sut
        port = sut.ports[0]
        sut.send("phase_a", duration=duration, interval=size.batch_interval)
        await phases.run(port, open_loop("reads", port, self.users, size.read_rate, duration, NPROC, tracer))
        # Batches a retrain pushed late finish after the reads do.
        return sut.read()

    def layers(self, tracer: Tracer, outcome: Outcome) -> Dict[str, float]:
        reads = self.phases.results["reads"]
        layers = self.phases.stats_layers("reads", "reads")
        layers.update(probes.protocol(tracer, self.users))
        layers.update(probes.streaming(tracer, self.size, self.seed))
        layers.update(probes.store(tracer, probes.random_model(self.size), 0, 0, self.users))
        batch_ms = self._batch_ms(self.phase_b)
        retrain = self.phase_a["retrain"]
        due_at = np.asarray(reads.done_at) - np.asarray(reads.latencies_ms) / 1000.0
        during = (due_at >= retrain["started"]) & (due_at <= retrain["ended"])
        stats = self.phase_b["stats"]
        layers.update(
            {
                "stream.ingest_batch_p50_ms": percentile(batch_ms, 50),
                "stream.ingest_batch_p99_ms": percentile(batch_ms, 99),
                "stream.retrain_s": retrain["ended"] - retrain["started"],
                "stream.retrain_req_p99_ms": percentile(np.asarray(reads.latencies_ms)[during], 99),
                "stream.publishes": stats["publishes"],
                "stream.folded_users": stats["folded_users"],
                "stream.folded_items": stats["folded_items"],
                "service.stats.model_swaps": self.final_stats["server"]["model_swaps"],
                "service.stats.reload_failures": reader_total(self.final_stats, "reload_failures"),
                "service.stats.reader_deaths": self.final_stats["server"]["reader_deaths"],
                "service.swap_visible_max_ms": max(self.visible_ms) if self.visible_ms else float("nan"),
            }
        )
        return layers

    def teardown(self) -> int:
        sut, self.sut = self.sut, None
        leaked = sut.stop() if sut is not None else 0
        return leaked + len(live_segment_names())
