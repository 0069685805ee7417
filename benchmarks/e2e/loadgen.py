"""The benchmark's own load generator, over ``repro.service.loadgen.HttpClient``.

One thread, one asyncio loop, at most ``connections`` keep-alive
connections (``nproc`` by default), so the generator cannot take more of
the machine than the system under test has.

* :func:`closed_loop` — each connection sends its next request when the
  previous response lands: throughput at a stated client count.
* :func:`open_loop` — requests fall due on a fixed absolute schedule and
  wait in a client-side FIFO for a free connection.  Latency is timed
  **from the instant the request was due**, so a stall is charged to
  every request it delays, and ``late_ms`` (send - due) says how far the
  generator itself ran behind.

With ``nproc`` connections the server never has more than ``nproc``
requests in flight: admission shedding and deep coalescing are not
exercised here (``benchmarks/bench_service.py``'s overload probe does
that).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.service.loadgen import HttpClient
from repro.service.protocol import ProtocolError

from spec import CHECK_EVERY
from tracing import Tracer, percentile

#: Width of the windows :attr:`PhaseResult.qps` takes its median over.
QPS_WINDOW = 0.25


@dataclass
class PhaseResult:
    """Counts and samples of one load phase."""

    name: str
    started_at: float = 0.0
    duration_s: float = 0.0
    sent: int = 0
    ok: int = 0
    rejected_503: int = 0
    expired_504: int = 0
    errors: int = 0
    #: Latency of each 200 response, ms (open loop: from due time).
    latencies_ms: List[float] = field(default_factory=list)
    #: Completion instant (``time.monotonic``) of each 200 response.
    done_at: List[float] = field(default_factory=list)
    #: ``model_version`` of each 200 response.
    versions: List[int] = field(default_factory=list)
    #: send - due of every request sent, ms (open loop only).
    late_ms: List[float] = field(default_factory=list)
    #: The 200 response to every ``CHECK_EVERY``-th position of the seeded
    #: user sequence: ``(position, user, items, version)``, in position order
    #: once the phase ends.  Keyed on the position, not on how many responses
    #: came back, so a seed keeps the same users whatever the box's speed.
    slates: List[Tuple[int, int, List[int], int]] = field(default_factory=list)
    #: A connection saw ``model_version`` go backwards.
    version_regressions: int = 0
    cpu_share: float = 0.0

    @property
    def failed(self) -> int:
        return self.sent - self.ok

    @property
    def qps(self) -> float:
        """200 responses per second: the median over ``QPS_WINDOW``-second windows.

        A noisy neighbour slows a shared box for seconds at a time; the
        median window says what the program sustains, where the mean would
        say how unlucky the run was.
        """
        windows = int(self.duration_s / QPS_WINDOW)
        if windows < 2:
            return self.ok / self.duration_s if self.duration_s > 0 else 0.0
        offsets = np.asarray(self.done_at) - self.started_at
        counts = np.bincount((offsets / QPS_WINDOW).astype(np.int64), minlength=windows)[:windows]
        return float(np.median(counts)) / QPS_WINDOW

    def pct(self, q: float) -> float:
        return percentile(self.latencies_ms, q)

    def counts(self) -> Dict[str, float]:
        return {
            "duration_s": self.duration_s,
            "sent": self.sent,
            "ok": self.ok,
            "rejected_503": self.rejected_503,
            "expired_504": self.expired_504,
            "errors": self.errors,
            "samples": len(self.latencies_ms),
            "p50_ms": self.pct(50),
            "p99_ms": self.pct(99),
            "cpu_share": self.cpu_share,
        }


class _Connection:
    """One keep-alive connection plus the per-connection version check."""

    def __init__(self, port: int, result: PhaseResult, tracer: Tracer) -> None:
        self.client = HttpClient("127.0.0.1", port)
        self.result = result
        self.tracer = tracer
        self.last_version = -1

    async def request(self, position: int, users: Sequence[int], timed_from: Optional[float] = None) -> None:
        """Ask for ``users[position]``; latency counts from ``timed_from`` (default: now)."""
        result = self.result
        user = int(users[position % len(users)])
        sent_at = time.monotonic()
        span_start = time.perf_counter()
        if timed_from is not None:
            result.late_ms.append((sent_at - timed_from) * 1000.0)
        result.sent += 1
        try:
            status, payload = await self.client.get(f"/recommend?user={user}")
        except (ProtocolError, ConnectionError, OSError):
            result.errors += 1
            await self.client.close()
            return
        done = time.monotonic()
        self.tracer.add("service:request", span_start, time.perf_counter())
        if status == 200:
            version = int(payload["model_version"])
            result.ok += 1
            result.latencies_ms.append((done - (sent_at if timed_from is None else timed_from)) * 1000.0)
            result.done_at.append(done)
            result.versions.append(version)
            if version < self.last_version:
                result.version_regressions += 1
            self.last_version = version
            if position % CHECK_EVERY == 0:
                result.slates.append((position, user, payload["items"], version))
        elif status == 503:
            result.rejected_503 += 1
        elif status == 504:
            result.expired_504 += 1
        else:
            result.errors += 1


def _finish(result: PhaseResult, cpu_started: float) -> PhaseResult:
    result.duration_s = time.monotonic() - result.started_at
    result.cpu_share = (time.process_time() - cpu_started) / result.duration_s
    result.slates.sort()
    return result


async def closed_loop(
    name: str, port: int, users: Sequence[int], clients: int, duration: float, tracer: Tracer
) -> PhaseResult:
    """``clients`` back-to-back connections for ``duration`` seconds."""
    started = time.monotonic()
    result = PhaseResult(name, started_at=started)
    connections = [_Connection(port, result, tracer) for _ in range(clients)]
    cpu_started = time.process_time()
    stop_at = started + duration

    async def one_client(connection: _Connection, offset: int) -> None:
        position = offset
        while time.monotonic() < stop_at:
            await connection.request(position, users)
            position += clients

    try:
        await asyncio.gather(*(one_client(c, i) for i, c in enumerate(connections)))
    finally:
        for connection in connections:
            await connection.client.close()
    return _finish(result, cpu_started)


async def open_loop(
    name: str, port: int, users: Sequence[int], rate: float, duration: float, connections: int, tracer: Tracer
) -> PhaseResult:
    """Requests due every ``1/rate`` seconds for ``duration`` seconds."""
    started = time.monotonic()
    result = PhaseResult(name, started_at=started)
    pool = [_Connection(port, result, tracer) for _ in range(connections)]
    fifo: "asyncio.Queue[Optional[Tuple[int, float]]]" = asyncio.Queue()
    interval = 1.0 / rate
    total = int(duration * rate)
    cpu_started = time.process_time()

    async def schedule() -> None:
        for sequence in range(total):
            due = started + sequence * interval
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            fifo.put_nowait((sequence, due))
        for _ in pool:
            fifo.put_nowait(None)

    async def drain(connection: _Connection) -> None:
        while (item := await fifo.get()) is not None:
            sequence, due = item
            await connection.request(sequence, users, timed_from=due)

    try:
        await asyncio.gather(schedule(), *(drain(connection) for connection in pool))
    finally:
        for connection in pool:
            await connection.client.close()
    return _finish(result, cpu_started)
