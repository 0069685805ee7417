"""The asyncio HTTP front door: admission control, deadlines, hot swap.

:class:`RecommendServer` is the protocol boundary the ROADMAP asks for:
an event loop in front of the :class:`~repro.service.pool.ReaderPool`,
owning every decision that must happen *before* work is queued:

* **admission control** — at most ``queue_depth`` requests may be
  in flight per reader.  The bound is enforced at accept time: an
  arrival that would exceed it is answered ``503`` with a
  ``Retry-After`` hint immediately, for the cost of parsing one request
  line.  Nothing ever queues unboundedly — under overload the server
  sheds load at wire speed instead of building a latency bomb (see
  DESIGN.md, "Admission control and the request path");
* **deadlines** — every request carries an absolute deadline (client
  supplied ``deadline_ms`` or the configured default).  The server
  stops waiting at the deadline and answers ``504``; the reader checks
  the same deadline before scoring so expired work is dropped, not
  computed; a result that arrives after its waiter gave up is discarded
  on the floor (its request id is no longer registered);
* **routing** — users map to readers through the consistent-hash
  :class:`~repro.service.routing.HashRing`, so each reader's slate
  cache stays hot and a reader death remaps only its own arc;
* **supervision** — a dead reader fails its in-flight requests with
  ``503`` (safe to retry: the work never produced partial state) and is
  respawned attached to the current model version, within a restart
  budget; past the budget the shard is removed from the ring;
* **hot swap** — a supervisor tick watches the :class:`ModelStore`,
  leases each newly published version and broadcasts the lease's handle
  to the readers, which swap between batches.  Serving never pauses:
  requests in flight complete against the version they were scored
  under, new batches pick up the new segment, and the retired segment
  is unlinked by the store's refcount exactly as in-process serving
  does;
* **two tiers** — a reader round trip has a fixed cost (pickle, pipe,
  drain thread, three wake-ups) that only a large enough scoring job
  amortises.  When the broadcast model is exact-tier and at most
  :data:`INLINE_MAX_CELLS` big, ``/recommend`` is scored inside the
  loop over the server's own lease; larger models and ``ann=True`` go
  to the readers (DESIGN.md, "Admission control and the request path").

``GET`` endpoints: ``/recommend?user=U[&k=K][&deadline_ms=D]``,
``/healthz``, and ``/stats`` (server counters plus each reader's
piggybacked :class:`~repro.serve.ServiceStats` snapshot, and the loop's
own under ``readers["loop"]``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..exceptions import ExecutionError
from ..serve.scorer import DEFAULT_CHUNK_ITEMS
from ..serve.service import DEFAULT_SERVICE_BATCH
from ..serve.store import ModelLease, ModelStore
from ..tune.profile import resolve_serving_batch_size, resolve_serving_chunk_items
from .pool import ReaderOptions, ReaderPool, ServingSlot, slate_payload
from .protocol import (
    MAX_LINE_BYTES,
    HttpRequest,
    ProtocolError,
    read_request,
    render_response,
)
from .routing import HashRing

#: Largest exact-tier model, in ``items x latent_factors`` cells, that
#: the event loop scores itself.  Scoring one user is one pass over Q:
#: 2**18 cells block the loop for about 0.15 ms, less than the 0.55 ms
#: of CPU plus three extra wake-ups a reader round trip costs.
INLINE_MAX_CELLS = 2**18


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the HTTP front door.

    ``ann=True`` serves every request from the approximate
    :class:`~repro.serve.ann.AnnScorer` tier at ``nprobe`` probed lists
    — the store's published versions must then carry an ANN index
    (``store.publish(model, index=...)``), which the server checks at
    startup rather than letting every reader crash on attach.

    ``batch_size`` and ``chunk_items`` accept ``"auto"``: resolved at
    construction time through the active
    :class:`repro.tune.TunedProfile` (falling back to the hand-picked
    defaults when none is loaded), so the reader pool only ever sees
    concrete integers.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    k: int = 10
    queue_depth: int = 64
    deadline: float = 1.0
    retry_after: float = 1.0
    batch_size: Union[int, str] = DEFAULT_SERVICE_BATCH
    cache_size: int = 4096
    chunk_items: Union[int, str] = DEFAULT_CHUNK_ITEMS
    max_reader_restarts: int = 3
    supervise_interval: float = 0.05
    start_method: Optional[str] = None
    ann: bool = False
    nprobe: int = 8

    def __post_init__(self) -> None:
        # Frozen dataclass: resolve the "auto" knobs in place so every
        # consumer (reader options, /stats) sees concrete integers.
        object.__setattr__(
            self,
            "batch_size",
            resolve_serving_batch_size(self.batch_size, DEFAULT_SERVICE_BATCH),
        )
        object.__setattr__(
            self,
            "chunk_items",
            resolve_serving_chunk_items(self.chunk_items, DEFAULT_CHUNK_ITEMS),
        )
        if self.batch_size <= 0:
            raise ExecutionError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.chunk_items <= 0:
            raise ExecutionError(
                f"chunk_items must be positive, got {self.chunk_items}"
            )
        if self.workers <= 0:
            raise ExecutionError(f"workers must be positive, got {self.workers}")
        if self.queue_depth <= 0:
            raise ExecutionError(f"queue_depth must be positive, got {self.queue_depth}")
        if self.deadline <= 0:
            raise ExecutionError(f"deadline must be positive, got {self.deadline}")
        if self.k <= 0:
            raise ExecutionError(f"k must be positive, got {self.k}")
        if self.nprobe <= 0:
            raise ExecutionError(f"nprobe must be positive, got {self.nprobe}")


@dataclass
class ServerStats:
    """Event-loop-side counters exposed by ``/stats``."""

    requests: int = 0
    served: int = 0
    served_inline: int = 0
    rejected_overload: int = 0
    expired_deadline: int = 0
    failed: int = 0
    bad_requests: int = 0
    reader_deaths: int = 0
    reader_respawns: int = 0
    model_swaps: int = 0
    swap_failures: int = 0
    max_in_flight: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class _InFlight:
    """One admitted request awaiting its reader's result."""

    future: asyncio.Future
    reader: int
    deadline: float


class RecommendServer:
    """Asyncio HTTP/JSON server over a pool of shared-memory readers.

    The server does not own the :class:`ModelStore` — the publisher
    (trainer, ingest session, or test) does; the server follows its
    current version, holding one :class:`ModelLease` on the version it
    has broadcast from :meth:`start` until :meth:`stop` — so stop the
    server before closing the store.  Both are idempotent enough for
    error-path cleanup.
    """

    def __init__(self, store: ModelStore, config: ServiceConfig = ServiceConfig()) -> None:
        self._store = store
        self.config = config
        self.stats = ServerStats()
        self._handle = store.current_handle()
        if config.ann and self._handle.index is None:
            raise ExecutionError(
                "ann=True but the published model carries no index; "
                "publish with store.publish(model, index=IvfIndex.build(model))"
            )
        self._options = ReaderOptions(
            k=config.k,
            batch_size=config.batch_size,
            cache_size=config.cache_size,
            chunk_items=config.chunk_items,
            ann=config.ann,
            nprobe=config.nprobe,
        )
        self._lease: Optional[ModelLease] = None
        # Holds a service exactly while the broadcast version is inline.
        self._inline = ServingSlot(self._options)
        self._pool: Optional[ReaderPool] = None
        self._ring: Optional[HashRing] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._supervisor: Optional[asyncio.Task] = None
        self._in_flight: Dict[int, _InFlight] = {}
        self._per_reader_load: Dict[int, int] = {}
        self._reader_stats: Dict[int, dict] = {}
        self._reader_versions: Dict[int, int] = {}
        self._ready: Dict[int, asyncio.Future] = {}
        self._next_request_id = 0
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0`` in tests)."""
        if self._server is None:
            raise ExecutionError("the server is not running")
        return self._server.sockets[0].getsockname()[1]

    @property
    def model_version(self) -> int:
        """The version the server last broadcast to its readers."""
        return self._handle.version

    async def start(self, wait_ready: float = 10.0) -> None:
        """Spawn the reader pool, bind the socket, start supervising."""
        if self._started:
            raise ExecutionError("the server is already running")
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._ready = {
            index: self._loop.create_future() for index in range(self.config.workers)
        }
        self._adopt(self._store.acquire())
        self._pool = ReaderPool(
            self._handle,
            workers=self.config.workers,
            options=self._options,
            on_message=self._post_message,
            start_method=self.config.start_method,
        )
        self._ring = HashRing(range(self.config.workers))
        self._per_reader_load = {index: 0 for index in range(self.config.workers)}
        self._pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self._supervisor = self._loop.create_task(self._supervise())
        if wait_ready:
            # Readers that die during startup are respawned by the
            # supervisor; waiting is best-effort so a chaos test cannot
            # wedge start() forever.
            try:
                await asyncio.wait_for(
                    asyncio.gather(*self._ready.values()), timeout=wait_ready
                )
            except asyncio.TimeoutError:  # pragma: no cover - slow machine
                pass

    async def stop(self) -> None:
        """Stop accepting, fail in-flight requests, stop the pool."""
        if self._stopped:
            return
        self._stopped = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for record in list(self._in_flight.values()):
            if not record.future.done():
                record.future.set_result(("error", "server stopped"))
        self._in_flight.clear()
        if self._pool is not None:
            await asyncio.get_running_loop().run_in_executor(None, self._pool.stop)
        self._inline.detach()
        if self._lease is not None:
            self._lease.release()
            self._lease = None

    # ------------------------------------------------------------------ #
    # Pool messages (drain thread -> loop)
    # ------------------------------------------------------------------ #
    def _post_message(self, message: tuple) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._on_pool_message, message)

    def _on_pool_message(self, message: tuple) -> None:
        kind = message[0]
        if kind == "results":
            _, index, results, stats, version = message
            self._reader_stats[index] = stats
            self._reader_versions[index] = version
            for req_id, status, payload in results:
                record = self._in_flight.pop(req_id, None)
                if record is None:
                    continue  # waiter already timed out: late result dropped
                self._per_reader_load[record.reader] = max(
                    0, self._per_reader_load.get(record.reader, 0) - 1
                )
                if not record.future.done():
                    record.future.set_result((status, payload))
        elif kind == "ready":
            _, index, version = message
            self._reader_versions[index] = version
            ready = self._ready.get(index)
            if ready is not None and not ready.done():
                ready.set_result(version)
        elif kind == "died":
            self._on_reader_death(message[1])

    def _on_reader_death(self, index: int) -> None:
        """Fail the dead reader's in-flight work and schedule its respawn."""
        self.stats.reader_deaths += 1
        stranded = [
            req_id
            for req_id, record in self._in_flight.items()
            if record.reader == index
        ]
        for req_id in stranded:
            record = self._in_flight.pop(req_id)
            if not record.future.done():
                # 503, not 500: the request produced no state, a retry
                # after the respawn will succeed.
                record.future.set_result(("died", None))
        self._per_reader_load[index] = 0
        if self._pool is None or self._stopped:
            return
        if self._pool.restarts(index) >= self.config.max_reader_restarts:
            self._retire_shard(index)
            return
        self.stats.reader_respawns += 1
        self._pool.respawn(index)

    def _retire_shard(self, index: int) -> None:
        """Take a budget-exhausted reader out of rotation for good."""
        self._pool.mark_failed(index)
        # A retired reader will never send "ready": resolve its future so
        # start() returns degraded now instead of at its wait_ready timeout.
        ready = self._ready.get(index)
        if ready is not None and not ready.done():
            ready.set_result(None)
        if self._ring is not None and len(self._ring) > 1:
            self._ring.remove_shard(index)
        elif self._ring is not None:
            self._ring = None  # last reader gone: every request is 503

    # ------------------------------------------------------------------ #
    # Supervision: liveness + hot swap
    # ------------------------------------------------------------------ #
    async def _supervise(self) -> None:
        while True:
            await asyncio.sleep(self.config.supervise_interval)
            current = self._store.current_version
            if current is None or current == self._handle.version:
                continue
            try:
                # acquire() reads "current" and pins it under one lock; a
                # handle read first and pinned second races the next
                # publish, which may already have unlinked it.
                self._adopt(self._store.acquire())
            except ExecutionError:
                self.stats.swap_failures += 1
                continue
            self._pool.update_model(self._handle)
            self.stats.model_swaps += 1

    def _adopt(self, lease: ModelLease) -> None:
        """Make ``lease`` the broadcast version and pick its tier.

        The tier is a property of the version's shape, decided here once:
        every request between two swaps takes the same path, so versions
        cannot go backwards on a connection.
        """
        handle = lease.handle
        self._inline.detach()  # before the old lease goes: its scorer views the segment
        if (
            not self.config.ann
            and handle.n_cols * handle.latent_factors <= INLINE_MAX_CELLS
        ):
            try:
                self._inline.attach(lease.model, None, handle.version)
            except BaseException:
                lease.release()
                raise
        previous, self._lease, self._handle = self._lease, lease, handle
        if previous is not None:
            previous.release()

    # ------------------------------------------------------------------ #
    # HTTP handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError:
                    self.stats.bad_requests += 1
                    writer.write(
                        render_response(
                            400, {"error": "malformed request"}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, request: HttpRequest) -> bytes:
        keep = request.keep_alive
        if request.method != "GET":
            return render_response(
                405, {"error": "only GET is supported"}, keep_alive=keep
            )
        if request.path == "/healthz":
            return render_response(200, self._health_payload(), keep_alive=keep)
        if request.path == "/stats":
            return render_response(200, self._stats_payload(), keep_alive=keep)
        if request.path == "/recommend":
            return await self._recommend(request)
        return render_response(404, {"error": f"no route {request.path}"}, keep_alive=keep)

    def _health_payload(self) -> dict:
        healthy = self._ring is not None
        return {
            "status": "ok" if healthy else "degraded",
            "model_version": self._handle.version,
            "readers": 0 if self._ring is None else len(self._ring),
            "in_flight": len(self._in_flight),
        }

    def _stats_payload(self) -> dict:
        readers = {str(index): stats for index, stats in self._reader_stats.items()}
        # The loop is one more scorer: sums over "readers" count every request.
        readers["loop"] = self._inline.snapshot()
        requests = sum(int(stats.get("requests", 0)) for stats in readers.values())
        hits = sum(int(stats.get("cache_hits", 0)) for stats in readers.values())
        return {
            "server": self.stats.as_dict(),
            "tier": "ann" if self.config.ann else "exact",
            "in_flight": len(self._in_flight),
            "queue_limit": self.config.queue_depth * self.config.workers,
            "per_reader_in_flight": dict(self._per_reader_load),
            "model_version": self._handle.version,
            "reader_versions": dict(self._reader_versions),
            "readers": readers,
            "cache_hit_rate": round(hits / requests, 4) if requests else 0.0,
        }

    async def _recommend(self, request: HttpRequest) -> bytes:
        keep = request.keep_alive
        self.stats.requests += 1
        try:
            user = int(request.query["user"])
        except (KeyError, ValueError):
            self.stats.bad_requests += 1
            return render_response(
                400, {"error": "a numeric user=<id> parameter is required"}, keep_alive=keep
            )
        try:
            k = int(request.query.get("k", self.config.k))
            deadline_ms = float(
                request.query.get("deadline_ms", self.config.deadline * 1000.0)
            )
        except ValueError:
            self.stats.bad_requests += 1
            return render_response(
                400, {"error": "k and deadline_ms must be numeric"}, keep_alive=keep
            )
        if k <= 0 or k > self.config.k:
            # Slates are cached at the configured k; any smaller k is a
            # prefix of that slate, a larger one would need a rescore.
            self.stats.bad_requests += 1
            return render_response(
                400,
                {"error": f"k must lie in [1, {self.config.k}]"},
                keep_alive=keep,
            )
        if deadline_ms <= 0:
            self.stats.bad_requests += 1
            return render_response(
                400, {"error": "deadline_ms must be positive"}, keep_alive=keep
            )

        if self._inline.service is not None:
            return self._recommend_inline(user, k, keep)
        if self._ring is None:
            self.stats.rejected_overload += 1
            return self._overloaded(keep, reason="no readers available")
        reader = self._ring.route(user)
        if (
            self._per_reader_load.get(reader, 0) >= self.config.queue_depth
            or len(self._in_flight) >= self.config.queue_depth * self.config.workers
        ):
            self.stats.rejected_overload += 1
            return self._overloaded(keep)

        deadline = time.monotonic() + deadline_ms / 1000.0
        req_id = self._next_request_id
        self._next_request_id += 1
        future = self._loop.create_future()
        self._in_flight[req_id] = _InFlight(
            future=future, reader=reader, deadline=deadline
        )
        self._per_reader_load[reader] = self._per_reader_load.get(reader, 0) + 1
        self.stats.max_in_flight = max(self.stats.max_in_flight, len(self._in_flight))
        if not self._pool.send(reader, ("req", req_id, user, deadline)):
            self._forget(req_id)
            self.stats.rejected_overload += 1
            return self._overloaded(keep, reason="reader unreachable")
        try:
            status, payload = await asyncio.wait_for(
                future, timeout=max(0.0, deadline - time.monotonic())
            )
        except asyncio.TimeoutError:
            # Deadline fired while the request was queued or scoring; the
            # id is unregistered so a late result is dropped on arrival.
            self._forget(req_id)
            self.stats.expired_deadline += 1
            return render_response(
                504, {"error": "deadline exceeded", "user": user}, keep_alive=keep
            )
        if status == "ok":
            self.stats.served += 1
            payload = dict(payload)
            payload["items"] = payload["items"][:k]
            payload["scores"] = payload["scores"][:k]
            return render_response(200, payload, keep_alive=keep)
        if status == "expired":
            self.stats.expired_deadline += 1
            return render_response(
                504, {"error": "deadline exceeded", "user": user}, keep_alive=keep
            )
        if status == "died":
            self.stats.failed += 1
            return self._overloaded(keep, reason="reader died; retry")
        self.stats.failed += 1
        return render_response(
            500, {"error": f"scoring failed: {payload}"}, keep_alive=keep
        )

    def _recommend_inline(self, user: int, k: int, keep: bool) -> bytes:
        """Score in the loop: nothing queues, so no 503 and no 504 here."""
        try:
            slate = self._inline.service.recommend(user)
        except Exception as error:  # a 500, as from a reader; never a dead loop
            self.stats.failed += 1
            return render_response(
                500, {"error": f"scoring failed: {error!r}"}, keep_alive=keep
            )
        self.stats.served += 1
        self.stats.served_inline += 1
        return render_response(200, slate_payload(slate, k), keep_alive=keep)

    def _forget(self, req_id: int) -> None:
        record = self._in_flight.pop(req_id, None)
        if record is not None:
            self._per_reader_load[record.reader] = max(
                0, self._per_reader_load.get(record.reader, 0) - 1
            )

    def _overloaded(self, keep_alive: bool, reason: str = "queue full") -> bytes:
        return render_response(
            503,
            {"error": f"overloaded: {reason}"},
            extra_headers={"Retry-After": f"{self.config.retry_after:g}"},
            keep_alive=keep_alive,
        )


async def run_server(
    store: ModelStore,
    config: ServiceConfig = ServiceConfig(),
    ready: Optional[asyncio.Event] = None,
    duration: Optional[float] = None,
) -> RecommendServer:
    """Run a server until cancelled (or for ``duration`` seconds).

    The CLI's ``repro serve`` entry: publishes nothing itself — the
    caller owns the store — and shuts the pool down cleanly on the way
    out.  Setting ``ready`` lets a caller in another task learn the
    bound port.
    """
    server = RecommendServer(store, config)
    await server.start()
    try:
        if ready is not None:
            ready.set()
        if duration is None:
            while True:
                await asyncio.sleep(3600.0)
        else:
            await asyncio.sleep(duration)
    finally:
        await server.stop()
    return server
