"""Reader worker pool: N processes serving one shared model copy.

Each reader process attaches zero-copy to the published
:class:`~repro.serve.ModelStore` segment (:func:`repro.serve.attach_model`)
and runs a :class:`~repro.serve.RecommendationService` over it — the same
coalescing/caching/versioned-cache-key semantics the in-process API has,
now behind a process boundary.  The pool is the bridge between the
asyncio server (which owns admission control and deadlines) and those
readers.

Transport: one duplex :func:`multiprocessing.Pipe` **per reader**, never
a shared queue.  The fault-tolerance work on the training side (see
DESIGN.md, "Failure model and recovery") found the failure mode the hard
way: a process SIGKILLed while holding a shared queue's write lock
wedges every other producer forever.  Per-reader pipes make a reader's
death *detectable* (its pipe EOFs, waking the drain thread immediately)
and *contained* (no lock any other reader needs dies with it).

Message protocol (server -> reader)::

    ("req",   req_id, user, deadline)   score one user (absolute
                                        monotonic deadline; expired work
                                        is dropped, never scored)
    ("model", handle)                   hot-swap to a newer published
                                        version between batches
    ("stop",)                           drain and exit

and reader -> server::

    ("ready",   index, version)         attached and serving
    ("results", index, [(req_id, status, payload), ...], stats, version)

Readers coalesce greedily: after the blocking receive of one request,
everything already queued on the pipe (up to ``batch_size``) is drained
into the same scoring batch, so a burst pays one chunked matmul instead
of one per request.  Expired requests are dropped *before* scoring —
the deadline fires in the reader too, not only at the server — and
reported with status ``"expired"`` so the server can account them.

The pool's owner (the server's supervisor task) is responsible for
reacting to death notifications: :meth:`ReaderPool.respawn` replaces a
dead reader over a **fresh pipe**, re-attached to the current model
version, with the respawn budget enforced by the caller.

Two things here are also used by the server's event loop, which scores
small models itself instead of paying a reader round trip:
:class:`ServingSlot` (a service over a model somebody else keeps mapped,
counters kept across versions) and :func:`slate_payload` (a slate as
its JSON body).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Dict, List, Optional, Tuple

from .. import faults
from ..exceptions import ExecutionError
from ..serve.ann import IvfIndex
from ..serve.service import Recommendation, RecommendationService, ServiceStats
from ..serve.store import ModelHandle, attach_model
from ..sgd.model import FactorModel

#: Fault-injection points evaluated inside reader processes (see
#: :mod:`repro.faults`): ``service.reader.start`` on attach,
#: ``service.reader.request`` once per coalesced scoring batch.
FAULT_READER_START = "service.reader.start"
FAULT_READER_REQUEST = "service.reader.request"


@dataclass(frozen=True)
class ReaderOptions:
    """Picklable per-reader serving configuration.

    ``ann=True`` makes every reader serve from the approximate
    :class:`~repro.serve.ann.AnnScorer` tier at ``nprobe`` probed lists;
    the published handle must then carry an index (model and index ride
    one segment, so a reader can never pair them across versions).
    """

    k: int = 10
    batch_size: int = 64
    cache_size: int = 4096
    chunk_items: int = 8192
    ann: bool = False
    nprobe: int = 8


@dataclass
class _Reader:
    """Pool-side record of one reader process."""

    index: int
    process: object
    conn: object
    restarts: int = 0
    failed: bool = False
    started_at: float = field(default_factory=time.monotonic)


def _merge_stats(total: Dict[str, object], update: Dict[str, object]) -> None:
    """Accumulate one service-stats snapshot into a running total."""
    for key, value in update.items():
        if isinstance(value, dict):
            bucket = total.setdefault(key, {})
            for sub, count in value.items():
                bucket[sub] = bucket.get(sub, 0) + count
        else:
            total[key] = total.get(key, 0) + value


def slate_payload(slate: Recommendation, k: Optional[int] = None) -> Dict[str, object]:
    """The ``/recommend`` JSON body of one scored slate (its first ``k``)."""
    return {
        "user": slate.user,
        "model_version": slate.model_version,
        "items": slate.items[:k].tolist(),
        "scores": slate.scores[:k].tolist(),
    }


class ServingSlot:
    """One :class:`RecommendationService` at a time, counters kept across swaps.

    What a reader process and the server's event loop both need: a
    service built from :class:`ReaderOptions` over a model somebody else
    keeps mapped (an attached segment in a reader, a
    :class:`~repro.serve.ModelLease` in the loop), replaced version by
    version, with one ``/stats`` snapshot summed over every version
    served.  The slot owns the service, never the mapping: callers
    :meth:`detach` before they close the segment or release the lease,
    because the service's scorer holds views into it.
    """

    def __init__(self, options: ReaderOptions) -> None:
        self._options = options
        self.service: Optional[RecommendationService] = None
        self._totals: Dict[str, object] = ServiceStats().as_dict()
        self.expired_dropped = 0
        self.swaps = 0

    def attach(self, model: FactorModel, index: Optional[IvfIndex], version: int) -> None:
        """Serve ``model`` (and ``index`` on the ANN tier) as ``version``."""
        self.detach()
        options = self._options
        self.service = RecommendationService(
            model,
            k=options.k,
            batch_size=options.batch_size,
            cache_size=options.cache_size,
            chunk_items=options.chunk_items,
            model_version=version,
            ann=options.ann,
            nprobe=options.nprobe,
            index=index,
        )

    def detach(self) -> None:
        """Close the open service, if any, keeping its counters."""
        if self.service is None:
            return
        _merge_stats(self._totals, self.service.stats.as_dict())
        self.swaps += 1
        self.service.close()
        self.service = None

    def snapshot(self) -> Dict[str, object]:
        """Service stats summed across swaps, plus the slot's own counters."""
        combined: Dict[str, object] = {}
        _merge_stats(combined, self._totals)
        service = self.service
        if service is not None:
            _merge_stats(combined, service.stats.as_dict())
        combined["expired_dropped"] = self.expired_dropped
        combined["swaps"] = self.swaps
        # Not summed: _merge_stats only adds numbers.
        combined["queue_depth"] = service.queue_depth if service is not None else 0
        combined["tier"] = "ann" if self._options.ann else "exact"
        return combined


def _reader_main(index: int, handle: ModelHandle, options: ReaderOptions, conn) -> None:
    """Reader process entry point (module-level: pickles under spawn)."""
    slot = ServingSlot(options)
    segment = None

    def _attach(new_handle: ModelHandle) -> None:
        nonlocal segment
        slot.detach()
        if segment is not None:
            segment.close()
            segment = None
        # Model and index are mapped from ONE handle over ONE stamped
        # segment — the version the service reports is atomically the
        # version of both.
        model, ivf, segment = attach_model(new_handle, with_index=True)
        slot.attach(model, ivf, new_handle.version)

    try:
        # Pin the fault plan once: env plans re-parse (with zeroed
        # arrival counters) on every active_plan() call, which would
        # turn a one-shot spec into fire-on-every-batch.
        faults.install(faults.active_plan())
        faults.hit(FAULT_READER_START, worker=index)
        _attach(handle)
        conn.send(("ready", index, slot.service.model_version))
        stopping = False
        while not stopping:
            try:
                message = conn.recv()
            except EOFError:  # server went away; nothing to serve for
                break
            batch: List[tuple] = []
            while True:
                kind = message[0]
                if kind == "stop":
                    stopping = True
                elif kind == "model":
                    _attach(message[1])
                elif kind == "req":
                    batch.append(message)
                if stopping or len(batch) >= options.batch_size or not conn.poll():
                    break
                try:
                    message = conn.recv()
                except EOFError:
                    stopping = True
            if not batch:
                continue
            results: List[Tuple[int, str, object]] = []
            try:
                # The fault point models a reader dying (kill) or wedging
                # (stall) mid-request, after admission but before any
                # result is produced.
                faults.hit(FAULT_READER_REQUEST, worker=index)
                now = time.monotonic()
                pending = []
                for _, req_id, user, deadline in batch:
                    if deadline is not None and now >= deadline:
                        slot.expired_dropped += 1
                        results.append((req_id, "expired", None))
                        continue
                    pending.append((req_id, slot.service.enqueue(int(user))))
                slot.service.flush()
                for req_id, request in pending:
                    results.append((req_id, "ok", slate_payload(request.result)))
            except faults.FaultInjected as error:
                results = [(req_id, "error", repr(error)) for _, req_id, _, _ in batch]
            except Exception as error:  # surfaced as 500s, never a dead reader
                done = {req_id for req_id, _, _ in results}
                results.extend(
                    (req_id, "error", repr(error))
                    for _, req_id, _, _ in batch
                    if req_id not in done
                )
            conn.send(
                ("results", index, results, slot.snapshot(), slot.service.model_version)
            )
    except (EOFError, OSError, BrokenPipeError):  # pragma: no cover - server died
        pass
    finally:
        slot.detach()
        if segment is not None:
            segment.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class ReaderPool:
    """Owns the reader processes and their pipes.

    Thread model: ``send``/``update_model``/``respawn``/``stop`` are
    called from the event-loop thread only; one internal drain thread
    receives every reader's messages and forwards them to
    ``on_message`` (which the server marshals back into the loop with
    ``call_soon_threadsafe``).  Duplex pipes are safe under exactly this
    split — one sending thread, one receiving thread.
    """

    def __init__(
        self,
        handle: ModelHandle,
        workers: int,
        options: ReaderOptions,
        on_message: Callable[[tuple], None],
        start_method: Optional[str] = None,
    ) -> None:
        if workers <= 0:
            raise ExecutionError(f"the reader pool needs >= 1 worker, got {workers}")
        self._handle = handle
        self._options = options
        self._on_message = on_message
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else multiprocessing.get_start_method(allow_none=False)
            )
        self._ctx = multiprocessing.get_context(start_method)
        self._workers = int(workers)
        self._readers: Dict[int, _Reader] = {}
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._drain: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn every reader and the drain thread."""
        for index in range(self._workers):
            self._spawn(index)
        self._drain = threading.Thread(
            target=self._drain_loop, name="reader-pool-drain", daemon=True
        )
        self._drain.start()

    def _spawn(self, index: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_reader_main,
            args=(index, self._handle, self._options, child_conn),
            daemon=True,
            name=f"repro-reader-{index}",
        )
        process.start()
        child_conn.close()
        with self._lock:
            self._readers[index] = _Reader(index=index, process=process, conn=parent_conn)

    def stop(self, timeout: float = 5.0) -> None:
        """Stop every reader (idempotent); stragglers are terminated."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        with self._lock:
            readers = list(self._readers.values())
        for reader in readers:
            try:
                reader.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        deadline = time.monotonic() + timeout
        for reader in readers:
            reader.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if reader.process.is_alive():  # pragma: no cover - wedged reader
                reader.process.terminate()
                reader.process.join(timeout=1.0)
        if self._drain is not None:
            self._drain.join(timeout=timeout)
        with self._lock:
            for reader in self._readers.values():
                try:
                    reader.conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            self._readers.clear()

    # ------------------------------------------------------------------ #
    # Server-facing operations (event-loop thread)
    # ------------------------------------------------------------------ #
    def send(self, index: int, message: tuple) -> bool:
        """Ship one message to a reader; ``False`` if it is unreachable."""
        with self._lock:
            reader = self._readers.get(index)
        if reader is None or reader.failed:
            return False
        try:
            reader.conn.send(message)
            return True
        except (OSError, BrokenPipeError):
            return False

    def update_model(self, handle: ModelHandle) -> None:
        """Broadcast a newly published version to every live reader."""
        self._handle = handle
        with self._lock:
            indices = [r.index for r in self._readers.values() if not r.failed]
        for index in indices:
            self.send(index, ("model", handle))

    def alive(self, index: int) -> bool:
        with self._lock:
            reader = self._readers.get(index)
        return bool(reader and not reader.failed and reader.process.is_alive())

    def restarts(self, index: int) -> int:
        with self._lock:
            reader = self._readers.get(index)
        return 0 if reader is None else reader.restarts

    def mark_failed(self, index: int) -> None:
        """Take a reader permanently out of service (budget exhausted)."""
        with self._lock:
            reader = self._readers.get(index)
            if reader is not None:
                reader.failed = True

    def respawn(self, index: int) -> int:
        """Replace a dead reader over a fresh pipe; returns its restart count.

        The new process attaches to the *current* model handle, so a
        reader that died before a hot swap completes comes back already
        on the new version.
        """
        with self._lock:
            old = self._readers.get(index)
            restarts = (old.restarts if old else 0) + 1
        if old is not None:
            if old.process.is_alive():  # pragma: no cover - defensive
                old.process.terminate()
            old.process.join(timeout=1.0)
            try:
                old.conn.close()
            except OSError:
                pass
            with self._lock:
                self._readers.pop(index, None)
        self._spawn(index)
        with self._lock:
            self._readers[index].restarts = restarts
        return restarts

    # ------------------------------------------------------------------ #
    # Drain thread
    # ------------------------------------------------------------------ #
    def _drain_loop(self) -> None:
        while not self._stopping.is_set():
            with self._lock:
                by_conn = {
                    reader.conn: reader.index
                    for reader in self._readers.values()
                    if not reader.failed
                }
            if not by_conn:
                time.sleep(0.05)
                continue
            try:
                ready = connection_wait(list(by_conn), timeout=0.2)
            except OSError:  # a conn was closed under us (respawn race)
                continue
            for conn in ready:
                index = by_conn[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # Reader death: its pipe EOFed.  Tell the server once
                    # and stop polling this conn (respawn replaces it).
                    with self._lock:
                        reader = self._readers.get(index)
                        if reader is not None and reader.conn is conn:
                            dead = not self._stopping.is_set()
                        else:
                            dead = False
                    if dead:
                        self._on_message(("died", index))
                        with self._lock:
                            reader = self._readers.get(index)
                            if reader is not None and reader.conn is conn:
                                reader.failed = True
                    continue
                self._on_message(message)
