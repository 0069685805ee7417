"""HTTP front door for the serving layer (see DESIGN.md).

An asyncio event loop (:class:`RecommendServer`) owning admission
control, deadlines and hot swap — and scoring models small enough that
a process hand-off would cost more than the scoring — in front of a
pool of reader processes (:class:`ReaderPool`) each zero-copy attached
to the published :class:`~repro.serve.ModelStore` segment.  Stdlib
only — the HTTP subset lives in :mod:`repro.service.protocol`, user ->
reader affinity in :mod:`repro.service.routing`, and the benchmark's
client half in :mod:`repro.service.loadgen`.
"""

from .loadgen import HttpClient, LoadReport, run_closed_loop, run_open_loop
from .pool import ReaderOptions, ReaderPool
from .protocol import HttpRequest, ProtocolError, read_request, read_response, render_response
from .routing import DEFAULT_REPLICAS, HashRing
from .server import RecommendServer, ServerStats, ServiceConfig, run_server

__all__ = [
    "DEFAULT_REPLICAS",
    "HashRing",
    "HttpClient",
    "HttpRequest",
    "LoadReport",
    "ProtocolError",
    "ReaderOptions",
    "ReaderPool",
    "RecommendServer",
    "ServerStats",
    "ServiceConfig",
    "read_request",
    "read_response",
    "render_response",
    "run_closed_loop",
    "run_open_loop",
    "run_server",
]
