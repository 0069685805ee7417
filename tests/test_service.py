"""Tests for the HTTP front door (:mod:`repro.service`).

Covers the wire protocol, the consistent-hash routing layer, and the
full server against a live reader pool: correctness vs the in-process
scorer, admission control (503, never unbounded queueing), deadline
propagation (504, late results dropped), zero-downtime hot swap under
load, and — in the chaos tier — a reader SIGKILLed mid-request with
recovery and zero leaked segments.  The server scores small exact-tier
models inside its event loop and sends everything else to the readers;
tests that are about queueing, deadlines or reader death publish a
reader-tier shape, the rest run on both.
"""

import asyncio
import json

import numpy as np
import pytest

from repro import faults
from repro.exceptions import ExecutionError, ReproError
from repro.serve import AnnScorer, IvfIndex, ModelStore, Scorer
from repro.service import (
    HashRing,
    HttpClient,
    HttpRequest,
    ProtocolError,
    RecommendServer,
    ServiceConfig,
    read_request,
    read_response,
    render_response,
    run_closed_loop,
    run_open_loop,
)
from repro.service.server import INLINE_MAX_CELLS
from repro.sgd import FactorModel
from repro.shm import live_segment_names

#: Catalogue shapes either side of ``INLINE_MAX_CELLS``: the first is
#: scored in the event loop, the second by the reader processes.
INLINE_SHAPE = {"n": 45, "k": 5}
READER_SHAPE = {"n": 2100, "k": 128}
assert INLINE_SHAPE["n"] * INLINE_SHAPE["k"] <= INLINE_MAX_CELLS
assert READER_SHAPE["n"] * READER_SHAPE["k"] > INLINE_MAX_CELLS

both_tiers = pytest.mark.parametrize(
    "shape", [INLINE_SHAPE, READER_SHAPE], ids=["inline", "readers"]
)


@pytest.fixture(autouse=True)
def service_hygiene(monkeypatch, tmp_path):
    """Isolated runtime dir, no fault-plan bleed, no leaked segments."""
    monkeypatch.setenv("REPRO_RUNTIME_DIR", str(tmp_path / "runtime"))
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.clear()
    yield
    faults.clear()
    assert live_segment_names() == ()


def _model(m=60, n=45, k=5, seed=11):
    return FactorModel.initialize(m, n, k, seed=seed)


def _feed(raw: bytes) -> asyncio.StreamReader:
    """Build a pre-filled stream reader (must run inside a loop)."""
    reader = asyncio.StreamReader()
    reader.feed_data(raw)
    reader.feed_eof()
    return reader


def _parse(raw: bytes):
    async def scenario():
        return await read_request(_feed(raw))

    return asyncio.run(scenario())


class TestProtocol:
    def test_parses_request_line_query_and_headers(self):
        request = _parse(
            b"GET /recommend?user=7&k=3 HTTP/1.1\r\n"
            b"Host: localhost\r\nX-Tag: abc\r\n\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/recommend"
        assert request.query == {"user": "7", "k": "3"}
        assert request.headers["x-tag"] == "abc"
        assert request.keep_alive  # HTTP/1.1 default

    def test_connection_close_disables_keep_alive(self):
        request = HttpRequest(method="GET", path="/", headers={"connection": "Close"})
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    @pytest.mark.parametrize(
        "raw",
        [
            b"GET /x",  # truncated mid request line
            b"GARBAGE\r\n\r\n",  # not a request line
            b"GET /x HTTP/2\r\n\r\n",  # unsupported version
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"GET /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ],
    )
    def test_malformed_requests_raise(self, raw):
        with pytest.raises(ProtocolError):
            _parse(raw)

    def test_too_many_headers_rejected(self):
        headers = b"".join(b"H%d: v\r\n" % i for i in range(80))
        with pytest.raises(ProtocolError):
            _parse(b"GET / HTTP/1.1\r\n" + headers + b"\r\n")

    def test_content_length_body_is_read(self):
        request = _parse(b"GET /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody")
        assert request.body == b"body"

    def test_render_read_roundtrip(self):
        payload = {"user": 3, "items": [1, 2]}
        raw = render_response(200, payload, extra_headers={"Retry-After": "1"})

        async def scenario():
            return await read_response(_feed(raw))

        status, headers, parsed = asyncio.run(scenario())
        assert status == 200
        assert headers["retry-after"] == "1"
        assert parsed == payload

    def test_render_sets_connection_header(self):
        assert b"Connection: close" in render_response(503, keep_alive=False)
        assert b"Connection: keep-alive" in render_response(200, {})


class TestHashRing:
    def test_routing_is_deterministic_across_instances(self):
        a = HashRing(range(4))
        b = HashRing(range(4))
        users = range(500)
        assert [a.route(u) for u in users] == [b.route(u) for u in users]

    def test_all_shards_receive_traffic(self):
        ring = HashRing(range(4))
        owners = {ring.route(user) for user in range(2000)}
        assert owners == {0, 1, 2, 3}

    def test_removal_remaps_only_the_dead_shards_arc(self):
        ring = HashRing(range(4))
        users = list(range(2000))
        before = {user: ring.route(user) for user in users}
        ring.remove_shard(2)
        moved = sum(
            1 for user in users if before[user] != 2 and ring.route(user) != before[user]
        )
        # Users not owned by shard 2 must keep their warm reader.
        assert moved == 0
        assert all(ring.route(u) != 2 for u in users)

    def test_cannot_remove_last_shard(self):
        ring = HashRing([0])
        with pytest.raises(ReproError):
            ring.remove_shard(0)

    def test_add_and_len(self):
        ring = HashRing([0])
        ring.add_shard(1)
        ring.add_shard(1)  # idempotent
        assert len(ring) == 2
        assert ring.shards == (0, 1)


def _serve(store, config, scenario):
    """Run ``scenario(server, client)`` against a started server."""

    async def body():
        server = RecommendServer(store, config)
        await server.start()
        client = HttpClient("127.0.0.1", server.port)
        try:
            return await scenario(server, client)
        finally:
            await client.close()
            await server.stop()

    return asyncio.run(body())


class TestRecommendServer:
    @both_tiers
    def test_recommendations_match_the_in_process_scorer(self, shape):
        model = _model(**shape)
        with ModelStore() as store:
            store.publish(model)
            expected_items, expected_scores = Scorer(model).top_k(
                np.asarray([7]), 5
            )

            async def scenario(server, client):
                status, payload = await client.get("/recommend?user=7&k=5")
                assert status == 200
                assert payload["user"] == 7
                assert payload["model_version"] == 1
                assert payload["items"] == [int(i) for i in expected_items[0]]
                np.testing.assert_allclose(payload["scores"], expected_scores[0])
                assert server.stats.served_inline == (1 if shape is INLINE_SHAPE else 0)

            _serve(store, ServiceConfig(workers=1, k=5), scenario)

    @both_tiers
    def test_k_is_sliced_from_the_cached_slate(self, shape):
        with ModelStore() as store:
            store.publish(_model(**shape))

            async def scenario(server, client):
                status, full = await client.get("/recommend?user=3&k=5")
                assert status == 200
                status, short = await client.get("/recommend?user=3&k=2")
                assert status == 200
                assert short["items"] == full["items"][:2]

            _serve(store, ServiceConfig(workers=1, k=5), scenario)

    @both_tiers
    def test_http_error_statuses(self, shape):
        with ModelStore() as store:
            store.publish(_model(**shape))

            async def scenario(server, client):
                for target, expected in [
                    ("/recommend", 400),  # no user
                    ("/recommend?user=abc", 400),
                    ("/recommend?user=1&k=99", 400),  # k above config.k
                    ("/recommend?user=1&deadline_ms=-5", 400),
                    ("/nope", 404),
                ]:
                    status, _ = await client.get(target)
                    assert status == expected, target
                # Non-GET -> 405.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"POST /recommend HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                status, _, _ = await read_response(reader)
                assert status == 405
                writer.close()
                await writer.wait_closed()

            _serve(store, ServiceConfig(workers=1, k=5), scenario)

    def test_malformed_request_gets_400_and_close(self):
        with ModelStore() as store:
            store.publish(_model())

            async def scenario(server, client):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"NOT-HTTP\r\n\r\n")
                await writer.drain()
                status, headers, _ = await read_response(reader)
                assert status == 400
                assert headers["connection"] == "close"
                writer.close()
                await writer.wait_closed()
                assert server.stats.bad_requests >= 1

            _serve(store, ServiceConfig(workers=1, k=5), scenario)

    @both_tiers
    def test_healthz_and_stats_payloads(self, shape):
        with ModelStore() as store:
            store.publish(_model(**shape))

            async def scenario(server, client):
                status, health = await client.get("/healthz")
                assert status == 200
                assert health["status"] == "ok"
                assert health["model_version"] == 1
                assert health["readers"] == 2
                for user in range(8):
                    status, _ = await client.get(f"/recommend?user={user}")
                    assert status == 200
                status, _ = await client.get("/recommend?user=0")  # cache hit
                status, stats = await client.get("/stats")
                assert status == 200
                assert stats["server"]["served"] == 9
                assert stats["queue_limit"] == server.config.queue_depth * 2
                # Reader snapshots piggyback on results: the service's
                # extended counters are visible through /stats.
                reader_stats = list(stats["readers"].values())
                assert reader_stats, "no reader snapshot arrived"
                merged_requests = sum(s["requests"] for s in reader_stats)
                assert merged_requests >= 8
                for snapshot in reader_stats:
                    assert "requests_by_version" in snapshot
                    assert "max_queue_depth" in snapshot
                    assert "queue_depth" in snapshot
                assert 0.0 <= stats["cache_hit_rate"] <= 1.0

            _serve(store, ServiceConfig(workers=2, k=5), scenario)

    def test_deadline_fires_as_504_and_late_result_is_dropped(self, monkeypatch):
        with ModelStore() as store:
            store.publish(_model(**READER_SHAPE))
            monkeypatch.setenv(
                faults.FAULTS_ENV,
                json.dumps(
                    [
                        {
                            "point": "service.reader.request",
                            "mode": "stall",
                            "seconds": 0.8,
                        }
                    ]
                ),
            )

            async def scenario(server, client):
                monkeypatch.delenv(faults.FAULTS_ENV)
                status, _ = await client.get("/recommend?user=1&deadline_ms=100")
                assert status == 504
                assert server.stats.expired_deadline == 1
                # The stalled batch's late result must be dropped, and
                # the reader then serves normally.
                await asyncio.sleep(0.9)
                status, payload = await client.get("/recommend?user=1")
                assert status == 200
                assert server.stats.served == 1
                assert len(server._in_flight) == 0

            _serve(store, ServiceConfig(workers=1, k=5, deadline=2.0), scenario)

    def test_overload_sheds_503_with_retry_after(self, monkeypatch):
        with ModelStore() as store:
            store.publish(_model(**READER_SHAPE))
            monkeypatch.setenv(
                faults.FAULTS_ENV,
                json.dumps(
                    [
                        {
                            "point": "service.reader.request",
                            "mode": "stall",
                            "seconds": 0.6,
                        }
                    ]
                ),
            )
            config = ServiceConfig(
                workers=1, k=5, queue_depth=2, deadline=5.0, retry_after=2.0
            )

            async def scenario(server, client):
                monkeypatch.delenv(faults.FAULTS_ENV)

                async def one(user):
                    mine = HttpClient("127.0.0.1", server.port)
                    try:
                        return await mine.get(f"/recommend?user={user}")
                    finally:
                        await mine.close()

                results = await asyncio.gather(*(one(user) for user in range(8)))
                statuses = [status for status, _ in results]
                # The queue bound admits at most queue_depth requests;
                # everyone else is shed immediately with a hint.
                assert statuses.count(503) >= 6
                assert statuses.count(200) >= 1
                rejected = next(p for s, p in results if s == 503)
                assert "overloaded" in rejected["error"]
                assert server.stats.rejected_overload >= 6

            _serve(store, config, scenario)

    def test_retry_after_header_present_on_503(self, monkeypatch):
        with ModelStore() as store:
            store.publish(_model(**READER_SHAPE))
            monkeypatch.setenv(
                faults.FAULTS_ENV,
                json.dumps(
                    [
                        {
                            "point": "service.reader.request",
                            "mode": "stall",
                            "seconds": 0.6,
                        }
                    ]
                ),
            )
            config = ServiceConfig(
                workers=1, k=5, queue_depth=1, deadline=5.0, retry_after=2.5
            )

            async def scenario(server, client):
                monkeypatch.delenv(faults.FAULTS_ENV)
                first = asyncio.ensure_future(client.get("/recommend?user=0"))
                await asyncio.sleep(0.1)  # let it occupy the queue slot
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /recommend?user=1 HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                status, headers, _ = await read_response(reader)
                assert status == 503
                assert headers["retry-after"] == "2.5"
                writer.close()
                await writer.wait_closed()
                await first

            _serve(store, config, scenario)

    @both_tiers
    def test_hot_swap_under_load_is_zero_downtime(self, shape):
        """The pinned acceptance test: publish mid-load, nothing fails."""
        with ModelStore() as store:
            store.publish(_model(**shape, seed=1))

            async def scenario(server, client):
                versions = []
                for user in range(120):
                    if user == 30:
                        store.publish(_model(**shape, seed=2))
                    status, payload = await client.get(
                        f"/recommend?user={user % 60}"
                    )
                    assert status == 200, f"request {user} failed during swap"
                    versions.append(payload["model_version"])
                    if user == 30:
                        await asyncio.sleep(0.1)  # give the watcher a tick
                assert versions[0] == 1
                assert versions[-1] == 2, "swap never reached the readers"
                assert server.stats.model_swaps == 1
                assert server.model_version == 2
                # Readers confirm the version roll through their stats.
                status, stats = await client.get("/stats")
                by_version = {}
                for snapshot in stats["readers"].values():
                    for version, count in snapshot["requests_by_version"].items():
                        by_version[version] = by_version.get(version, 0) + count
                assert set(by_version) == {"1", "2"}

            _serve(
                store,
                ServiceConfig(workers=2, k=5, supervise_interval=0.02),
                scenario,
            )

    def test_ann_hot_swap_never_mixes_model_and_index_versions(self):
        """Every ANN response matches a pure-v1 or pure-v2 slate.

        Model and index share one segment and one commit stamp, so a
        reader can never score version-2 factors through the version-1
        index (or vice versa).  Each response's slate must equal the
        slate an :class:`AnnScorer` built from that version's own
        model+index pair produces for that user.
        """
        model_v1, model_v2 = _model(seed=1), _model(seed=2)
        index_v1 = IvfIndex.build(model_v1, nlist=8, seed=0)
        index_v2 = IvfIndex.build(model_v2, nlist=8, seed=0)
        users = np.arange(60)
        slates = {
            1: AnnScorer(model_v1, index_v1, nprobe=4).top_k(users, 5)[0],
            2: AnnScorer(model_v2, index_v2, nprobe=4).top_k(users, 5)[0],
        }
        with ModelStore() as store:
            store.publish(model_v1, index=index_v1)

            async def scenario(server, client):
                versions = []
                for request in range(120):
                    user = request % 60
                    if request == 30:
                        store.publish(model_v2, index=index_v2)
                    status, payload = await client.get(f"/recommend?user={user}")
                    assert status == 200, f"request {request} failed during swap"
                    version = payload["model_version"]
                    assert version in slates, f"unknown version {version}"
                    assert payload["items"] == [
                        int(i) for i in slates[version][user]
                    ], f"request {request} mixed versions"
                    versions.append(version)
                    if request == 30:
                        await asyncio.sleep(0.1)  # give the watcher a tick
                assert versions[0] == 1
                assert versions[-1] == 2, "swap never reached the readers"
                assert server.model_version == 2
                status, stats = await client.get("/stats")
                assert stats["tier"] == "ann"
                for snapshot in stats["readers"].values():
                    assert snapshot["tier"] == "ann"

            _serve(
                store,
                ServiceConfig(
                    workers=2,
                    k=5,
                    ann=True,
                    nprobe=4,
                    supervise_interval=0.02,
                ),
                scenario,
            )

    def test_model_crossing_the_threshold_changes_tier_not_availability(self):
        """Small, then large, then small again under one keep-alive
        connection: the loop scores the small versions, the readers the
        large one, and the client sees neither a failure nor an older
        version than it has already seen."""
        with ModelStore() as store:
            store.publish(_model(seed=1))

            async def scenario(server, client):
                versions = []
                for step in range(150):
                    if step == 50:
                        store.publish(_model(**READER_SHAPE, seed=2))
                    if step == 100:
                        store.publish(_model(seed=3))
                    status, payload = await client.get(f"/recommend?user={step % 60}")
                    assert status == 200, f"request {step} failed"
                    versions.append(payload["model_version"])
                    if step in (50, 100):
                        await asyncio.sleep(0.1)  # give the watcher a tick
                assert versions == sorted(versions)
                assert set(versions) == {1, 2, 3}
                status, stats = await client.get("/stats")
                loop = stats["readers"].pop("loop")
                assert set(loop["requests_by_version"]) == {"1", "3"}
                assert stats["server"]["served_inline"] == loop["requests"]
                by_readers = set()
                for snapshot in stats["readers"].values():
                    by_readers.update(snapshot["requests_by_version"])
                assert by_readers == {"2"}
                assert stats["server"]["served"] == 150

            _serve(
                store,
                ServiceConfig(workers=2, k=5, supervise_interval=0.02),
                scenario,
            )

    def test_ann_is_never_served_inline(self):
        model = _model()
        with ModelStore() as store:
            store.publish(model, index=IvfIndex.build(model, nlist=8, seed=0))

            async def scenario(server, client):
                for user in range(5):
                    status, _ = await client.get(f"/recommend?user={user}")
                    assert status == 200
                status, stats = await client.get("/stats")
                assert stats["server"]["served_inline"] == 0
                assert stats["readers"]["loop"]["requests"] == 0
                assert stats["readers"]["loop"]["tier"] == "ann"

            _serve(store, ServiceConfig(workers=1, k=5, ann=True, nprobe=4), scenario)

    def test_stop_releases_the_lease(self):
        store = ModelStore()
        store.publish(_model())

        async def scenario(server, client):
            status, _ = await client.get("/recommend?user=1")
            assert status == 200
            store.publish(_model(seed=2))
            # Version 1 is retired but stays mapped: the server pins what
            # it has broadcast until it has broadcast something newer.
            assert store.live_versions == (1, 2)

        _serve(store, ServiceConfig(workers=1, k=5, supervise_interval=5.0), scenario)
        assert store.live_versions == (2,)
        store.close()  # raises if the server still held its lease

    def test_closing_the_store_under_a_live_server_is_refused(self):
        """The server's lease makes ``close()`` fail in the closer, not
        in the supervisor: serving and hot swap carry on."""
        with ModelStore() as store:
            store.publish(_model())

            async def scenario(server, client):
                with pytest.raises(ExecutionError, match="unreleased leases"):
                    store.close()
                status, _ = await client.get("/recommend?user=1")
                assert status == 200
                store.publish(_model(seed=2))
                await asyncio.sleep(0.1)
                assert server.model_version == 2
                assert server.stats.swap_failures == 0

            _serve(store, ServiceConfig(workers=1, k=5, supervise_interval=0.02), scenario)

    def test_failed_acquire_is_counted_and_the_supervisor_keeps_ticking(self, monkeypatch):
        with ModelStore() as store:
            store.publish(_model())

            async def scenario(server, client):
                def closed():
                    raise ExecutionError("the model store is closed")

                with monkeypatch.context() as patch:
                    patch.setattr(store, "acquire", closed)
                    store.publish(_model(seed=2))
                    await asyncio.sleep(0.1)
                    assert server.stats.swap_failures >= 1
                    assert server.model_version == 1
                    status, payload = await client.get("/recommend?user=1")
                    assert (status, payload["model_version"]) == (200, 1)
                await asyncio.sleep(0.1)
                assert server.model_version == 2
                assert server.stats.model_swaps == 1

            _serve(store, ServiceConfig(workers=1, k=5, supervise_interval=0.02), scenario)

    def test_back_to_back_publishes_never_kill_the_supervisor(self):
        with ModelStore() as store:
            store.publish(_model())

            async def scenario(server, client):
                def publish_all():  # off the loop, so ticks land between publishes
                    for seed in range(20):
                        store.publish(_model(seed=seed))

                await asyncio.get_running_loop().run_in_executor(None, publish_all)
                for _ in range(100):
                    await asyncio.sleep(0.01)
                    if server.model_version == 21:
                        break
                assert server.model_version == 21
                assert not server._supervisor.done()
                assert server.stats.swap_failures == 0
                status, payload = await client.get("/recommend?user=1")
                assert (status, payload["model_version"]) == (200, 21)

            _serve(store, ServiceConfig(workers=1, k=5, supervise_interval=0.01), scenario)

    def test_config_validation(self):
        with pytest.raises(ExecutionError):
            ServiceConfig(workers=0)
        with pytest.raises(ExecutionError):
            ServiceConfig(queue_depth=0)
        with pytest.raises(ExecutionError):
            ServiceConfig(deadline=0)
        with pytest.raises(ExecutionError):
            ServiceConfig(k=-1)

    def test_port_property_requires_running_server(self):
        with ModelStore() as store:
            store.publish(_model())
            server = RecommendServer(store, ServiceConfig(workers=1))
            with pytest.raises(ExecutionError):
                server.port


class TestLoadGenerators:
    def test_closed_loop_reports_throughput_and_percentiles(self):
        with ModelStore() as store:
            store.publish(_model())

            async def scenario(server, client):
                report = await run_closed_loop(
                    "127.0.0.1", server.port, users=list(range(40)),
                    clients=4, duration=0.5,
                )
                assert report.ok > 0
                assert report.errors == 0
                assert report.achieved_qps > 0
                assert report.percentile_ms(50) <= report.percentile_ms(99)
                payload = report.as_dict()
                assert payload["requests"] == report.requests
                assert payload["p95_ms"] >= payload["p50_ms"]

            _serve(store, ServiceConfig(workers=2, k=5), scenario)

    def test_open_loop_respects_offered_rate(self):
        with ModelStore() as store:
            store.publish(_model())

            async def scenario(server, client):
                report = await run_open_loop(
                    "127.0.0.1", server.port, users=list(range(40)),
                    offered_qps=40.0, duration=0.5,
                )
                # ~20 arrivals in half a second, all served.
                assert 10 <= report.requests <= 30
                assert report.ok == report.requests
                assert report.offered_qps == 40.0

            _serve(store, ServiceConfig(workers=1, k=5), scenario)


@pytest.mark.chaos
class TestServiceChaos:
    def test_reader_sigkill_mid_request_recovers(self, monkeypatch):
        """SIGKILL a reader mid-request: the in-flight request is
        answered 503, the reader is respawned, serving resumes, and no
        segment leaks (the autouse fixture asserts the last part)."""
        with ModelStore() as store:
            store.publish(_model(**READER_SHAPE))
            monkeypatch.setenv(
                faults.FAULTS_ENV,
                json.dumps([{"point": "service.reader.request", "mode": "kill"}]),
            )

            async def scenario(server, client):
                monkeypatch.delenv(faults.FAULTS_ENV)
                status, payload = await client.get("/recommend?user=5")
                assert status == 503
                assert "retry" in payload["error"]
                assert server.stats.reader_deaths == 1
                for _ in range(100):
                    await asyncio.sleep(0.05)
                    status, payload = await client.get("/recommend?user=5")
                    if status == 200:
                        break
                assert status == 200, "reader never came back"
                assert server.stats.reader_respawns == 1
                status, health = await client.get("/healthz")
                assert health["status"] == "ok"

            _serve(store, ServiceConfig(workers=1, k=5, deadline=2.0), scenario)

    def test_restart_budget_exhaustion_degrades_to_503(self, monkeypatch):
        """A reader that dies on every spawn is retired; the server
        keeps answering (503) instead of crash-looping."""
        with ModelStore() as store:
            store.publish(_model(**READER_SHAPE))
            monkeypatch.setenv(
                faults.FAULTS_ENV,
                json.dumps(
                    [
                        {
                            "point": "service.reader.start",
                            "mode": "kill",
                            "count": 10,
                        }
                    ]
                ),
            )
            config = ServiceConfig(workers=1, k=5, max_reader_restarts=2)

            async def scenario(server, client):
                # start() returned once every reader was ready or retired,
                # not at its wait_ready timeout (which cancels the waits).
                readies = server._ready.values()
                assert all(ready.done() and not ready.cancelled() for ready in readies)
                for _ in range(100):
                    await asyncio.sleep(0.05)
                    if server._ring is None:
                        break
                assert server._ring is None, "budget never exhausted"
                monkeypatch.delenv(faults.FAULTS_ENV)
                status, payload = await client.get("/recommend?user=1")
                assert status == 503
                status, health = await client.get("/healthz")
                assert health["status"] == "degraded"
                assert health["readers"] == 0

            _serve(store, config, scenario)

    def test_inline_serves_after_every_shard_is_retired(self, monkeypatch):
        """An inline request needs no reader: with the whole pool past
        its restart budget the small model is still answered 200."""
        with ModelStore() as store:
            store.publish(_model())
            monkeypatch.setenv(
                faults.FAULTS_ENV,
                json.dumps(
                    [{"point": "service.reader.start", "mode": "kill", "count": 10}]
                ),
            )
            config = ServiceConfig(workers=1, k=5, max_reader_restarts=2)

            async def scenario(server, client):
                # start() returned once every reader was ready or retired,
                # not at its wait_ready timeout (which cancels the waits).
                readies = server._ready.values()
                assert all(ready.done() and not ready.cancelled() for ready in readies)
                for _ in range(100):
                    await asyncio.sleep(0.05)
                    if server._ring is None:
                        break
                assert server._ring is None, "budget never exhausted"
                monkeypatch.delenv(faults.FAULTS_ENV)
                status, payload = await client.get("/recommend?user=1")
                assert status == 200
                assert payload["model_version"] == 1
                status, health = await client.get("/healthz")
                assert health["status"] == "degraded"  # a larger model would be 503

            _serve(store, config, scenario)

    def test_reader_death_with_multiple_workers_stays_available(self, monkeypatch):
        """Killing one of two readers only fails its own arc; the other
        reader keeps serving throughout."""
        with ModelStore() as store:
            store.publish(_model(**READER_SHAPE))
            monkeypatch.setenv(
                faults.FAULTS_ENV,
                json.dumps(
                    [
                        {
                            "point": "service.reader.request",
                            "mode": "kill",
                            "worker": 0,
                        }
                    ]
                ),
            )

            async def scenario(server, client):
                monkeypatch.delenv(faults.FAULTS_ENV)
                ring = server._ring
                on_zero = next(u for u in range(100) if ring.route(u) == 0)
                on_one = next(u for u in range(100) if ring.route(u) == 1)
                status, _ = await client.get(f"/recommend?user={on_zero}")
                assert status == 503  # reader 0 died mid-request
                status, _ = await client.get(f"/recommend?user={on_one}")
                assert status == 200  # reader 1 unaffected

            _serve(store, ServiceConfig(workers=2, k=5, deadline=2.0), scenario)
