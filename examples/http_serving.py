"""Serve top-K recommendations over HTTP and hot-swap the model live.

The HTTP front door (:mod:`repro.service`) in one sitting:

1. publish a factor model into a :class:`repro.serve.ModelStore` — one
   shared-memory segment;
2. start a :class:`repro.service.RecommendServer` on an ephemeral
   loopback port: an asyncio event loop doing validation, admission
   control and — for a model this small — the scoring itself, with a
   pool of reader *processes* attached zero-copy to the published
   segment for models too big to score between two socket reads;
3. issue real HTTP requests — ``/healthz``, ``/recommend``, ``/stats``
   — and verify the slates match an in-process
   :class:`~repro.serve.Scorer` bit for bit;
4. demonstrate request validation (a 400 never reaches a scorer);
5. **hot-swap**: publish a version 2 with a catalogue above the inline
   threshold while the server is up, and watch the same socket move
   from the loop's tier to the readers' without dropping a request;
6. shut down and verify no shared-memory segment leaked.

Every step prints which tier served it, read off ``/stats``.

Run with::

    python examples/http_serving.py
"""

import asyncio
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve import ModelStore, Scorer
from repro.serve.bench import synthetic_model
from repro.service import HttpClient, RecommendServer, ServiceConfig
from repro.shm import live_segment_names

N_USERS = int(os.environ.get("REPRO_EXAMPLES_USERS", "400"))
N_ITEMS = 250
LATENT = 16
#: Version 2's shape: 2,200 x 128 cells is above the 2**18 the event
#: loop scores itself, so the readers (and their admission queue) serve it.
GROWN_ITEMS = 2_200
GROWN_LATENT = 128
TOP_K = 10


async def tier_counts(client):
    """``(scored in the loop, scored by readers)`` so far, from ``/stats``."""
    _, stats = await client.get("/stats")
    inline = stats["server"]["served_inline"]
    return inline, stats["server"]["served"] - inline


async def serve_and_query(store, model_v1, model_v2):
    config = ServiceConfig(workers=2, k=TOP_K, queue_depth=32, deadline=2.0)
    server = RecommendServer(store, config)
    await server.start()
    print(f"serving on http://{config.host}:{server.port} with {config.workers} readers")

    client = HttpClient(config.host, server.port)
    try:
        status, health = await client.get("/healthz")
        print(f"  /healthz -> {status} {health}")

        # Whichever tier scores a slate, it must be bitwise what an
        # in-process scorer computes from the same factors.
        scorer = Scorer(model_v1)
        for user in (3, 17, 42):
            status, payload = await client.get(f"/recommend?user={user}&k=5")
            assert status == 200, payload
            assert payload["items"] == scorer.top_k_single(user, 5).tolist()
            print(f"  top-5 for user {user}: {payload['items']} (model v{payload['model_version']})")
        inline, by_readers = await tier_counts(client)
        print(f"  v1 is {N_ITEMS} x {LATENT}: {inline} scored in the event loop, {by_readers} by readers")
        assert (inline, by_readers) == (3, 0)

        # Validation is the event loop's job: bad requests never reach a
        # scorer.
        status, payload = await client.get("/recommend?user=not-a-user")
        print(f"  /recommend?user=not-a-user -> {status} ({payload['error']})")
        assert status == 400

        # Hot swap: publish v2 while requests keep flowing.  The
        # supervisor leases the new version and broadcasts its handle;
        # readers swap between batches — no restart, no dropped request.
        # v2 is above the inline threshold, so from the swap on the
        # requests queue for a reader, under the 503/504 rules.
        store.publish(model_v2)
        deadline = asyncio.get_running_loop().time() + 10.0
        while True:
            status, payload = await client.get("/recommend?user=3&k=5")
            assert status == 200, payload
            if payload["model_version"] == 2:
                break
            assert asyncio.get_running_loop().time() < deadline, "swap never surfaced"
        assert payload["items"] == Scorer(model_v2).top_k_single(3, 5).tolist()
        _, by_readers = await tier_counts(client)
        print(
            f"  after hot swap: serving model v{payload['model_version']} "
            f"({GROWN_ITEMS} x {GROWN_LATENT}) on the same socket, "
            f"{by_readers} scored by readers"
        )
        assert by_readers >= 1

        status, stats = await client.get("/stats")
        counters = stats["server"]
        print(
            f"  /stats -> {counters['requests']} requests, "
            f"{counters['rejected_overload']} shed, "
            f"queue limit {stats['queue_limit']}, "
            f"model swaps {counters['model_swaps']}"
        )
        assert counters["failed"] == 0
    finally:
        await client.close()
        await server.stop()


def main() -> None:
    model_v1 = synthetic_model(N_USERS, N_ITEMS, LATENT, seed=0)
    model_v2 = synthetic_model(N_USERS, GROWN_ITEMS, GROWN_LATENT, seed=1)

    with ModelStore() as store:
        handle = store.publish(model_v1)
        print(f"published model version {handle.version} ({handle.nbytes / 1e6:.1f} MB shared segment)")
        asyncio.run(serve_and_query(store, model_v1, model_v2))

    leaked = list(live_segment_names())
    print(f"clean shutdown, leaked segments: {leaked if leaked else 'none'}")
    assert not leaked


if __name__ == "__main__":
    main()
