"""Top-K recommendation serving over trained factor models.

The serving layer turns a trained :class:`~repro.sgd.FactorModel` into
recommendations at memory-bandwidth speed and publishes it to reader
processes without copies:

* :class:`Scorer` — chunked ``P[batch] @ Q`` batch top-K with
  deterministic tie handling and optional exclusion of already-rated
  items (:mod:`repro.serve.scorer`);
* :class:`AnnScorer` / :class:`IvfIndex` — the approximate retrieval
  tier: a seeded IVF index over the item factors probes a fraction
  of the catalogue and re-ranks it exactly, trading a pinned recall@K
  for an order of magnitude in users/s (:mod:`repro.serve.ann`);
* :class:`ModelStore` / :func:`attach_model` — versioned publication of
  models (and, optionally, their ANN index in the same segment) into
  shared memory with atomic hot-swap and refcounted unlink
  (:mod:`repro.serve.store`);
* :class:`RecommendationService` — the request front-end: coalesces
  single-user requests into scoring batches, caches slates per
  ``(model_version, user)``, hot-reloads across published versions,
  and serves from either scorer tier (:mod:`repro.serve.service`);
* :mod:`repro.serve.bench` — the measurement helpers behind
  ``repro serve-bench`` and ``benchmarks/bench_serving.py``, including
  the PAD-aware :func:`~repro.serve.bench.recall_at_k`.

See README.md ("Serving", "Approximate top-K") for the quick starts and
DESIGN.md ("The serving memory model", "Approximate retrieval memory
model") for why readers never copy ``Q`` and when an old version's
segment is unlinked.
"""

from .ann import (
    DEFAULT_NLIST,
    DEFAULT_NPROBE,
    AnnIndexMeta,
    AnnScorer,
    IvfIndex,
)
from .scorer import DEFAULT_CHUNK_ITEMS, PAD_ITEM, Scorer, brute_force_top_k
from .service import (
    DEFAULT_SERVICE_BATCH,
    Recommendation,
    RecommendationService,
    ServiceStats,
)
from .store import ModelHandle, ModelLease, ModelStore, attach_model

__all__ = [
    "DEFAULT_CHUNK_ITEMS",
    "DEFAULT_NLIST",
    "DEFAULT_NPROBE",
    "DEFAULT_SERVICE_BATCH",
    "PAD_ITEM",
    "Scorer",
    "AnnIndexMeta",
    "AnnScorer",
    "IvfIndex",
    "brute_force_top_k",
    "Recommendation",
    "RecommendationService",
    "ServiceStats",
    "ModelHandle",
    "ModelLease",
    "ModelStore",
    "attach_model",
]
