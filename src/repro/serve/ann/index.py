"""The IVF index over item factors, packable into a shared segment.

An :class:`IvfIndex` partitions the item catalogue with a seeded k-means
coarse quantizer (:mod:`repro.serve.ann.kmeans`) into ``nlist`` inverted
lists.  A query probes the ``nprobe`` lists whose centroids score
highest against the user vector and re-ranks only those lists' items
exactly — the serving cost becomes ``~nprobe/nlist`` of the exact
scorer's, independent of how the catalogue grows.

Top-K by **inner product** is not nearest-neighbour by euclidean
distance — an item with a huge norm can win queries whose direction it
only loosely matches — so clustering raw item vectors euclidean-style
and probing by ``q . c`` loses exactly the high-norm winners (measured:
recall@10 ≈ 0.35 at ``nprobe=8/64`` on the benchmark factors).  The
index therefore applies the standard MIPS→L2 reduction (Bachrach et
al., RecSys'14): items are clustered in an augmented space ::

    x  ->  [x, sqrt(max_norm² - |x|²)]        (all rows have norm M)

where inner-product ranking *is* euclidean ranking, and queries probe
by the equivalent affinity ``q . c[:d] - |c|²/2`` (a query augments as
``[q, 0]``).  Same measurement with the reduction: recall@10 ≈ 0.99.
Only the ``(nlist, d+1)`` centroids live in augmented space; inverted
lists hold plain item ids.

Everything the query path needs besides the factors is three flat
arrays, so the index serializes as one contiguous byte range::

    centroids  (nlist, d + 1)    float64   augmented space (see above)
    offsets    (nlist + 1,)      int64     CSR bounds into ids
    ids        (n,)              int64     item ids, ascending per list

:meth:`IvfIndex.pack_into` writes that layout at a byte offset of a
:class:`~repro.shm.SharedSegment`; :meth:`IvfIndex.attach` rebuilds the
index as zero-copy (optionally read-only) views over it, which is how
:class:`~repro.serve.ModelStore` publishes a model *and* its index in
one segment and how N reader processes share one physical index.

The build is deterministic: same factors + same parameters + same seed
produce bitwise-identical arrays (pinned by the test suite, including
across a publish/attach process boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ...exceptions import InvalidMatrixError
from ...sgd.model import FactorModel
from .kmeans import kmeans

#: Default number of inverted lists; at the paper's Netflix catalogue
#: (17 770 items) this gives ~278 items per list.
DEFAULT_NLIST = 64

#: Default number of lists probed per query (see AnnScorer).
DEFAULT_NPROBE = 8

#: k-means refinement sweeps of the coarse quantizer.
DEFAULT_TRAIN_ITERATIONS = 10


@dataclass(frozen=True)
class AnnIndexMeta:
    """Picklable descriptor of a packed index (rides the ModelHandle).

    Carries the shape of every packed array plus the build parameters,
    so a reader process can map the index zero-copy and tests can assert
    a rebuilt index matches the published one.
    """

    nlist: int
    n_items: int
    dim: int
    seed: int
    train_iterations: int = DEFAULT_TRAIN_ITERATIONS

    def __post_init__(self) -> None:
        if self.nlist <= 0:
            raise InvalidMatrixError(f"nlist must be positive, got {self.nlist}")
        if self.n_items <= 0 or self.dim <= 0:
            raise InvalidMatrixError(
                f"index needs positive items/dim, got "
                f"({self.n_items}, {self.dim})"
            )

    # ------------------------------------------------------------------ #
    # Packed layout (byte offsets relative to the index base offset)
    # ------------------------------------------------------------------ #
    @property
    def centroids_nbytes(self) -> int:
        # Centroids carry the MIPS->L2 augmentation coordinate.
        return self.nlist * (self.dim + 1) * 8

    @property
    def offsets_nbytes(self) -> int:
        return (self.nlist + 1) * 8

    @property
    def ids_nbytes(self) -> int:
        return self.n_items * 8

    @property
    def nbytes(self) -> int:
        """Total packed size (the ModelHandle adds this to the payload)."""
        return self.centroids_nbytes + self.offsets_nbytes + self.ids_nbytes

    def as_dict(self) -> dict:
        return {
            "nlist": self.nlist,
            "n_items": self.n_items,
            "dim": self.dim,
            "seed": self.seed,
            "train_iterations": self.train_iterations,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "AnnIndexMeta":
        # Handles from before product quantization was removed carry
        # "pq_m": 0; any other value describes a layout this index
        # cannot map, so refuse it rather than misread the segment.
        if int(raw.get("pq_m", 0)) != 0:
            raise InvalidMatrixError(
                f"product-quantized index (pq_m={raw['pq_m']}) is not supported"
            )
        return cls(
            nlist=int(raw["nlist"]),
            n_items=int(raw["n_items"]),
            dim=int(raw["dim"]),
            seed=int(raw["seed"]),
            train_iterations=int(raw.get("train_iterations", DEFAULT_TRAIN_ITERATIONS)),
        )


class IvfIndex:
    """Inverted-file index over item factor vectors.

    Build with :meth:`build`, or map a published copy with
    :meth:`attach`.  The arrays are adopted as-is (attached indexes hold
    read-only shared views); nothing here mutates them after
    construction.
    """

    def __init__(
        self,
        meta: AnnIndexMeta,
        centroids: np.ndarray,
        offsets: np.ndarray,
        ids: np.ndarray,
    ) -> None:
        self.meta = meta
        self.centroids = centroids
        self.offsets = offsets
        self.ids = ids

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        model: Union[FactorModel, np.ndarray],
        nlist: int = DEFAULT_NLIST,
        seed: int = 0,
        train_iterations: int = DEFAULT_TRAIN_ITERATIONS,
    ) -> "IvfIndex":
        """Train the coarse quantizer over the item factors.

        ``model`` is a :class:`FactorModel` (its ``Q`` is indexed) or a
        raw ``(k, n)`` item factor matrix.  Deterministic for a fixed
        ``(factors, nlist, train_iterations, seed)``.
        """
        q = model.q if isinstance(model, FactorModel) else np.asarray(model)
        if q.ndim != 2:
            raise InvalidMatrixError("item factors must be a (k, n) matrix")
        # Item vectors as contiguous (n, d) rows — the same item-major
        # layout FactorModel stores, so this is usually a no-copy view.
        items = np.ascontiguousarray(q.T, dtype=np.float64)
        n, dim = items.shape
        meta = AnnIndexMeta(
            nlist=int(nlist),
            n_items=n,
            dim=dim,
            seed=int(seed),
            train_iterations=int(train_iterations),
        )
        # MIPS->L2 reduction: append sqrt(M^2 - |x|^2) so every item has
        # norm M and inner-product ranking becomes euclidean ranking;
        # the coarse quantizer is trained in this augmented space.
        norms_sq = np.einsum("nd,nd->n", items, items)
        augment = np.sqrt(np.maximum(norms_sq.max() - norms_sq, 0.0))
        augmented = np.concatenate([items, augment[:, None]], axis=1)
        centroids, assignments = kmeans(
            augmented,
            meta.nlist,
            seed=meta.seed,
            iterations=meta.train_iterations,
        )
        # CSR inverted lists: stable sort by (list, id) keeps ids
        # ascending inside each list — part of the determinism contract.
        order = np.lexsort((np.arange(n, dtype=np.int64), assignments))
        ids = order.astype(np.int64)
        counts = np.bincount(assignments, minlength=meta.nlist)
        offsets = np.zeros(meta.nlist + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(meta, centroids, offsets, ids)

    # ------------------------------------------------------------------ #
    # Shared-memory packing
    # ------------------------------------------------------------------ #
    def pack_into(self, segment, offset: int) -> None:
        """Write the packed layout at ``offset`` of a shared segment."""
        views = _index_views(segment, offset, self.meta, readonly=False)
        views.centroids[...] = self.centroids
        views.offsets[...] = self.offsets
        views.ids[...] = self.ids

    @classmethod
    def attach(
        cls, segment, offset: int, meta: AnnIndexMeta, readonly: bool = True
    ) -> "IvfIndex":
        """Zero-copy index over a packed layout (reader side)."""
        views = _index_views(segment, offset, meta, readonly=readonly)
        return cls(meta, views.centroids, views.offsets, views.ids)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def nlist(self) -> int:
        return self.meta.nlist

    def list_ids(self, list_id: int) -> np.ndarray:
        """Item ids of one inverted list (ascending)."""
        return self.ids[self.offsets[list_id] : self.offsets[list_id + 1]]

    def same_arrays(self, other: "IvfIndex") -> bool:
        """Bitwise equality of every packed array (determinism tests)."""
        if self.meta != other.meta:
            return False
        return (
            np.array_equal(self.centroids, other.centroids)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.ids, other.ids)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        meta = self.meta
        return (
            f"IvfIndex(nlist={meta.nlist}, items={meta.n_items}, "
            f"dim={meta.dim}, seed={meta.seed})"
        )


@dataclass
class _IndexViews:
    centroids: np.ndarray
    offsets: np.ndarray
    ids: np.ndarray


def _index_views(
    segment, offset: int, meta: AnnIndexMeta, readonly: bool
) -> _IndexViews:
    """Map the packed layout as numpy views (shared, no copies)."""
    cursor = offset
    centroids = segment.ndarray(
        (meta.nlist, meta.dim + 1),
        np.float64,
        offset=cursor,
        readonly=readonly,
    )
    cursor += meta.centroids_nbytes
    offsets = segment.ndarray(
        (meta.nlist + 1,), np.int64, offset=cursor, readonly=readonly
    )
    cursor += meta.offsets_nbytes
    ids = segment.ndarray(
        (meta.n_items,), np.int64, offset=cursor, readonly=readonly
    )
    return _IndexViews(centroids, offsets, ids)
