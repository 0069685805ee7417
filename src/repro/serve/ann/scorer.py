"""Approximate batch top-K scoring behind the exact scorer's contract.

:class:`AnnScorer` is a drop-in for :class:`repro.serve.Scorer` — same
``top_k(users, k) -> (items, scores)`` signature, same output shapes,
same padding sentinel, same (score desc, id asc) ordering — that scores
only the items of the ``nprobe`` inverted lists whose centroids rank
highest for each user, instead of the whole catalogue:

1. **probe** — one ``P[batch] @ centroids.T`` GEMM ranks the coarse
   lists per user (inner product, centroid id breaking exact ties);
2. **candidate scoring** — the batch is regrouped *by list*: every
   probed list is scored once per batch with one gathered
   ``P[subset] @ Q[:, list]`` GEMM tile (the same chunked-GEMM machinery
   and ``_top_k_rows`` boundary-tie audit the exact scorer uses), so a
   list shared by many users costs one matmul, not one per user;
3. **exact re-rank** — every reported score is a true ``p_u . q_v``
   float64 inner product, merged across lists under the exact scorer's
   determinism contract.  Approximation only ever narrows the candidate
   set; it never perturbs a reported score.

Consequences of that design:

* with ``nprobe == nlist`` the results are **identical** to the exact
  scorer's — the test suite pins this;
* results are independent of batch composition and of the re-rank tile
  width ``chunk_items``: a user's slate depends only on (model, index,
  nprobe), never on who shares the batch — pinned too;
* already-rated items are masked *post-candidate* (inside each scored
  tile, before any selection), so exclusion semantics match the exact
  path: a seen item never appears, an all-seen user pads with
  :data:`~repro.serve.PAD_ITEM`.

The trade-off surface is ``(nlist, nprobe)``: serving cost scales with
the probed fraction ``nprobe/nlist`` while recall@K degrades as probes
shrink.  ``BENCH_serve.json`` carries the measured users/s-vs-recall
frontier; DESIGN.md ("Approximate retrieval memory model") has tuning
guidance.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ...exceptions import InvalidMatrixError
from ...sgd.model import FactorModel
from ...sparse import SparseRatingMatrix
from ...tune.profile import resolve_serving_chunk_items
from ..scorer import (
    DEFAULT_CHUNK_ITEMS,
    PAD_ITEM,
    _MASKED_SCORE,
    _merge_top_k,
    _top_k_rows,
)
from .index import DEFAULT_NPROBE, IvfIndex


class AnnScorer:
    """IVF approximate top-K over a :class:`FactorModel`.

    Parameters
    ----------
    model:
        The factor model; only ``P`` and ``Q`` are read, so shared
        read-only views published by :class:`~repro.serve.ModelStore`
        work identically to private arrays.
    index:
        An :class:`IvfIndex` built over (or attached alongside) exactly
        this model's item factors.
    exclude:
        Optional training matrix (or precomputed ``(indptr, indices)``
        CSR pair); a user's already-rated items never appear in their
        slate, matching the exact scorer's masking semantics.
    nprobe:
        Inverted lists probed per user; clamped to ``nlist``.  The
        recall/throughput dial.
    chunk_items:
        Tile width of the exact re-rank GEMM over one list's candidates
        (results are independent of it; pinned by tests).
    """

    #: Tier label used by benchmarks and ``/stats`` (the exact scorer
    #: reports ``"exact"``).
    tier = "ann"

    def __init__(
        self,
        model: FactorModel,
        index: IvfIndex,
        exclude: Optional[
            Union[SparseRatingMatrix, Tuple[np.ndarray, np.ndarray]]
        ] = None,
        nprobe: int = DEFAULT_NPROBE,
        chunk_items: Union[int, str] = DEFAULT_CHUNK_ITEMS,
    ) -> None:
        if nprobe <= 0:
            raise InvalidMatrixError(f"nprobe must be positive, got {nprobe}")
        chunk_items = resolve_serving_chunk_items(chunk_items, DEFAULT_CHUNK_ITEMS)
        if chunk_items <= 0:
            raise InvalidMatrixError(
                f"chunk_items must be positive, got {chunk_items}"
            )
        m, n = model.shape
        if index.meta.n_items != n or index.meta.dim != model.latent_factors:
            raise InvalidMatrixError(
                f"index shape ({index.meta.n_items} items, dim "
                f"{index.meta.dim}) does not match the model "
                f"({n} items, k={model.latent_factors})"
            )
        self.model = model
        self.index = index
        self.nprobe = min(int(nprobe), index.nlist)
        self.chunk_items = int(chunk_items)
        # Item-major (n, d) rows for contiguous candidate gathers; on
        # models following the layout contract this is a no-copy view.
        self._items = model.q.T
        self._indptr: Optional[np.ndarray] = None
        self._seen: Optional[np.ndarray] = None
        if exclude is not None:
            if isinstance(exclude, SparseRatingMatrix):
                if exclude.shape != model.shape:
                    raise InvalidMatrixError(
                        f"exclusion matrix shape {exclude.shape} does not "
                        f"match the model shape {model.shape}"
                    )
                self._indptr, self._seen = exclude.csr_rows()
            else:
                self._indptr, self._seen = exclude
                if len(self._indptr) != m + 1:
                    raise InvalidMatrixError(
                        f"CSR indptr length {len(self._indptr)} does not "
                        f"match the model's {m} users"
                    )

    @property
    def n_items(self) -> int:
        """Catalogue size ``n``."""
        return self.model.shape[1]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _mask_tile(
        self, scores: np.ndarray, users: np.ndarray, item_ids: np.ndarray
    ) -> None:
        """Mask already-rated items inside one ``(U, L)`` candidate tile.

        ``item_ids`` is one inverted list's slice — ascending, like the
        CSR rows — so each user's seen-items-in-tile set is a sorted
        intersection via ``searchsorted``.
        """
        indptr, seen = self._indptr, self._seen
        for i, user in enumerate(users):
            row = seen[indptr[user] : indptr[user + 1]]
            if row.size == 0:
                continue
            pos = np.searchsorted(row, item_ids)
            hit = (pos < row.size) & (row[np.minimum(pos, row.size - 1)] == item_ids)
            if hit.any():
                scores[i, hit] = _MASKED_SCORE

    def _probe(self, p_batch: np.ndarray) -> np.ndarray:
        """Top-``nprobe`` list ids per user (affinity desc, list id asc).

        Centroids live in the MIPS->L2 augmented space (see the index
        module docstring); a query augments as ``[p, 0]``, so nearest-
        augmented-centroid order is exactly descending
        ``p . c[:d] - |c|^2 / 2``.
        """
        d = self.index.meta.dim
        centroids = self.index.centroids
        bias = 0.5 * np.einsum("cd,cd->c", centroids, centroids)
        affinity = p_batch @ centroids[:, :d].T - bias
        list_ids = np.arange(self.index.nlist, dtype=np.int64)
        order = np.lexsort(
            (np.broadcast_to(list_ids, affinity.shape), -affinity), axis=1
        )
        return order[:, : self.nprobe]

    def _pad_to(self, ids: np.ndarray, vals: np.ndarray, k: int):
        """Right-pad a ``(U, j)`` candidate set to ``(U, k)`` with sentinels."""
        short = k - ids.shape[1]
        if short <= 0:
            return ids, vals
        return (
            np.pad(ids, ((0, 0), (0, short)), constant_values=PAD_ITEM),
            np.pad(vals, ((0, 0), (0, short)), constant_values=-np.inf),
        )

    def _merge_rows(
        self,
        best_ids: np.ndarray,
        best_vals: np.ndarray,
        rows: np.ndarray,
        ids: np.ndarray,
        vals: np.ndarray,
        k: int,
    ) -> None:
        """Merge one tile's per-row top-``k`` into the running best rows.

        Top-k-of-union is associative, so merging list by list yields
        the same result as ranking the full candidate union at once —
        which is what makes slates independent of list visit order and
        batch composition.
        """
        ids, vals = self._pad_to(ids, vals, k)
        merged_ids, merged_vals = _merge_top_k(
            best_ids[rows], best_vals[rows], ids, vals, k
        )
        best_ids[rows] = merged_ids
        best_vals[rows] = merged_vals

    def _score_lists_exact(
        self,
        p_batch: np.ndarray,
        users: np.ndarray,
        groups,
        best_ids: np.ndarray,
        best_vals: np.ndarray,
        k: int,
    ) -> None:
        """Exact inner products of every (user-subset, probed-list) tile."""
        for list_id, rows in groups:
            item_ids = self.index.list_ids(list_id)
            if item_ids.size == 0:
                continue
            p_sub = p_batch[rows]
            for start in range(0, item_ids.size, self.chunk_items):
                chunk = item_ids[start : start + self.chunk_items]
                scores = p_sub @ self._items[chunk].T
                if self._indptr is not None:
                    self._mask_tile(scores, users[rows], chunk)
                t_ids, t_vals = _top_k_rows(scores, chunk, k)
                self._merge_rows(best_ids, best_vals, rows, t_ids, t_vals, k)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def top_k(
        self, users: np.ndarray, k: int = 10
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k`` for a batch of users.

        Same contract as :meth:`repro.serve.Scorer.top_k`: output shape
        ``(B, min(k, n))``, rows ordered (score desc, id asc), padding
        slots hold (:data:`PAD_ITEM`, ``-inf``).  Every reported score
        is the exact ``p_u . q_v`` inner product.
        """
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        if users.ndim != 1:
            raise InvalidMatrixError("users must be a 1-D array of ids")
        m, n = self.model.shape
        if users.size and (users.min() < 0 or users.max() >= m):
            raise InvalidMatrixError(
                f"user indices must lie in [0, {m}), got range "
                f"[{users.min()}, {users.max()}]"
            )
        if k <= 0:
            raise InvalidMatrixError(f"k must be positive, got {k}")
        k_eff = min(k, n)
        if users.size == 0:
            return (
                np.empty((0, k_eff), dtype=np.int64),
                np.empty((0, k_eff), dtype=np.float64),
            )

        p_batch = np.ascontiguousarray(self.model.p[users])
        probes = self._probe(p_batch)

        # Regroup (user, probed list) pairs by list: each probed list is
        # visited once per batch, scored for exactly the users probing it.
        flat_lists = probes.ravel()
        flat_rows = np.repeat(
            np.arange(users.size, dtype=np.int64), self.nprobe
        )
        order = np.lexsort((flat_rows, flat_lists))
        sorted_lists = flat_lists[order]
        sorted_rows = flat_rows[order]
        bounds = np.flatnonzero(np.diff(sorted_lists)) + 1
        groups = [
            (int(sorted_lists[start]), sorted_rows[start:stop])
            for start, stop in zip(
                np.concatenate(([0], bounds)),
                np.concatenate((bounds, [sorted_lists.size])),
            )
        ]

        best_ids = np.full((users.size, k_eff), PAD_ITEM, dtype=np.int64)
        best_vals = np.full((users.size, k_eff), -np.inf, dtype=np.float64)
        self._score_lists_exact(p_batch, users, groups, best_ids, best_vals, k_eff)
        # Masked or never-filled slots must report the padding sentinel,
        # exactly like the exact scorer.
        padding = np.isneginf(best_vals)
        if padding.any():
            best_ids = best_ids.copy()
            best_ids[padding] = PAD_ITEM
        return best_ids, best_vals

    def top_k_single(self, user: int, k: int = 10) -> np.ndarray:
        """Item ids of one user's approximate top-``k``."""
        ids, _ = self.top_k(np.asarray([user]), k)
        return ids[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        m, n = self.model.shape
        masked = self._indptr is not None
        return (
            f"AnnScorer(m={m}, n={n}, nlist={self.index.nlist}, "
            f"nprobe={self.nprobe}, "
            f"exclude={'csr' if masked else 'none'})"
        )
