"""Deterministic, seeded k-means for the ANN coarse quantizer.

The index build must be a *pure function* of (factors, parameters, seed):
two builds on the same machine — or on different machines with the same
BLAS — produce bitwise-identical centroids and list assignments, which
is what lets the determinism tests compare an index built in-process
against one attached from a reader process.  Everything here
is plain numpy with a single ``default_rng(seed)``:

* initialisation is k-means++ style (greedy D² sampling) driven by that
  one generator;
* assignment breaks distance ties by **lowest centroid id** (``argmin``
  returns the first minimum);
* an emptied cluster is re-seeded deterministically with the point
  currently farthest from its assigned centroid (lowest index among
  ties), the standard repair that keeps ``nlist`` partitions meaningful
  on skewed data.

Distances are computed chunked over the point axis so the ``(n, c)``
distance tile stays cache-resident at catalogue scale.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ...exceptions import InvalidMatrixError

#: Points scored per distance tile; 4096 x 256 centroids x 8 bytes = 8 MiB
#: worst case, well within L3 for the configurations the index targets.
_POINT_CHUNK = 4096


def _pairwise_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n, c)`` squared euclidean distances, one GEMM per tile."""
    # |p - c|^2 = |p|^2 - 2 p.c + |c|^2; the |p|^2 term is constant per
    # row and irrelevant for argmin, but keeping it makes the values
    # meaningful for the empty-cluster repair below.
    p_sq = np.einsum("nd,nd->n", points, points)
    c_sq = np.einsum("cd,cd->c", centroids, centroids)
    out = np.empty((points.shape[0], centroids.shape[0]), dtype=np.float64)
    for start in range(0, points.shape[0], _POINT_CHUNK):
        stop = min(start + _POINT_CHUNK, points.shape[0])
        tile = points[start:stop] @ centroids.T
        out[start:stop] = p_sq[start:stop, None] - 2.0 * tile + c_sq[None, :]
    return out


def _init_plus_plus(
    points: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: greedy D²-weighted draws from one generator."""
    n = points.shape[0]
    centroids = np.empty((n_clusters, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    # Running minimum squared distance to any chosen centroid.
    d_sq = np.einsum("nd,nd->n", points - centroids[0], points - centroids[0])
    for j in range(1, n_clusters):
        total = d_sq.sum()
        if total <= 0.0:
            # Every remaining point coincides with a centroid (duplicate
            # rows); fall back to uniform draws, still seeded.
            choice = int(rng.integers(0, n))
        else:
            choice = int(rng.choice(n, p=d_sq / total))
        centroids[j] = points[choice]
        step = np.einsum(
            "nd,nd->n", points - centroids[j], points - centroids[j]
        )
        np.minimum(d_sq, step, out=d_sq)
    return centroids


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    seed: int = 0,
    iterations: int = 10,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm; returns ``(centroids, assignments)``.

    ``points`` is ``(n, d)`` float64; ``assignments`` maps each point to
    its nearest centroid id (ties: lowest id).  Deterministic for a
    given ``(points, n_clusters, seed, iterations)``.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidMatrixError("kmeans needs a non-empty (n, d) point array")
    n = points.shape[0]
    if n_clusters <= 0:
        raise InvalidMatrixError(
            f"n_clusters must be positive, got {n_clusters}"
        )
    if n_clusters > n:
        raise InvalidMatrixError(
            f"cannot build {n_clusters} clusters from {n} points"
        )
    rng = np.random.default_rng(seed)
    centroids = _init_plus_plus(points, n_clusters, rng)
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(max(1, iterations)):
        dists = _pairwise_sq_dists(points, centroids)
        assignments = np.argmin(dists, axis=1).astype(np.int64)
        # Mean update; np.add.at accumulates in index order, which is
        # deterministic for a fixed assignment vector.
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, points)
        counts = np.bincount(assignments, minlength=n_clusters)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # Deterministic repair: each emptied cluster steals the
            # point farthest from its current centroid (lowest index
            # among exact ties), then means are recomputed.
            own = dists[np.arange(n), assignments]
            for cluster in empty:
                victim = int(np.argmax(own))
                own[victim] = -np.inf  # a point can be stolen only once
                old = assignments[victim]
                sums[old] -= points[victim]
                counts[old] -= 1
                sums[cluster] = points[victim]
                counts[cluster] = 1
                assignments[victim] = cluster
        centroids = sums / counts[:, None]
    # Final assignment against the last centroid update, so the returned
    # pair is self-consistent.
    assignments = np.argmin(
        _pairwise_sq_dists(points, centroids), axis=1
    ).astype(np.int64)
    return centroids, assignments
