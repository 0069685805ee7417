"""Sparse rating-matrix substrate.

The paper operates on a sparse user-item rating matrix ``R`` stored as
triadic tuples ``(u, v, r_uv)``.  This subpackage provides:

* :class:`~repro.sparse.matrix.SparseRatingMatrix` — an immutable COO
  container with validation, shuffling, sampling and banding helpers;
* :mod:`repro.sparse.blocking` — uniform and nonzero-balanced band
  boundaries, and :func:`bucket_ratings`, the one pass that sorts every
  rating into its grid cell (the permutation and per-cell offsets every
  grid block is a view of);
* :mod:`repro.sparse.blockstore` — the block-major data plane: per-block
  contiguous, band-local, validated-once rating arrays
  (:class:`BlockData`: values plus band-local rows and columns, the three
  arrays a kernel reads) cached per run (:class:`BlockStore`) so
  execution kernels never re-gather or re-validate COO index lists;
* :mod:`repro.sparse.io` — plain-text triple readers/writers compatible
  with the MovieLens/LIBMF layout.
"""

from .matrix import SparseRatingMatrix
from .blocking import balanced_boundaries, bucket_ratings, uniform_boundaries
from .blockstore import (
    BlockData,
    BlockStore,
    SharedBlockStore,
    SharedBlockStoreHandle,
    merge_block_data,
)
from .io import read_triples, write_triples

__all__ = [
    "SparseRatingMatrix",
    "BlockData",
    "BlockStore",
    "SharedBlockStore",
    "SharedBlockStoreHandle",
    "balanced_boundaries",
    "bucket_ratings",
    "merge_block_data",
    "uniform_boundaries",
    "read_triples",
    "write_triples",
]
