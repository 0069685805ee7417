"""Sparse rating-matrix substrate.

The paper operates on a sparse user-item rating matrix ``R`` stored as
triadic tuples ``(u, v, r_uv)``.  This subpackage provides:

* :class:`~repro.sparse.matrix.SparseRatingMatrix` — an immutable COO
  container with validation, shuffling, sampling and banding helpers;
* :mod:`repro.sparse.blocking` — extraction of grid blocks given row and
  column boundaries, plus nonzero-balanced boundary computation;
* :mod:`repro.sparse.blockstore` — the block-major data plane: per-block
  contiguous, band-local, validated-once rating arrays
  (:class:`BlockData`) cached per run (:class:`BlockStore`) so execution
  kernels never re-gather or re-validate COO index lists;
* :mod:`repro.sparse.io` — plain-text triple readers/writers compatible
  with the MovieLens/LIBMF layout.
"""

from .matrix import SparseRatingMatrix
from .blocking import (
    BlockSlice,
    balanced_boundaries,
    extract_grid,
    uniform_boundaries,
)
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
    "BlockSlice",
    "BlockStore",
    "SharedBlockStore",
    "SharedBlockStoreHandle",
    "balanced_boundaries",
    "extract_grid",
    "merge_block_data",
    "uniform_boundaries",
    "read_triples",
    "write_triples",
]
