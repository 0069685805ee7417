"""Grid banding and block extraction for block-parallel SGD.

FPSGD-style algorithms (Section III-A of the paper) divide the rating
matrix into a grid of blocks along row and column boundaries.  Two blocks
are *independent* if they share neither a row band nor a column band; only
independent blocks may be updated concurrently.

This module provides the low-level machinery:

* boundary computation — either uniform in index space
  (:func:`uniform_boundaries`) or balanced by nonzero count
  (:func:`balanced_boundaries`), the latter being important for skewed
  real-world matrices where uniform index bands would produce wildly
  different block sizes;
* :func:`bucket_ratings` — one pass that buckets every rating into its
  ``(row_band, col_band)`` cell and returns the permutation and per-cell
  offsets every block of a :class:`~repro.core.grid.BlockGrid` is a
  view of.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..exceptions import InvalidPartitionError
from .matrix import SparseRatingMatrix


def _validate_boundaries(boundaries: Sequence[int], extent: int, axis: str) -> np.ndarray:
    """Check that ``boundaries`` is a valid monotone cover of ``[0, extent]``."""
    bounds = np.asarray(boundaries, dtype=np.int64)
    if bounds.ndim != 1 or len(bounds) < 2:
        raise InvalidPartitionError(
            f"{axis} boundaries must contain at least two entries, got {bounds!r}"
        )
    if bounds[0] != 0 or bounds[-1] != extent:
        raise InvalidPartitionError(
            f"{axis} boundaries must start at 0 and end at {extent}, got "
            f"[{bounds[0]}, ..., {bounds[-1]}]"
        )
    if np.any(np.diff(bounds) <= 0):
        raise InvalidPartitionError(
            f"{axis} boundaries must be strictly increasing, got {bounds.tolist()}"
        )
    return bounds


def uniform_boundaries(extent: int, parts: int) -> np.ndarray:
    """Split ``[0, extent)`` into ``parts`` near-equal index bands.

    Returns ``parts + 1`` boundary positions.  This is the division used
    by FPSGD/HSGD, where every band spans the same number of *rows or
    columns* (not the same number of ratings).
    """
    if parts <= 0:
        raise InvalidPartitionError(f"parts must be positive, got {parts}")
    if extent < parts:
        raise InvalidPartitionError(
            f"cannot split extent {extent} into {parts} non-empty bands"
        )
    bounds = np.linspace(0, extent, parts + 1)
    bounds = np.round(bounds).astype(np.int64)
    # Rounding can occasionally merge adjacent boundaries on tiny extents;
    # repair by forcing strict monotonicity forwards then backwards.
    for i in range(1, len(bounds)):
        if bounds[i] <= bounds[i - 1]:
            bounds[i] = bounds[i - 1] + 1
    if bounds[-1] != extent:
        bounds[-1] = extent
        for i in range(len(bounds) - 2, 0, -1):
            if bounds[i] >= bounds[i + 1]:
                bounds[i] = bounds[i + 1] - 1
    return _validate_boundaries(bounds, extent, "uniform")


def balanced_boundaries(counts: np.ndarray, parts: int) -> np.ndarray:
    """Split an axis into ``parts`` bands carrying near-equal rating counts.

    Parameters
    ----------
    counts:
        Per-index rating counts along the axis (``row_counts()`` or
        ``col_counts()`` of a matrix).
    parts:
        Number of bands.

    Returns
    -------
    numpy.ndarray
        ``parts + 1`` boundary positions over ``[0, len(counts)]`` such
        that each band contains approximately ``sum(counts)/parts``
        ratings.  Real-world rating matrices are heavily skewed, so this
        balancing is what makes the nonuniform division of the paper
        assign comparable work to equally capable workers.
    """
    counts = np.asarray(counts, dtype=np.int64)
    extent = len(counts)
    if parts <= 0:
        raise InvalidPartitionError(f"parts must be positive, got {parts}")
    if extent < parts:
        raise InvalidPartitionError(
            f"cannot split {extent} indices into {parts} non-empty bands"
        )
    total = int(counts.sum())
    if total == 0:
        return uniform_boundaries(extent, parts)

    cumulative = np.concatenate(([0], np.cumsum(counts)))
    targets = np.linspace(0, total, parts + 1)
    bounds = np.searchsorted(cumulative, targets, side="left").astype(np.int64)
    bounds[0] = 0
    bounds[-1] = extent
    # Enforce strict monotonicity so no band is empty in index space.
    for i in range(1, parts):
        if bounds[i] <= bounds[i - 1]:
            bounds[i] = bounds[i - 1] + 1
    for i in range(parts - 1, 0, -1):
        if bounds[i] >= bounds[i + 1]:
            bounds[i] = bounds[i + 1] - 1
    return _validate_boundaries(bounds, extent, "balanced")


def _cell_dtype(n_cells: int) -> np.dtype:
    """The narrowest dtype :func:`bucket_ratings` can sort ``n_cells`` ids in.

    numpy's stable argsort is a radix sort for 16-bit keys, so grids of up
    to 65,536 cells sort several times faster than on int64 keys.
    """
    if n_cells <= 1 << 16:
        return np.dtype(np.uint16)
    if n_cells <= 1 << 32:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


def _band_table(bounds: np.ndarray, stride: int, dtype: np.dtype) -> np.ndarray:
    """Per-index lookup table: ``stride * band`` for every index of the axis."""
    band_ids = (np.arange(len(bounds) - 1, dtype=np.int64) * stride).astype(dtype)
    return np.repeat(band_ids, np.diff(bounds))


def bucket_ratings(
    matrix: SparseRatingMatrix,
    row_boundaries: Sequence[int],
    col_boundaries: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Bucket every rating of ``matrix`` into a grid of cells.

    Parameters
    ----------
    matrix:
        The rating matrix.
    row_boundaries, col_boundaries:
        Monotone boundary arrays covering ``[0, m]`` and ``[0, n]``.

    Returns
    -------
    (order, offsets)
        ``order`` is the stable permutation of the matrix's rating
        positions by cell, cells numbered row-major (``row_band *
        n_col_bands + col_band``); ``offsets`` has ``n_cells + 1``
        entries, and ``order[offsets[c]:offsets[c + 1]]`` are the
        positions of cell ``c``'s ratings, ascending because the sort is
        stable.  Every rating appears in exactly one cell.

    Notes
    -----
    One pass: each rating's cell id comes from a per-row and a per-column
    band table, the ids are stable-argsorted in the narrowest dtype that
    holds them, and the offsets are a ``bincount`` and a ``cumsum``.
    """
    row_bounds = _validate_boundaries(row_boundaries, matrix.n_rows, "row")
    col_bounds = _validate_boundaries(col_boundaries, matrix.n_cols, "column")
    n_col_bands = len(col_bounds) - 1
    n_cells = (len(row_bounds) - 1) * n_col_bands
    dtype = _cell_dtype(n_cells)

    cells = _band_table(row_bounds, n_col_bands, dtype)[matrix.rows]
    cells += _band_table(col_bounds, 1, dtype)[matrix.cols]
    offsets = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells, minlength=n_cells), out=offsets[1:])
    order = np.argsort(cells, kind="stable")
    return order, offsets
