"""Append-only COO sparse rating matrix.

The rating matrix of the paper (Section II-A) is a sparse matrix
``R in R^{m x n}`` whose explicit entries are ratings ``r_{u,v}``.  The
paper stores it "in the form of triadic tuple"; we mirror that with three
parallel numpy arrays ``rows``, ``cols``, ``vals``.

The container is *append-only*: schedulers and simulation runs share a
single matrix object, block extraction returns index views into the same
arrays instead of copying ratings, and the only permitted mutation is
:meth:`SparseRatingMatrix.append` — new ratings (and dimension growth
for new users/items) are added at the end of the arrays, never changing
or reordering the existing triples.  Every mutation bumps
:attr:`SparseRatingMatrix.version` so derived caches (the CSR rows
cached here, the :class:`~repro.sparse.blockstore.BlockStore` records)
can detect staleness instead of silently serving pre-append state.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from ..exceptions import InvalidMatrixError


class SparseRatingMatrix:
    """A sparse user-item rating matrix stored in COO (triple) form.

    Parameters
    ----------
    rows:
        Integer array of user (row) indices, one per rating.
    cols:
        Integer array of item (column) indices, one per rating.
    vals:
        Float array of rating values, one per rating.
    shape:
        Optional explicit ``(m, n)``.  When omitted the shape is inferred
        as one plus the maximum index in each dimension.
    check:
        When ``True`` (default) the constructor validates lengths, dtypes
        and index ranges and raises :class:`InvalidMatrixError` on failure.

    Notes
    -----
    The arrays are copied into contiguous, canonical dtypes
    (``int64`` indices, ``float64`` values) and marked read-only, so a
    matrix can be shared freely between schedulers, workers and metrics
    without defensive copying.  :meth:`append` replaces the arrays
    wholesale (existing triples first, bitwise unchanged) rather than
    writing into them, so views handed out earlier stay valid snapshots.
    """

    __slots__ = ("_rows", "_cols", "_vals", "_m", "_n", "_csr", "_version")

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: Optional[Tuple[int, int]] = None,
        check: bool = True,
    ) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        vals = np.ascontiguousarray(vals, dtype=np.float64)

        if check:
            if rows.ndim != 1 or cols.ndim != 1 or vals.ndim != 1:
                raise InvalidMatrixError("rows, cols and vals must be 1-D arrays")
            if not (len(rows) == len(cols) == len(vals)):
                raise InvalidMatrixError(
                    f"coordinate arrays must have equal length, got "
                    f"{len(rows)}, {len(cols)}, {len(vals)}"
                )

        if shape is None:
            if len(rows) == 0:
                raise InvalidMatrixError(
                    "shape must be given explicitly for an empty matrix"
                )
            m = int(rows.max()) + 1
            n = int(cols.max()) + 1
        else:
            m, n = int(shape[0]), int(shape[1])

        if check:
            if m <= 0 or n <= 0:
                raise InvalidMatrixError(f"shape must be positive, got ({m}, {n})")
            if len(rows) > 0:
                if rows.min() < 0 or rows.max() >= m:
                    raise InvalidMatrixError(
                        f"row indices must lie in [0, {m}), got range "
                        f"[{rows.min()}, {rows.max()}]"
                    )
                if cols.min() < 0 or cols.max() >= n:
                    raise InvalidMatrixError(
                        f"column indices must lie in [0, {n}), got range "
                        f"[{cols.min()}, {cols.max()}]"
                    )
            if not np.all(np.isfinite(vals)):
                raise InvalidMatrixError("rating values must be finite")

        for array in (rows, cols, vals):
            array.setflags(write=False)

        self._rows = rows
        self._cols = cols
        self._vals = vals
        self._m = m
        self._n = n
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._version = 0

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> np.ndarray:
        """Read-only array of row (user) indices."""
        return self._rows

    @property
    def cols(self) -> np.ndarray:
        """Read-only array of column (item) indices."""
        return self._cols

    @property
    def vals(self) -> np.ndarray:
        """Read-only array of rating values."""
        return self._vals

    @property
    def shape(self) -> Tuple[int, int]:
        """``(m, n)`` — number of users and items."""
        return (self._m, self._n)

    @property
    def n_rows(self) -> int:
        """Number of users ``m``."""
        return self._m

    @property
    def n_cols(self) -> int:
        """Number of items ``n``."""
        return self._n

    @property
    def nnz(self) -> int:
        """Number of explicit ratings."""
        return len(self._vals)

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every :meth:`append`.

        Derived caches (the CSR rows of :meth:`csr_rows`, the
        :class:`~repro.sparse.blockstore.BlockStore` block records)
        remember the version they were built against and rebuild when it
        moves, so no consumer can silently keep serving pre-append state.
        """
        return self._version

    @property
    def density(self) -> float:
        """Fraction of cells that carry an explicit rating."""
        return self.nnz / float(self._m * self._n)

    def __len__(self) -> int:
        return self.nnz

    def __repr__(self) -> str:
        return (
            f"SparseRatingMatrix(shape=({self._m}, {self._n}), "
            f"nnz={self.nnz}, density={self.density:.2e})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseRatingMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self._rows, other._rows)
            and np.array_equal(self._cols, other._cols)
            and np.array_equal(self._vals, other._vals)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def rating_mean(self) -> float:
        """Mean of all explicit ratings (0.0 for an empty matrix)."""
        if self.nnz == 0:
            return 0.0
        return float(self._vals.mean())

    def rating_std(self) -> float:
        """Standard deviation of all explicit ratings."""
        if self.nnz == 0:
            return 0.0
        return float(self._vals.std())

    def row_counts(self) -> np.ndarray:
        """Number of ratings per user, as an ``(m,)`` int array."""
        return np.bincount(self._rows, minlength=self._m).astype(np.int64)

    def col_counts(self) -> np.ndarray:
        """Number of ratings per item, as an ``(n,)`` int array."""
        return np.bincount(self._cols, minlength=self._n).astype(np.int64)

    def csr_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-user item lists in CSR layout: ``(indptr, indices)``.

        ``indices[indptr[u]:indptr[u + 1]]`` are the (sorted, read-only)
        item ids user ``u`` has rated.  The serving layer uses these rows
        to exclude already-rated items from top-K candidates
        (:class:`repro.serve.Scorer`); the sorted order is what lets the
        scorer ``searchsorted`` a user's seen items per item chunk.

        Computed lazily and cached on the matrix; the cache is
        invalidated by :meth:`append` (any mutation), so the rows always
        reflect every rating ingested so far — a stale CSR would
        silently mis-exclude (or fail to exclude) items in the serving
        layer.
        """
        if self._csr is None:
            order = np.lexsort((self._cols, self._rows))
            indices = self._cols[order]
            counts = np.bincount(self._rows, minlength=self._m)
            indptr = np.zeros(self._m + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            indices.setflags(write=False)
            indptr.setflags(write=False)
            self._csr = (indptr, indices)
        return self._csr

    def items_of(self, user: int) -> np.ndarray:
        """The sorted item ids rated by ``user`` (a read-only CSR row)."""
        if not 0 <= user < self._m:
            raise InvalidMatrixError(
                f"user index {user} outside [0, {self._m})"
            )
        indptr, indices = self.csr_rows()
        return indices[indptr[user] : indptr[user + 1]]

    def rating_range(self) -> Tuple[float, float]:
        """``(min, max)`` of the explicit ratings."""
        if self.nnz == 0:
            return (0.0, 0.0)
        return (float(self._vals.min()), float(self._vals.max()))

    # ------------------------------------------------------------------ #
    # Mutation (append-only: the streaming ingestion path)
    # ------------------------------------------------------------------ #
    def append(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        n_rows: Optional[int] = None,
        n_cols: Optional[int] = None,
    ) -> int:
        """Append new ratings in place, growing ``(m, n)`` as needed.

        This is the data-plane half of streaming ingestion
        (:mod:`repro.stream`): production traffic arrives as new triples
        — possibly referencing brand-new users or items — and the live
        matrix absorbs them without a rebuild.

        Parameters
        ----------
        rows, cols, vals:
            The new ratings as parallel coordinate arrays (empty arrays
            are allowed, e.g. for pure dimension growth).
        n_rows, n_cols:
            Optional explicit new dimensions.  Dimensions only ever
            grow: the effective new shape is the maximum of the current
            shape, one plus the largest appended index, and these
            arguments; asking for a dimension *smaller* than the current
            one raises :class:`InvalidMatrixError`.

        Returns
        -------
        int
            The number of ratings appended.

        Notes
        -----
        The pre-existing triples are preserved bitwise and keep their
        storage positions — appended ratings strictly follow them — so
        index-based views (grid blocks, splits) taken earlier remain
        valid descriptions of the old ratings.  Every call bumps
        :attr:`version` and invalidates the cached CSR rows
        (:meth:`csr_rows`), which is what keeps the serving layer's
        seen-item exclusion and the block store's records from going
        stale.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        if rows.ndim != 1 or cols.ndim != 1 or vals.ndim != 1:
            raise InvalidMatrixError("rows, cols and vals must be 1-D arrays")
        if not (len(rows) == len(cols) == len(vals)):
            raise InvalidMatrixError(
                f"coordinate arrays must have equal length, got "
                f"{len(rows)}, {len(cols)}, {len(vals)}"
            )
        if len(vals) > 0 and not np.all(np.isfinite(vals)):
            raise InvalidMatrixError("rating values must be finite")
        if len(rows) > 0 and (rows.min() < 0 or cols.min() < 0):
            raise InvalidMatrixError("appended indices must be non-negative")
        for name, requested, current in (
            ("n_rows", n_rows, self._m),
            ("n_cols", n_cols, self._n),
        ):
            if requested is not None and requested < current:
                raise InvalidMatrixError(
                    f"dimensions never shrink: requested {name}={requested} "
                    f"below the current {current}"
                )
        new_m = max(
            self._m,
            int(rows.max()) + 1 if len(rows) else 0,
            int(n_rows) if n_rows is not None else 0,
        )
        new_n = max(
            self._n,
            int(cols.max()) + 1 if len(cols) else 0,
            int(n_cols) if n_cols is not None else 0,
        )
        if len(rows) > 0:
            merged_rows = np.concatenate([self._rows, rows])
            merged_cols = np.concatenate([self._cols, cols])
            merged_vals = np.concatenate([self._vals, vals])
            for array in (merged_rows, merged_cols, merged_vals):
                array.setflags(write=False)
            self._rows = merged_rows
            self._cols = merged_cols
            self._vals = merged_vals
        self._m = new_m
        self._n = new_n
        # Any mutation invalidates derived caches: a stale CSR would
        # silently mis-exclude rated items in the serving layer, and a
        # stale BlockStore would train on pre-append data.
        self._csr = None
        self._version += 1
        return len(vals)

    def append_triples(self, triples) -> int:
        """Append an iterable of ``(u, v, r)`` triples (see :meth:`append`)."""
        triples = list(triples)
        rows = np.array([t[0] for t in triples], dtype=np.int64)
        cols = np.array([t[1] for t in triples], dtype=np.int64)
        vals = np.array([t[2] for t in triples], dtype=np.float64)
        return self.append(rows, cols, vals)

    # ------------------------------------------------------------------ #
    # Transformations (all return new matrices; self is never mutated)
    # ------------------------------------------------------------------ #
    def iter_triples(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over ``(u, v, r_uv)`` triples in storage order."""
        for u, v, r in zip(self._rows, self._cols, self._vals):
            yield int(u), int(v), float(r)

    def select(self, index: np.ndarray) -> "SparseRatingMatrix":
        """Return a new matrix containing the ratings at ``index``.

        The shape is preserved, so the result remains addressable with the
        same row/column bands as the original.
        """
        index = np.asarray(index)
        return SparseRatingMatrix(
            self._rows[index],
            self._cols[index],
            self._vals[index],
            shape=self.shape,
            check=False,
        )

    def shuffled(self, seed: int = 0) -> "SparseRatingMatrix":
        """Return a copy whose triples are stored in random order.

        Calibration (Section V-A) probes the prefixes ``S_1, S_1+S_2,
        ...`` of exactly this order; it draws the same permutation but
        reads only the prefixes' counts, so it never builds the copy.
        """
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.nnz)
        return self.select(perm)

    def sample(self, fraction: float, seed: int = 0) -> "SparseRatingMatrix":
        """Return a uniformly sampled subset containing ``fraction`` of ratings."""
        if not 0.0 < fraction <= 1.0:
            raise InvalidMatrixError(
                f"sample fraction must be in (0, 1], got {fraction}"
            )
        rng = np.random.default_rng(seed)
        size = max(1, int(round(self.nnz * fraction)))
        index = rng.choice(self.nnz, size=size, replace=False)
        return self.select(np.sort(index))

    def row_band(self, row_start: int, row_stop: int) -> "SparseRatingMatrix":
        """Return the ratings whose user index lies in ``[row_start, row_stop)``.

        Used to split the matrix into the GPU band ``Rg`` and the CPU band
        ``Rc`` (Figure 9).  The shape is preserved.
        """
        if not 0 <= row_start <= row_stop <= self._m:
            raise InvalidMatrixError(
                f"row band [{row_start}, {row_stop}) outside [0, {self._m}]"
            )
        mask = (self._rows >= row_start) & (self._rows < row_stop)
        return self.select(np.nonzero(mask)[0])

    def col_band(self, col_start: int, col_stop: int) -> "SparseRatingMatrix":
        """Return the ratings whose item index lies in ``[col_start, col_stop)``."""
        if not 0 <= col_start <= col_stop <= self._n:
            raise InvalidMatrixError(
                f"column band [{col_start}, {col_stop}) outside [0, {self._n}]"
            )
        mask = (self._cols >= col_start) & (self._cols < col_stop)
        return self.select(np.nonzero(mask)[0])

    def transpose(self) -> "SparseRatingMatrix":
        """Return the transposed matrix (users and items swapped)."""
        return SparseRatingMatrix(
            self._cols, self._rows, self._vals, shape=(self._n, self._m), check=False
        )

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense array with zeros for missing cells.

        Intended for tests and tiny examples only; raises for matrices with
        more than ten million cells to prevent accidental memory blow-ups.
        """
        cells = self._m * self._n
        if cells > 10_000_000:
            raise InvalidMatrixError(
                f"refusing to densify a matrix with {cells} cells"
            )
        dense = np.zeros((self._m, self._n), dtype=np.float64)
        dense[self._rows, self._cols] = self._vals
        return dense

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_triples(
        cls,
        triples,
        shape: Optional[Tuple[int, int]] = None,
    ) -> "SparseRatingMatrix":
        """Build a matrix from an iterable of ``(u, v, r)`` triples."""
        triples = list(triples)
        if not triples and shape is None:
            raise InvalidMatrixError(
                "shape must be given explicitly for an empty matrix"
            )
        rows = np.array([t[0] for t in triples], dtype=np.int64)
        cols = np.array([t[1] for t in triples], dtype=np.int64)
        vals = np.array([t[2] for t in triples], dtype=np.float64)
        return cls(rows, cols, vals, shape=shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseRatingMatrix":
        """Build a matrix from a dense array, treating zeros as missing."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise InvalidMatrixError("dense input must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls(rows, cols, dense[rows, cols], shape=dense.shape)
