"""Block-major data plane: per-block contiguous rating storage.

The grid machinery (:mod:`repro.sparse.blocking`, :mod:`repro.core.grid`)
describes blocks as *index lists* into the matrix's global COO arrays —
views of one permutation that buckets the ratings by cell.  That is the
right representation for partitioning — blocks share the underlying
storage — but the wrong one for execution: every task would
re-gather ``rows[indices]`` / ``cols[indices]`` / ``vals[indices]`` and
re-validate the result on every epoch, an ``O(nnz)`` tax per pass that
the FPSGD/LIBMF lineage explicitly avoids by keeping each block's
ratings resident and band-local.

This module materialises that layout once per run:

* :class:`BlockData` — one block's ratings as three contiguous parallel
  arrays, the values and their *band-local* coordinates (``local_rows =
  rows - row_range[0]``, ``local_cols = cols - col_range[0]``), validated
  at construction so kernels can skip their own input checks
  (``validate=False``).  A global index is the band origin plus the local
  one, so no global copy is kept;
* :class:`BlockStore` — a per-run cache mapping grid blocks (and
  multi-block tasks) to their :class:`BlockData`, so each block is
  gathered and validated exactly once no matter how many epochs touch it.

Engines hand ``BlockData`` straight to the block-major kernels
(:func:`repro.sgd.kernels.sgd_block_minibatch_local` and its native
twin), which scatter into band-slice views of ``P``/``Q`` using the local
indices.  The store is the only way rating data reaches a kernel: every
backend — the simulator, the thread pool and the process pool — calls
:func:`repro.exec.base.apply_block_data` with a record from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..exceptions import ExecutionError, InvalidMatrixError
from .matrix import SparseRatingMatrix


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class BlockData:
    """One block's ratings, gathered, band-localised and validated once.

    Attributes
    ----------
    row_range, col_range:
        Half-open global index intervals of the block's bands.  For a
        multi-block task this is the covering interval of its blocks'
        bands (band-local scatter only ever writes at ``range_start +
        local_index``, so a covering interval is exact even if the
        blocks do not tile it).
    vals:
        The rating values (``float64``), in the same order as the
        originating ``indices`` array.
    local_rows, local_cols:
        Band-local coordinates (``int64``): the ratings' global rows
        minus ``row_range[0]`` and global columns minus ``col_range[0]``.

    All arrays are marked read-only: ``BlockData`` is shared across
    epochs and across worker threads.
    """

    row_range: Tuple[int, int]
    col_range: Tuple[int, int]
    vals: np.ndarray
    local_rows: np.ndarray
    local_cols: np.ndarray

    @property
    def nnz(self) -> int:
        """Number of ratings in the block."""
        return len(self.vals)

    @classmethod
    def from_arrays(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        row_range: Tuple[int, int],
        col_range: Tuple[int, int],
        copy: bool = True,
    ) -> "BlockData":
        """Build and validate a record from global-coordinate arrays.

        The record owns its arrays (they are marked read-only), so with
        ``copy=True`` (the default) a ``vals`` input that already has the
        canonical dtype is copied rather than adopted — freezing a
        caller's array in place would be a surprising side effect.
        Internal callers that hand over freshly gathered arrays pass
        ``copy=False``.  The local coordinates are always new arrays.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        original = vals
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        if copy and vals is original:
            vals = vals.copy()
        if not (len(rows) == len(cols) == len(vals)):
            raise InvalidMatrixError("rows, cols and vals must have equal length")
        r0, r1 = int(row_range[0]), int(row_range[1])
        c0, c1 = int(col_range[0]), int(col_range[1])
        if r0 > r1 or c0 > c1 or r0 < 0 or c0 < 0:
            raise InvalidMatrixError(
                f"invalid block ranges rows=[{r0}, {r1}), cols=[{c0}, {c1})"
            )
        if len(rows) > 0:
            if rows.min() < r0 or rows.max() >= r1:
                raise InvalidMatrixError(
                    f"block rating rows [{rows.min()}, {rows.max()}] fall "
                    f"outside the row band [{r0}, {r1})"
                )
            if cols.min() < c0 or cols.max() >= c1:
                raise InvalidMatrixError(
                    f"block rating columns [{cols.min()}, {cols.max()}] fall "
                    f"outside the column band [{c0}, {c1})"
                )
        return cls(
            row_range=(r0, r1),
            col_range=(c0, c1),
            vals=_read_only(vals),
            local_rows=_read_only(rows - r0),
            local_cols=_read_only(cols - c0),
        )

    @classmethod
    def from_slice(cls, matrix: SparseRatingMatrix, block) -> "BlockData":
        """Materialise a grid block of ``matrix`` into contiguous arrays.

        ``block`` is anything with ``indices``, ``row_range`` and
        ``col_range`` attributes, normally a
        :class:`~repro.core.grid.GridBlock`.
        """
        indices = np.asarray(block.indices, dtype=np.int64)
        if len(indices) > 0 and (
            indices.min() < 0 or indices.max() >= matrix.nnz
        ):
            raise InvalidMatrixError(
                f"block indices [{indices.min()}, {indices.max()}] outside "
                f"the matrix's {matrix.nnz} ratings"
            )
        return cls.from_arrays(
            matrix.rows[indices],
            matrix.cols[indices],
            matrix.vals[indices],
            block.row_range,
            block.col_range,
            copy=False,
        )

    def __repr__(self) -> str:
        return (
            f"BlockData(rows={self.row_range}, cols={self.col_range}, "
            f"nnz={self.nnz})"
        )


def _covering_range(ranges) -> Tuple[int, int]:
    starts, stops = zip(*ranges)
    return (min(starts), max(stops))


def merge_block_data(parts: List[BlockData]) -> BlockData:
    """Concatenate several blocks' records into one multi-block record.

    Used for multi-block GPU tasks: parts are concatenated in block order
    under the covering band interval, each part's local indices shifted
    by its band origin minus the covering origin.  Both the in-process
    :class:`BlockStore` and the worker-side :class:`SharedBlockStore`
    cache the merged record, so the concatenation happens once per
    distinct task, not per epoch.
    """
    row_range = _covering_range([part.row_range for part in parts])
    col_range = _covering_range([part.col_range for part in parts])
    # Direct construction: every part was validated against its own
    # bands, and each band lies inside the covering interval.
    return BlockData(
        row_range=row_range,
        col_range=col_range,
        vals=_read_only(np.concatenate([part.vals for part in parts])),
        local_rows=_read_only(
            np.concatenate(
                [part.local_rows + (part.row_range[0] - row_range[0]) for part in parts]
            )
        ),
        local_cols=_read_only(
            np.concatenate(
                [part.local_cols + (part.col_range[0] - col_range[0]) for part in parts]
            )
        ),
    )


class BlockStore:
    """Per-run cache of :class:`BlockData` records for a matrix.

    One store is created per engine run.  Blocks are materialised lazily
    on first use and reused for every later epoch; multi-block tasks
    (a GPU's "large block" column of Figure 9) get one concatenated
    record cached under the tuple of their blocks' grid cells, so the
    per-epoch cost of the data plane is zero after the first pass.

    Thread-safety: records are immutable and the cache dictionaries are
    only mutated by interpreter-atomic ``dict.setdefault``; in the worst
    case two worker threads materialise the same block concurrently and
    one identical record is dropped — a benign race the threaded engine
    accepts instead of serialising its first epoch behind a lock.
    """

    def __init__(self, matrix: SparseRatingMatrix) -> None:
        self._matrix = matrix
        self._version = matrix.version
        self._blocks: Dict[Tuple[int, int], BlockData] = {}
        self._tasks: Dict[Tuple[Tuple[int, int], ...], BlockData] = {}

    @property
    def matrix(self) -> SparseRatingMatrix:
        """The rating matrix the store gathers from."""
        return self._matrix

    def _check_version(self) -> None:
        """Drop stale records after a matrix mutation.

        :meth:`SparseRatingMatrix.append` bumps the matrix's
        :attr:`~SparseRatingMatrix.version`; records gathered before the
        mutation describe the pre-append matrix (and a regrown grid's
        blocks would silently alias old cache keys), so the whole cache
        is invalidated and records re-materialise lazily against the
        current arrays.
        """
        version = self._matrix.version
        if version != self._version:
            self._blocks = {}
            self._tasks = {}
            self._version = version

    def block_data(self, block) -> BlockData:
        """The cached :class:`BlockData` of one grid block."""
        self._check_version()
        key = (block.row_band, block.col_band)
        data = self._blocks.get(key)
        if data is None:
            data = self._blocks.setdefault(
                key, BlockData.from_slice(self._matrix, block)
            )
        return data

    def task_data(self, task) -> BlockData:
        """The cached :class:`BlockData` covering all blocks of a task.

        Single-block tasks (every CPU task, every stolen block) share the
        per-block record; multi-block GPU tasks are concatenated in block
        order under the covering band interval.
        """
        blocks = task.blocks
        if len(blocks) == 1:
            return self.block_data(blocks[0])
        self._check_version()
        key = tuple((block.row_band, block.col_band) for block in blocks)
        data = self._tasks.get(key)
        if data is None:
            merged = merge_block_data([self.block_data(block) for block in blocks])
            data = self._tasks.setdefault(key, merged)
        return data

    def to_shared(self, blocks: Iterable) -> "SharedBlockStore":
        """Materialise ``blocks`` into a shared-memory segment.

        Gathers every given grid block, packs all three per-block arrays
        into one :class:`multiprocessing.shared_memory`-backed segment
        that worker processes attach by name
        (:meth:`SharedBlockStore.attach`) — the zero-copy data plane of
        the ``"processes"`` backend — and then **drops this store's
        private caches**: once the data lives in the segment, a second
        resident copy in the controller would double its memory for the
        whole run.  The caller owns the returned store's lifecycle:
        ``close()`` + ``unlink()`` when the run ends (see
        :class:`repro.shm.SharedSegment`).
        """
        shared = SharedBlockStore.create(
            [(block, self.block_data(block)) for block in blocks]
        )
        self.clear_cache()
        return shared

    def clear_cache(self) -> None:
        """Drop every cached record (they re-materialise lazily on use)."""
        self._blocks = {}
        self._tasks = {}

    def __repr__(self) -> str:
        return (
            f"BlockStore(nnz={self._matrix.nnz}, "
            f"cached_blocks={len(self._blocks)}, cached_tasks={len(self._tasks)})"
        )


#: The parallel arrays of one :class:`BlockData`, in segment layout order.
_SHARED_FIELDS = ("vals", "local_rows", "local_cols")
_SHARED_DTYPES = (np.float64, np.int64, np.int64)


@dataclass(frozen=True)
class SharedBlockStoreHandle:
    """Picklable descriptor of a shared block store.

    Everything a worker process needs to reconstruct zero-copy
    :class:`BlockData` views: the segment name, the total rating count
    (the segment holds three parallel ``nnz``-long arrays back to back)
    and, per block key, its slice ``[offset, offset + length)`` plus its
    band intervals.
    """

    segment: str
    nnz: int
    #: ``(row_band, col_band, offset, length, r0, r1, c0, c1)`` per block.
    entries: Tuple[Tuple[int, int, int, int, int, int, int, int], ...]


class SharedBlockStore:
    """Block-major rating arrays resident in shared memory.

    Two roles share this class:

    * the **owner** (built by :meth:`BlockStore.to_shared` in the
      controller process) creates the segment, copies every block's
      arrays in once, and must eventually ``close()`` and ``unlink()``;
    * **workers** :meth:`attach` by name and read the same physical
      pages — block lookups return :class:`BlockData` whose arrays are
      read-only views into the segment, so the per-epoch data-plane cost
      is zero and nothing is ever pickled or copied per task.

    Multi-block (GPU) task records are merged on first use and cached
    locally per process, exactly like :meth:`BlockStore.task_data`.
    """

    def __init__(self, segment, handle: SharedBlockStoreHandle) -> None:
        self._segment = segment
        self._handle = handle
        self._blocks: Dict[Tuple[int, int], BlockData] = {}
        self._tasks: Dict[Tuple[Tuple[int, int], ...], BlockData] = {}
        self._build_views()

    def _build_views(self) -> None:
        nnz = self._handle.nnz
        itemsize = 8  # int64 and float64 alike
        arrays = [
            self._segment.ndarray((nnz,), dtype, offset=index * nnz * itemsize)
            for index, dtype in enumerate(_SHARED_DTYPES)
        ]
        for row_band, col_band, offset, length, r0, r1, c0, c1 in self._handle.entries:
            views = [array[offset : offset + length] for array in arrays]
            for view in views:
                view.setflags(write=False)
            vals, local_rows, local_cols = views
            # Direct construction: the arrays were validated by
            # BlockData.from_slice when the owner materialised them, and
            # copying here would defeat the shared segment entirely.
            self._blocks[(row_band, col_band)] = BlockData(
                row_range=(r0, r1),
                col_range=(c0, c1),
                vals=vals,
                local_rows=local_rows,
                local_cols=local_cols,
            )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, materialised: List[Tuple[object, BlockData]]) -> "SharedBlockStore":
        """Pack materialised ``(block, BlockData)`` pairs into a segment."""
        from ..shm import SharedSegment

        if not materialised:
            raise ExecutionError("cannot share an empty block set")
        nnz = sum(data.nnz for _, data in materialised)
        if nnz <= 0:
            raise ExecutionError("cannot share a block set with no ratings")
        segment = SharedSegment.create(nnz * 8 * len(_SHARED_FIELDS), purpose="blocks")
        try:
            itemsize = 8
            arrays = [
                segment.ndarray((nnz,), dtype, offset=index * nnz * itemsize)
                for index, dtype in enumerate(_SHARED_DTYPES)
            ]
            entries = []
            offset = 0
            seen = set()
            for block, data in materialised:
                key = (int(block.row_band), int(block.col_band))
                if key in seen:
                    raise ExecutionError(f"duplicate grid block {key} in shared store")
                seen.add(key)
                for array, name in zip(arrays, _SHARED_FIELDS):
                    array[offset : offset + data.nnz] = getattr(data, name)
                entries.append(
                    key
                    + (offset, data.nnz)
                    + tuple(int(x) for x in data.row_range)
                    + tuple(int(x) for x in data.col_range)
                )
                offset += data.nnz
            del arrays
            handle = SharedBlockStoreHandle(
                segment=segment.name, nnz=nnz, entries=tuple(entries)
            )
            return cls(segment, handle)
        except BaseException:
            segment.unlink()
            raise

    @classmethod
    def attach(cls, handle: SharedBlockStoreHandle) -> "SharedBlockStore":
        """Map an owner's segment in a worker process (no copies)."""
        from ..shm import SharedSegment

        return cls(SharedSegment.attach(handle.segment), handle)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    @property
    def handle(self) -> SharedBlockStoreHandle:
        """The picklable descriptor workers attach with."""
        return self._handle

    def block_data(self, key: Tuple[int, int]) -> BlockData:
        """The shared-memory record of one grid block ``(row_band, col_band)``."""
        try:
            return self._blocks[key]
        except KeyError:
            raise ExecutionError(
                f"grid block {key} is not part of this shared store"
            ) from None

    def task_data(self, keys: Tuple[Tuple[int, int], ...]) -> BlockData:
        """The record covering a task given its blocks' grid keys.

        Single-block tasks are served straight from the segment;
        multi-block tasks are merged once per distinct key tuple and
        cached in *private* memory (a per-process, per-run cost — the
        per-epoch hot path stays zero-copy).
        """
        if len(keys) == 1:
            return self.block_data(keys[0])
        keys = tuple(keys)
        data = self._tasks.get(keys)
        if data is None:
            data = merge_block_data([self.block_data(key) for key in keys])
            self._tasks[keys] = data
        return data

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop every view and this process's mapping (idempotent)."""
        # The BlockData views pin the segment's buffer; release them
        # before closing or SharedMemory.close() refuses.
        self._blocks = {}
        self._tasks = {}
        self._segment.close()

    def unlink(self) -> None:
        """Destroy the segment (owner side only; implies :meth:`close`)."""
        self.close()
        self._segment.unlink()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedBlockStore(segment={self._handle.segment!r}, "
            f"nnz={self._handle.nnz}, blocks={len(self._blocks)})"
        )
