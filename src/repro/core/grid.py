"""Block grid: the lockable unit structure of block-parallel SGD.

A :class:`BlockGrid` is the matrix division both HSGD and HSGD* schedule
over.  It consists of

* a list of **row bands** — contiguous user-index intervals, each tagged
  with the :class:`Region` that owns it (``CPU``, ``GPU`` or ``SHARED``
  for uniform divisions) and, for GPU sub-rows, the index of the parent
  GPU row they belong to (Figure 9);
* a list of **column bands** — contiguous item-index intervals shared by
  every region (the ``nc + 2 ng + 1`` columns of the paper);
* one :class:`GridBlock` per (row band, column band) cell carrying the COO
  positions of the ratings inside it (a read-only view into the one
  permutation :func:`~repro.sparse.bucket_ratings` sorts the ratings by)
  and a running update counter.

Two blocks are *independent* exactly when they are in different row bands
and different column bands (Section III-A); the grid itself is agnostic of
scheduling — conflict enforcement lives in :class:`repro.core.locks.LockTable`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidPartitionError
from ..sparse import SparseRatingMatrix, bucket_ratings


class Region(enum.Enum):
    """Which resource a row band (and its blocks) is assigned to."""

    SHARED = "shared"
    CPU = "cpu"
    GPU = "gpu"


@dataclass(frozen=True)
class RowBand:
    """One horizontal band of the grid.

    Attributes
    ----------
    index:
        Position of the band in the grid (0-based, top to bottom).
    row_range:
        Half-open user-index interval covered by the band.
    region:
        Owning region.
    gpu_row:
        For GPU sub-rows, the index of the parent GPU row of Figure 9
        (several consecutive sub-rows share one parent); ``None``
        otherwise.
    """

    index: int
    row_range: Tuple[int, int]
    region: Region
    gpu_row: Optional[int] = None

    @property
    def height(self) -> int:
        """Number of user rows in the band."""
        return self.row_range[1] - self.row_range[0]


@dataclass
class GridBlock:
    """One cell of the grid.

    Mutable on purpose: the scheduler increments :attr:`update_count`
    every time the block is processed, which is both the statistic behind
    the paper's Example 3 (update imbalance of HSGD) and the key the
    greedy schedulers minimise when picking the next block.
    """

    block_id: int
    row_band: int
    col_band: int
    row_range: Tuple[int, int]
    col_range: Tuple[int, int]
    indices: np.ndarray
    region: Region
    update_count: int = 0
    #: Ratings processed in the *current* iteration; reset by the scheduler.
    points_this_iteration: int = 0

    @property
    def nnz(self) -> int:
        """Number of ratings inside the block."""
        return len(self.indices)

    @property
    def p_rows(self) -> int:
        """Number of user rows spanned (size of the P segment it touches)."""
        return self.row_range[1] - self.row_range[0]

    @property
    def q_cols(self) -> int:
        """Number of item columns spanned (size of the Q segment it touches)."""
        return self.col_range[1] - self.col_range[0]

    def __repr__(self) -> str:
        return (
            f"GridBlock(id={self.block_id}, row={self.row_band}, "
            f"col={self.col_band}, nnz={self.nnz}, region={self.region.value})"
        )


@dataclass
class BlockGrid:
    """The full matrix division: row bands, column bands and blocks."""

    row_bands: List[RowBand]
    col_ranges: List[Tuple[int, int]]
    blocks: List[List[GridBlock]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        matrix: SparseRatingMatrix,
        row_bands: Sequence[RowBand],
        col_boundaries: Sequence[int],
    ) -> "BlockGrid":
        """Materialise a grid for ``matrix`` from banded row/column structure.

        ``row_bands`` must tile ``[0, m)`` contiguously in order;
        ``col_boundaries`` is a monotone boundary array over ``[0, n]``.
        """
        if not row_bands:
            raise InvalidPartitionError("a grid needs at least one row band")
        expected_start = 0
        for band in row_bands:
            if band.row_range[0] != expected_start:
                raise InvalidPartitionError(
                    f"row bands must tile the matrix contiguously; band "
                    f"{band.index} starts at {band.row_range[0]}, expected "
                    f"{expected_start}"
                )
            if band.row_range[1] <= band.row_range[0]:
                raise InvalidPartitionError(
                    f"row band {band.index} has non-positive height"
                )
            expected_start = band.row_range[1]
        if expected_start != matrix.n_rows:
            raise InvalidPartitionError(
                f"row bands cover [0, {expected_start}) but the matrix has "
                f"{matrix.n_rows} rows"
            )

        row_boundaries = [band.row_range[0] for band in row_bands] + [matrix.n_rows]
        order, offsets = bucket_ratings(matrix, row_boundaries, col_boundaries)
        order.setflags(write=False)

        col_ranges = [
            (int(col_boundaries[j]), int(col_boundaries[j + 1]))
            for j in range(len(col_boundaries) - 1)
        ]
        blocks: List[List[GridBlock]] = []
        for i, band in enumerate(row_bands):
            row_blocks: List[GridBlock] = []
            for j, col_range in enumerate(col_ranges):
                cell = i * len(col_ranges) + j
                row_blocks.append(
                    GridBlock(
                        block_id=cell,
                        row_band=i,
                        col_band=j,
                        row_range=band.row_range,
                        col_range=col_range,
                        indices=order[offsets[cell] : offsets[cell + 1]],
                        region=band.region,
                    )
                )
            blocks.append(row_blocks)
        return cls(row_bands=list(row_bands), col_ranges=col_ranges, blocks=blocks)

    # ------------------------------------------------------------------ #
    # Shape and lookup
    # ------------------------------------------------------------------ #
    @property
    def n_row_bands(self) -> int:
        """Number of row bands."""
        return len(self.row_bands)

    @property
    def n_col_bands(self) -> int:
        """Number of column bands."""
        return len(self.col_ranges)

    @property
    def n_blocks(self) -> int:
        """Total number of blocks."""
        return self.n_row_bands * self.n_col_bands

    @property
    def total_nnz(self) -> int:
        """Total number of ratings across all blocks."""
        return sum(block.nnz for block in self.iter_blocks())

    def block(self, row_band: int, col_band: int) -> GridBlock:
        """The block at a given cell."""
        return self.blocks[row_band][col_band]

    def iter_blocks(self) -> Iterator[GridBlock]:
        """Iterate over all blocks in row-major order."""
        for row in self.blocks:
            yield from row

    def blocks_in_region(self, region: Region) -> List[GridBlock]:
        """All blocks owned by ``region``."""
        return [block for block in self.iter_blocks() if block.region == region]

    def region_nnz(self, region: Region) -> int:
        """Total ratings owned by ``region``."""
        return sum(block.nnz for block in self.blocks_in_region(region))

    def row_bands_in_region(self, region: Region) -> List[RowBand]:
        """All row bands owned by ``region``."""
        return [band for band in self.row_bands if band.region == region]

    def gpu_row_members(self, gpu_row: int) -> List[RowBand]:
        """The sub-row bands belonging to one parent GPU row of Figure 9."""
        return [
            band
            for band in self.row_bands
            if band.region == Region.GPU and band.gpu_row == gpu_row
        ]

    def n_gpu_rows(self) -> int:
        """Number of distinct parent GPU rows."""
        gpu_rows = {
            band.gpu_row
            for band in self.row_bands
            if band.region == Region.GPU and band.gpu_row is not None
        }
        return len(gpu_rows)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def update_counts(self) -> np.ndarray:
        """2-D array of per-block update counts (for imbalance analysis)."""
        return np.array(
            [[block.update_count for block in row] for row in self.blocks],
            dtype=np.int64,
        )

    def nnz_matrix(self) -> np.ndarray:
        """2-D array of per-block rating counts."""
        return np.array(
            [[block.nnz for block in row] for row in self.blocks], dtype=np.int64
        )

    def reset_iteration_counters(self) -> None:
        """Zero the per-iteration point counters of every block."""
        for block in self.iter_blocks():
            block.points_this_iteration = 0

    def __repr__(self) -> str:
        return (
            f"BlockGrid({self.n_row_bands} x {self.n_col_bands} blocks, "
            f"nnz={self.total_nnz})"
        )
