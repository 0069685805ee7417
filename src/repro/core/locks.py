"""Row/column occupancy table enforcing block independence.

Two blocks conflict when they share a row band or a column band
(Section III-A): processing them concurrently would race on the same rows
of ``P`` or columns of ``Q``.  The :class:`LockTable` tracks which row and
column bands are currently held by in-flight tasks; a task may only be
dispatched when every band it touches is free, and it must release those
bands when it completes.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

from ..exceptions import SchedulingError


class LockTable:
    """Occupancy of row bands and column bands by worker tasks."""

    def __init__(self, n_row_bands: int, n_col_bands: int) -> None:
        if n_row_bands <= 0 or n_col_bands <= 0:
            raise SchedulingError("lock table needs positive band counts")
        self.n_row_bands = n_row_bands
        self.n_col_bands = n_col_bands
        self._locked_rows: Set[int] = set()
        self._locked_cols: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def row_free(self, row_band: int) -> bool:
        """Whether a row band is currently unheld."""
        self._check_row(row_band)
        return row_band not in self._locked_rows

    def col_free(self, col_band: int) -> bool:
        """Whether a column band is currently unheld."""
        self._check_col(col_band)
        return col_band not in self._locked_cols

    def free_rows(self, row_bands: Sequence[int]) -> List[int]:
        """The unheld bands of ``row_bands``, in the order given."""
        if row_bands:  # one range check for the whole list
            self._check_row(min(row_bands))
            self._check_row(max(row_bands))
        return [band for band in row_bands if band not in self._locked_rows]

    def free_cols(self, col_bands: Sequence[int]) -> List[int]:
        """The unheld bands of ``col_bands``, in the order given."""
        if col_bands:
            self._check_col(min(col_bands))
            self._check_col(max(col_bands))
        return [band for band in col_bands if band not in self._locked_cols]

    def can_acquire(self, row_bands: Iterable[int], col_bands: Iterable[int]) -> bool:
        """Whether every listed band is free."""
        return all(self.row_free(r) for r in set(row_bands)) and all(
            self.col_free(c) for c in set(col_bands)
        )

    @property
    def locked_rows(self) -> Set[int]:
        """Currently held row bands (copy)."""
        return set(self._locked_rows)

    @property
    def locked_cols(self) -> Set[int]:
        """Currently held column bands (copy)."""
        return set(self._locked_cols)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def acquire(self, row_bands: Iterable[int], col_bands: Iterable[int]) -> None:
        """Atomically lock the listed bands.

        Raises
        ------
        SchedulingError
            If any band is already held — the scheduler must check
            :meth:`can_acquire` first; acquiring a held band means two
            conflicting blocks would run concurrently.
        """
        rows = set(row_bands)
        cols = set(col_bands)
        if not self.can_acquire(rows, cols):
            raise SchedulingError(
                f"attempted to acquire held bands: rows {sorted(rows & self._locked_rows)}, "
                f"cols {sorted(cols & self._locked_cols)}"
            )
        self._locked_rows |= rows
        self._locked_cols |= cols

    def release(self, row_bands: Iterable[int], col_bands: Iterable[int]) -> None:
        """Release previously acquired bands.

        Raises
        ------
        SchedulingError
            If a band being released is not currently held (double release
            or release of a never-acquired band).
        """
        rows = set(row_bands)
        cols = set(col_bands)
        missing_rows = rows - self._locked_rows
        missing_cols = cols - self._locked_cols
        if missing_rows or missing_cols:
            raise SchedulingError(
                f"attempted to release unheld bands: rows {sorted(missing_rows)}, "
                f"cols {sorted(missing_cols)}"
            )
        self._locked_rows -= rows
        self._locked_cols -= cols

    def release_all(self) -> None:
        """Release every held band (used when a run is aborted)."""
        self._locked_rows.clear()
        self._locked_cols.clear()

    # ------------------------------------------------------------------ #
    # Internal
    # ------------------------------------------------------------------ #
    def _check_row(self, row_band: int) -> None:
        if not 0 <= row_band < self.n_row_bands:
            raise SchedulingError(
                f"row band {row_band} outside [0, {self.n_row_bands})"
            )

    def _check_col(self, col_band: int) -> None:
        if not 0 <= col_band < self.n_col_bands:
            raise SchedulingError(
                f"column band {col_band} outside [0, {self.n_col_bands})"
            )

    def __repr__(self) -> str:
        return (
            f"LockTable(rows={sorted(self._locked_rows)}, "
            f"cols={sorted(self._locked_cols)})"
        )
