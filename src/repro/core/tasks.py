"""Scheduling tasks: the unit of work handed to a worker.

A task bundles one or more grid blocks that a worker will process back to
back before reporting completion:

* CPU workers, and every worker of the uniform schedulers, receive a
  single block per task;
* a GPU in HSGD*'s **static phase** receives an entire column of sub-
  blocks within its GPU row (the "large block" of Figure 9), so the GPU
  sees one big contiguous workload that saturates its throughput while
  the lock table still tracks the underlying sub-rows;
* in the **dynamic phase** a stolen task is again a single (small) block.

The task also records which row/column bands it holds, how many ratings
it contains and the factor-segment geometry used to price its PCIe
transfers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List

from ..exceptions import SchedulingError
from ..hardware import BlockWork
from .grid import GridBlock


@dataclass
class Task:
    """A unit of schedulable work.

    Attributes
    ----------
    blocks:
        The grid blocks processed by this task, in processing order.
    worker_index:
        The worker the task is assigned to.
    stolen:
        Whether the task crosses regions (a dynamic-phase steal).
    resident_p:
        When ``True`` the worker already holds the task's ``P`` segment
        (HSGD*'s static phase pins each GPU to specific rows so the user-
        factor segment never moves over PCIe).
    nnz:
        Total ratings across the task's blocks.
    row_bands, col_bands:
        The row and column bands the task holds.

    The last three are computed once, at construction: a task's blocks
    never change.
    """

    blocks: List[GridBlock]
    worker_index: int
    stolen: bool = False
    resident_p: bool = False
    nnz: int = field(init=False, repr=False, compare=False)
    row_bands: FrozenSet[int] = field(init=False, repr=False, compare=False)
    col_bands: FrozenSet[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.blocks:
            raise SchedulingError("a task must contain at least one block")
        self.nnz = sum(block.nnz for block in self.blocks)
        self.row_bands = frozenset(block.row_band for block in self.blocks)
        self.col_bands = frozenset(block.col_band for block in self.blocks)

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    @property
    def p_rows(self) -> int:
        """User rows spanned by the task (P segment size)."""
        return sum(
            block.row_range[1] - block.row_range[0] for block in self.blocks
        )

    @property
    def q_cols(self) -> int:
        """Item columns spanned (Q segment size).

        The blocks of a static-phase GPU task share one column band, so
        the distinct column ranges are counted once.
        """
        ranges = {block.col_range for block in self.blocks}
        return sum(stop - start for start, stop in ranges)

    def block_work(self, latent_factors: int) -> BlockWork:
        """Describe the task as hardware work for device timing.

        When :attr:`resident_p` is set the P segment does not travel over
        PCIe, so it is excluded from the transfer size.
        """
        return BlockWork(
            nnz=self.nnz,
            p_rows=0 if self.resident_p else self.p_rows,
            q_cols=self.q_cols,
            latent_factors=latent_factors,
        )

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def mark_processed(self) -> None:
        """Record one full update pass over every block of the task."""
        for block in self.blocks:
            block.update_count += 1
            block.points_this_iteration += block.nnz

    def __repr__(self) -> str:
        return (
            f"Task(worker={self.worker_index}, blocks={len(self.blocks)}, "
            f"nnz={self.nnz}, stolen={self.stolen})"
        )
