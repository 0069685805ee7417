"""Execution traces of training runs (every backend records the same one).

A trace records what the scheduler and the (simulated) hardware did:
one :class:`TaskRecord` per dispatched task, one :class:`IterationRecord`
per completed iteration (with simulated time and test RMSE), and derived
per-worker utilisation statistics.  The experiment harness mines traces
for the paper's running-time figures, the workload-proportion rows of
Table II and the update-imbalance analysis behind Figure 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class TaskRecord:
    """One dispatched task, as executed by the simulation."""

    worker_index: int
    is_gpu: bool
    start_time: float
    end_time: float
    points: int
    n_blocks: int
    stolen: bool
    iteration: int

    @property
    def duration(self) -> float:
        """Simulated seconds the task occupied its worker."""
        return self.end_time - self.start_time


@dataclass(frozen=True)
class IterationRecord:
    """State at the completion of one training iteration (epoch)."""

    iteration: int
    simulated_time: float
    train_rmse: Optional[float]
    test_rmse: Optional[float]
    points_processed: int


@dataclass
class WorkerStats:
    """Aggregated per-worker activity."""

    worker_index: int
    is_gpu: bool
    busy_time: float = 0.0
    points: int = 0
    tasks: int = 0
    stolen_tasks: int = 0


@dataclass
class ExecutionTrace:
    """Everything recorded during one simulated run."""

    tasks: List[TaskRecord] = field(default_factory=list)
    iterations: List[IterationRecord] = field(default_factory=list)
    final_time: float = 0.0
    target_rmse: Optional[float] = None
    target_reached_at: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_task(self, record: TaskRecord) -> None:
        """Append a completed task."""
        self.tasks.append(record)

    def record_iteration(self, record: IterationRecord) -> None:
        """Append a completed iteration."""
        self.iterations.append(record)

    # ------------------------------------------------------------------ #
    # Derived statistics
    # ------------------------------------------------------------------ #
    def worker_stats(self) -> Dict[int, WorkerStats]:
        """Per-worker busy time, processed points and task counts."""
        stats: Dict[int, WorkerStats] = {}
        for task in self.tasks:
            entry = stats.setdefault(
                task.worker_index,
                WorkerStats(worker_index=task.worker_index, is_gpu=task.is_gpu),
            )
            entry.busy_time += task.duration
            entry.points += task.points
            entry.tasks += 1
            if task.stolen:
                entry.stolen_tasks += 1
        return stats

    def points_by_resource(self) -> Dict[str, int]:
        """Total ratings processed by CPUs vs GPUs.

        This is the "workload proportion" reported in Table II — measured
        from what actually ran rather than from the cost model's plan.
        """
        totals = {"cpu": 0, "gpu": 0}
        for task in self.tasks:
            totals["gpu" if task.is_gpu else "cpu"] += task.points
        return totals

    def resource_share(self) -> Dict[str, float]:
        """Fraction of processed ratings handled by each resource."""
        totals = self.points_by_resource()
        grand = sum(totals.values())
        if grand == 0:
            return {"cpu": 0.0, "gpu": 0.0}
        return {key: value / grand for key, value in totals.items()}

    def total_points(self) -> int:
        """Total ratings processed over the whole run."""
        return sum(task.points for task in self.tasks)

    def rmse_curve(self) -> List[tuple]:
        """``(simulated_time, test_rmse)`` pairs, one per iteration."""
        return [
            (record.simulated_time, record.test_rmse)
            for record in self.iterations
            if record.test_rmse is not None
        ]

    def time_to_rmse(self, target: float) -> Optional[float]:
        """Earliest simulated time at which the test RMSE is <= ``target``."""
        for record in self.iterations:
            if record.test_rmse is not None and record.test_rmse <= target:
                return record.simulated_time
        return None

    def utilization(self, n_workers: int) -> float:
        """Mean fraction of the run each worker spent busy."""
        if self.final_time <= 0 or n_workers <= 0:
            return 0.0
        stats = self.worker_stats()
        busy = sum(entry.busy_time for entry in stats.values())
        return busy / (self.final_time * n_workers)

    def stolen_task_count(self) -> int:
        """Number of tasks dispatched across region boundaries."""
        return sum(1 for task in self.tasks if task.stolen)

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary used by reports and tests."""
        share = self.resource_share()
        return {
            "final_time": self.final_time,
            "iterations": float(len(self.iterations)),
            "total_points": float(self.total_points()),
            "gpu_share": share["gpu"],
            "cpu_share": share["cpu"],
            "stolen_tasks": float(self.stolen_task_count()),
            "final_test_rmse": (
                self.iterations[-1].test_rmse
                if self.iterations and self.iterations[-1].test_rmse is not None
                else float("nan")
            ),
        }
