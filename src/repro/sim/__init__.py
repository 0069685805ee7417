"""Discrete-event simulation engine.

The engine executes a scheduler's decisions against the simulated
hardware: every task a worker receives advances that worker's virtual
clock by the device's predicted processing time while the task's SGD
updates are *actually applied* to the factor matrices with numpy.

The result couples genuine training dynamics (real RMSE trajectories,
real sensitivity to update ordering and imbalance) with paper-shaped
timing, which is what lets the reproduction regenerate both the quality
figures (12, 13) and the running-time figures (10, 11) without a GPU.
"""

from ..exec.trace import ExecutionTrace, IterationRecord, TaskRecord, WorkerStats
from .engine import SimulationEngine, SimulationResult, SimulationSession

__all__ = [
    "ExecutionTrace",
    "IterationRecord",
    "TaskRecord",
    "WorkerStats",
    "SimulationEngine",
    "SimulationResult",
    "SimulationSession",
]
