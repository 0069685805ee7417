"""Execution traces — re-exported from :mod:`repro.exec.trace`.

Every backend records the same trace, so it lives with the session core
in :mod:`repro.exec`; this module keeps the historical import path.
"""

from ..exec.trace import ExecutionTrace, IterationRecord, TaskRecord, WorkerStats

__all__ = ["ExecutionTrace", "IterationRecord", "TaskRecord", "WorkerStats"]
