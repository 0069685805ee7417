"""Serializable training checkpoints.

A :class:`TrainCheckpoint` captures everything a paused
:class:`~repro.exec.session.EngineSession` needs to resume **bitwise
identically** to the uninterrupted run:

* the factor matrices ``P`` and ``Q``;
* the scheduler state — tie-break RNG, per-block update counters,
  per-iteration quota counters and steal counts (the inputs of every
  future scheduling decision);
* the engine-loop state — epoch/point counters, the engine clock, and
  (simulator only) the in-flight tasks dispatched across the paused
  epoch boundary, with their completion times and sequence numbers;
* the trace prefix, so the resumed run's RMSE curve and worker
  statistics continue seamlessly.

Checkpoints may only be captured at an epoch boundary (where sessions
pause), which is what makes the state small and well-defined: quota
resets and RMSE evaluation have happened, the learning-rate schedule is
fully described by the epoch index, and — on the threaded backend, or a
1-worker simulation — no task is mid-update.

Resuming requires reconstructing the *same* run: same ratings, same
division/scheduler configuration, same hyper-parameters.  The
checkpoint stores a fingerprint (matrix shape, nnz, ``k``, backend) and
:meth:`restore` refuses a session that does not match.  A checkpoint
without in-flight tasks (threads backend, or any 1-worker run) is
portable across backends; a multi-worker simulator checkpoint carries
simulated in-flight completions and can only resume on ``"simulate"``.

File format: a single compressed ``.npz`` holding the factor matrices,
the integer counter grids and one JSON document for the rest.

The process backend's crash recovery captures the same ingredients —
factors, scheduler ``state_dict()``, loop counters, trace lengths — as
a lightweight in-memory snapshot at every epoch boundary instead of a
serialized file: rollback-replay after a worker death restores exactly
the state a checkpoint would have recorded there (see
``ProcessSession._stage_recovery_snapshot`` and DESIGN.md, "Failure
model and recovery").
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

import numpy as np

from ..config import KERNEL_NAMES
from ..exceptions import CheckpointError
from .trace import IterationRecord, TaskRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import EngineSession

PathLike = Union[str, os.PathLike]

#: Format version written into every checkpoint; bumped on layout changes.
CHECKPOINT_FORMAT = 1


def _trace_to_state(trace) -> dict:
    """Serialize an ExecutionTrace to plain JSON-able data."""
    return {
        "tasks": [
            {
                "worker_index": record.worker_index,
                "is_gpu": record.is_gpu,
                "start_time": record.start_time,
                "end_time": record.end_time,
                "points": record.points,
                "n_blocks": record.n_blocks,
                "stolen": record.stolen,
                "iteration": record.iteration,
            }
            for record in trace.tasks
        ],
        "iterations": [
            {
                "iteration": record.iteration,
                "simulated_time": record.simulated_time,
                "train_rmse": record.train_rmse,
                "test_rmse": record.test_rmse,
                "points_processed": record.points_processed,
            }
            for record in trace.iterations
        ],
        "final_time": trace.final_time,
        "target_rmse": trace.target_rmse,
        "target_reached_at": trace.target_reached_at,
    }


def _restore_trace(trace, state: dict) -> None:
    """Fill an existing ExecutionTrace with a serialized prefix."""
    trace.tasks = [TaskRecord(**record) for record in state["tasks"]]
    trace.iterations = [IterationRecord(**record) for record in state["iterations"]]
    trace.final_time = state["final_time"]
    trace.target_reached_at = state["target_reached_at"]


@dataclass
class TrainCheckpoint:
    """A resumable snapshot of one training run at an epoch boundary."""

    p: np.ndarray
    q: np.ndarray
    update_counts: np.ndarray
    points_this_iteration: np.ndarray
    scheduler_state: dict
    session_state: dict
    trace_state: dict
    meta: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Capture
    # ------------------------------------------------------------------ #
    @classmethod
    def capture(cls, session: "EngineSession") -> "TrainCheckpoint":
        """Snapshot a session paused at an epoch boundary.

        The factor matrices are copied, so the checkpoint stays valid
        while training continues.
        """
        model = session.model
        scheduler = session.scheduler
        scheduler_state = scheduler.state_dict()
        update_counts = scheduler_state.pop("update_counts")
        points_this_iteration = scheduler_state.pop("points_this_iteration")
        meta = {
            "format": CHECKPOINT_FORMAT,
            "backend": session.backend_name,
            "kernel": session.engine.kernel_name,
            "epoch": session.epoch,
            "n_rows": int(model.p.shape[0]),
            "n_cols": int(model.q.shape[1]),
            "latent_factors": int(model.latent_factors),
            "total_points": int(scheduler.total_points),
            "n_workers": int(scheduler.n_workers),
            "scheduler": type(scheduler).__name__,
            "grid_shape": [
                int(scheduler.grid.n_row_bands),
                int(scheduler.grid.n_col_bands),
            ],
        }
        return cls(
            p=model.p.copy(),
            q=model.q.T.copy().T,  # keep the item-major layout of Q
            update_counts=np.asarray(update_counts, dtype=np.int64),
            points_this_iteration=np.asarray(points_this_iteration, dtype=np.int64),
            scheduler_state=scheduler_state,
            session_state=session.state_dict(),
            trace_state=_trace_to_state(session.trace),
            meta=meta,
        )

    @property
    def epoch(self) -> int:
        """Epochs completed when the checkpoint was taken."""
        return int(self.meta.get("epoch", len(self.trace_state["iterations"])))

    # ------------------------------------------------------------------ #
    # Restore
    # ------------------------------------------------------------------ #
    def restore(self, session: "EngineSession") -> None:
        """Load this checkpoint into a freshly started session.

        The session must come from an identically-constructed engine
        (same ratings, division, scheduler seed and hyper-parameters)
        and must not have stepped yet.
        """
        if session.started:
            raise CheckpointError(
                "checkpoints can only be restored into a session that has "
                "not stepped yet"
            )
        model = session.model
        scheduler = session.scheduler
        mismatches = []
        if tuple(model.p.shape) != tuple(self.p.shape):
            mismatches.append(f"P shape {model.p.shape} != {self.p.shape}")
        if tuple(model.q.shape) != tuple(self.q.shape):
            mismatches.append(f"Q shape {model.q.shape} != {self.q.shape}")
        if scheduler.total_points != self.meta.get("total_points"):
            mismatches.append(
                f"grid nnz {scheduler.total_points} != {self.meta.get('total_points')}"
            )
        if scheduler.n_workers != self.meta.get("n_workers"):
            mismatches.append(
                f"worker count {scheduler.n_workers} != {self.meta.get('n_workers')}"
            )
        if type(scheduler).__name__ != self.meta.get("scheduler"):
            mismatches.append(
                f"scheduler {type(scheduler).__name__} != {self.meta.get('scheduler')}"
            )
        grid_shape = [
            int(scheduler.grid.n_row_bands),
            int(scheduler.grid.n_col_bands),
        ]
        if grid_shape != list(self.meta.get("grid_shape", grid_shape)):
            mismatches.append(
                f"grid {grid_shape} != {self.meta.get('grid_shape')}"
            )
        # Kernels differ in arithmetic ("native" vs numpy in the
        # last bits, "sequential" vs mini-batch by design): one run must
        # not silently mix two.  Checkpoints older than the field pass.
        kernel = session.engine.kernel_name
        saved = self.meta.get("kernel", kernel)
        if saved != kernel:
            hint = (
                f"pass kernel={saved!r} to continue that run"
                if saved in KERNEL_NAMES
                else f"kernel {saved!r} no longer exists"
            )
            mismatches.append(f"kernel {kernel!r} != checkpointed {saved!r} ({hint})")
        if mismatches:
            raise CheckpointError(
                "checkpoint does not match this run: " + "; ".join(mismatches)
            )

        # The session applies its loop state first: it performs the
        # backend-specific portability checks (e.g. the threaded backend
        # refuses checkpoints carrying simulated in-flight tasks) before
        # anything is mutated.
        session.load_state_dict(self.session_state)

        scheduler_state = dict(self.scheduler_state)
        scheduler_state["update_counts"] = self.update_counts
        scheduler_state["points_this_iteration"] = self.points_this_iteration
        scheduler.load_state_dict(scheduler_state)

        # In-place so the engine, the session and any BlockStore all keep
        # observing the same (item-major for Q) buffers.
        model.p[...] = self.p
        model.q[...] = self.q

        _restore_trace(session.trace, self.trace_state)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: PathLike) -> str:
        """Write the checkpoint to ``<path>`` (``.npz`` appended if absent).

        Returns the path actually written.
        """
        path = os.fspath(path)
        if not path.endswith(".npz"):
            path = path + ".npz"
        payload = {
            "scheduler_state": self.scheduler_state,
            "session_state": self.session_state,
            "trace_state": self.trace_state,
            "meta": self.meta,
        }
        np.savez_compressed(
            path,
            p=self.p,
            q=self.q,
            update_counts=self.update_counts,
            points_this_iteration=self.points_this_iteration,
            payload=np.frombuffer(
                json.dumps(payload).encode("utf-8"), dtype=np.uint8
            ),
        )
        return path

    @classmethod
    def load(cls, path: PathLike) -> "TrainCheckpoint":
        """Read a checkpoint previously written by :meth:`save`."""
        path = os.fspath(path)
        if not path.endswith(".npz") and not os.path.exists(path):
            path = path + ".npz"
        try:
            with np.load(path) as data:
                payload = json.loads(bytes(data["payload"]).decode("utf-8"))
                checkpoint = cls(
                    p=np.ascontiguousarray(data["p"]),
                    q=np.ascontiguousarray(data["q"].T).T,
                    update_counts=np.asarray(data["update_counts"], dtype=np.int64),
                    points_this_iteration=np.asarray(
                        data["points_this_iteration"], dtype=np.int64
                    ),
                    scheduler_state=payload["scheduler_state"],
                    session_state=payload["session_state"],
                    trace_state=payload["trace_state"],
                    meta=payload["meta"],
                )
        except (KeyError, ValueError, OSError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        if checkpoint.meta.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"unsupported checkpoint format {checkpoint.meta.get('format')!r} "
                f"(this build reads format {CHECKPOINT_FORMAT})"
            )
        return checkpoint
