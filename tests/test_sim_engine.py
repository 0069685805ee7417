"""Tests of the discrete-event simulation engine and execution traces."""

import pytest

from repro.config import HardwareConfig
from repro.core import (
    GreedyBlockScheduler,
    HSGDStarScheduler,
    nonuniform_partition,
)
from repro.core.partition import hsgd_partition
from repro.exceptions import SimulationError
from repro.hardware import HeterogeneousPlatform
from repro.sgd import rmse
from repro.sim import ExecutionTrace, IterationRecord, SimulationEngine, TaskRecord
from repro.exec.trace import WorkerStats


def _engine(train, test, platform, training, scheduler, **kwargs):
    return SimulationEngine(
        scheduler=scheduler,
        platform=platform,
        train=train,
        training=training,
        test=test,
        **kwargs,
    )


class TestEngineBasics:
    def test_runs_requested_iterations(self, small_split, small_platform, small_training):
        train, test = small_split
        grid = hsgd_partition(train, 4, 1)
        scheduler = GreedyBlockScheduler(grid, 4, 1)
        engine = _engine(train, test, small_platform, small_training, scheduler)
        result = engine.run(iterations=3)
        assert len(result.trace.iterations) == 3
        assert result.trace.final_time > 0
        assert result.engine_time == result.trace.final_time

    def test_processed_points_match_iterations(self, small_split, small_platform, small_training):
        train, test = small_split
        grid = hsgd_partition(train, 4, 1)
        scheduler = GreedyBlockScheduler(grid, 4, 1)
        engine = _engine(train, test, small_platform, small_training, scheduler)
        result = engine.run(iterations=2)
        assert result.trace.total_points() >= 2 * train.nnz
        # Not much overshoot either: at most one in-flight task per worker.
        assert result.trace.total_points() < 2 * train.nnz + 5 * train.nnz / 4

    def test_rmse_decreases_over_iterations(self, small_split, small_platform, small_training):
        train, test = small_split
        grid = hsgd_partition(train, 4, 1)
        scheduler = GreedyBlockScheduler(grid, 4, 1)
        engine = _engine(train, test, small_platform, small_training, scheduler)
        result = engine.run(iterations=5)
        curve = [record.test_rmse for record in result.trace.iterations]
        assert curve[-1] < curve[0]

    def test_model_updates_are_real(self, small_split, small_platform, small_training):
        train, test = small_split
        grid = hsgd_partition(train, 4, 1)
        scheduler = GreedyBlockScheduler(grid, 4, 1)
        engine = _engine(train, test, small_platform, small_training, scheduler)
        before = rmse(engine.model, test)
        result = engine.run(iterations=4)
        assert rmse(result.model, test) < before

    def test_target_rmse_stops_early(self, small_split, small_platform, small_training):
        train, test = small_split
        grid = hsgd_partition(train, 4, 1)
        scheduler = GreedyBlockScheduler(grid, 4, 1)
        engine = _engine(train, test, small_platform, small_training, scheduler)
        baseline = _engine(
            train, test, small_platform, small_training,
            GreedyBlockScheduler(hsgd_partition(train, 4, 1), 4, 1),
        ).run(iterations=8)
        midway_rmse = baseline.trace.iterations[3].test_rmse
        result = engine.run(iterations=8, target_rmse=midway_rmse)
        assert result.converged
        assert result.trace.target_reached_at is not None
        assert len(result.trace.iterations) <= 8

    def test_unreachable_target_does_not_converge(self, small_split, small_platform, small_training):
        train, test = small_split
        grid = hsgd_partition(train, 4, 1)
        scheduler = GreedyBlockScheduler(grid, 4, 1)
        engine = _engine(train, test, small_platform, small_training, scheduler)
        result = engine.run(iterations=2, target_rmse=1e-9)
        assert not result.converged
        assert result.trace.target_reached_at is None

    def test_target_requires_test_set(self, small_split, small_platform, small_training):
        train, _ = small_split
        grid = hsgd_partition(train, 4, 1)
        scheduler = GreedyBlockScheduler(grid, 4, 1)
        engine = SimulationEngine(
            scheduler=scheduler, platform=small_platform, train=train,
            training=small_training,
        )
        with pytest.raises(SimulationError):
            engine.run(target_rmse=0.5)

    def test_max_simulated_time_cap(self, small_split, small_platform, small_training):
        train, test = small_split
        grid = hsgd_partition(train, 4, 1)
        scheduler = GreedyBlockScheduler(grid, 4, 1)
        engine = _engine(train, test, small_platform, small_training, scheduler)
        long_run = engine.run(iterations=4)
        budget = long_run.trace.final_time
        capped = _engine(
            train, test, small_platform, small_training,
            GreedyBlockScheduler(hsgd_partition(train, 4, 1), 4, 1),
        ).run(iterations=4, max_simulated_time=budget / 2)
        assert capped.trace.final_time <= budget / 2 + budget

    def test_worker_count_mismatch_rejected(self, small_split, small_platform, small_training):
        train, test = small_split
        grid = hsgd_partition(train, 2, 1)
        scheduler = GreedyBlockScheduler(grid, 2, 1)  # 3 workers vs platform's 5
        with pytest.raises(SimulationError):
            _engine(train, test, small_platform, small_training, scheduler)

    def test_workers_busy_most_of_the_time(self, small_split, small_platform, small_training):
        train, test = small_split
        grid = hsgd_partition(train, 4, 1)
        scheduler = GreedyBlockScheduler(grid, 4, 1)
        result = _engine(
            train, test, small_platform, small_training, scheduler
        ).run(iterations=3)
        assert result.trace.utilization(5) > 0.6

    def test_hsgd_star_scheduler_in_engine(self, small_split, small_platform, small_training):
        train, test = small_split
        grid = nonuniform_partition(train, alpha=0.3, n_cpu_threads=4, n_gpus=1)
        scheduler = HSGDStarScheduler(grid, 4, 1, dynamic_scheduling=True)
        result = _engine(
            train, test, small_platform, small_training, scheduler
        ).run(iterations=3)
        assert len(result.trace.iterations) == 3
        share = result.trace.resource_share()
        assert 0.0 < share["gpu"] < 1.0

    def test_gpu_contention_slows_hybrid_tasks(self, small_split, scaled_preset, small_training):
        """The same GPU task is slower in a hybrid run than in a GPU-only run."""
        train, test = small_split
        hybrid_platform = HeterogeneousPlatform.from_preset(
            HardwareConfig(cpu_threads=4, gpu_count=1), scaled_preset
        )
        gpu_platform = HeterogeneousPlatform.from_preset(
            HardwareConfig(cpu_threads=0, gpu_count=1), scaled_preset
        )
        grid_h = nonuniform_partition(train, alpha=1.0, n_cpu_threads=0, n_gpus=1)
        # Same all-GPU division, but one engine sees CPU threads on the
        # platform (idle — no stealing), which triggers host contention.
        hybrid_sched = HSGDStarScheduler(grid_h, 4, 1, dynamic_scheduling=False)
        gpu_sched = HSGDStarScheduler(
            nonuniform_partition(train, alpha=1.0, n_cpu_threads=0, n_gpus=1), 0, 1
        )
        hybrid = _engine(
            train, test, hybrid_platform, small_training, hybrid_sched
        ).run(iterations=1)
        gpu_only = _engine(
            train, test, gpu_platform, small_training, gpu_sched
        ).run(iterations=1)
        gpu_tasks_hybrid = [t for t in hybrid.trace.tasks if t.is_gpu]
        assert gpu_tasks_hybrid  # the GPU did all the work in both runs
        assert hybrid.trace.final_time > gpu_only.trace.final_time


class TestTrace:
    def _record(self, worker, start, end, points, gpu=False, stolen=False, iteration=0):
        return TaskRecord(
            worker_index=worker, is_gpu=gpu, start_time=start, end_time=end,
            points=points, n_blocks=1, stolen=stolen, iteration=iteration,
        )

    def test_worker_stats_aggregation(self):
        trace = ExecutionTrace()
        trace.record_task(self._record(0, 0.0, 1.0, 100))
        trace.record_task(self._record(0, 1.0, 3.0, 200))
        trace.record_task(self._record(1, 0.0, 0.5, 50, gpu=True, stolen=True))
        stats = trace.worker_stats()
        assert stats[0].busy_time == pytest.approx(3.0)
        assert stats[0].points == 300
        assert stats[0].tasks == 2
        assert stats[1].stolen_tasks == 1
        assert isinstance(stats[0], WorkerStats)

    def test_resource_share(self):
        trace = ExecutionTrace()
        trace.record_task(self._record(0, 0, 1, 300))
        trace.record_task(self._record(1, 0, 1, 700, gpu=True))
        share = trace.resource_share()
        assert share["gpu"] == pytest.approx(0.7)
        assert share["cpu"] == pytest.approx(0.3)

    def test_resource_share_empty(self):
        assert ExecutionTrace().resource_share() == {"cpu": 0.0, "gpu": 0.0}

    def test_rmse_curve_and_time_to_target(self):
        trace = ExecutionTrace()
        trace.record_iteration(IterationRecord(0, 1.0, None, 0.9, 100))
        trace.record_iteration(IterationRecord(1, 2.0, None, 0.7, 200))
        trace.record_iteration(IterationRecord(2, 3.0, None, 0.65, 300))
        assert trace.rmse_curve() == [(1.0, 0.9), (2.0, 0.7), (3.0, 0.65)]
        assert trace.time_to_rmse(0.7) == 2.0
        assert trace.time_to_rmse(0.1) is None

    def test_summary_fields(self):
        trace = ExecutionTrace()
        trace.record_task(self._record(0, 0, 1, 100))
        trace.record_iteration(IterationRecord(0, 1.0, None, 0.5, 100))
        trace.final_time = 1.0
        summary = trace.summary()
        assert summary["iterations"] == 1.0
        assert summary["total_points"] == 100.0
        assert summary["final_test_rmse"] == 0.5

    def test_utilization_bounds(self):
        trace = ExecutionTrace()
        trace.record_task(self._record(0, 0.0, 1.0, 10))
        trace.final_time = 2.0
        assert trace.utilization(1) == pytest.approx(0.5)
        assert trace.utilization(0) == 0.0
