"""Tests of the shared-memory multiprocess execution backend.

Covers the three contracts the backend must honour:

* **numerics** — with one worker and a fixed seed, runs (and
  checkpoint/resume round trips) are bitwise-identical to the serial
  simulator, exactly like the threaded parity suite;
* **lifecycle** — every shared-memory segment is attached, detached and
  unlinked exactly once, even when a worker process is killed mid-epoch
  or a callback raises (asserted via :func:`repro.shm.live_segment_names`
  and a ``/dev/shm`` sweep);
* **plumbing** — the registry/auto rule, config validation, trainer,
  ``factorize`` and the CLI all reach the backend, and the configurable
  kernel mini-batch size crosses the process boundary.
"""

import glob
import os
import signal

import numpy as np
import pytest

from repro.config import DEFAULT_BATCH_SIZE, HardwareConfig, TrainingConfig
from repro.core import (
    GreedyBlockScheduler,
    HSGDStarScheduler,
    HeterogeneousTrainer,
    factorize,
)
from repro.core.partition import nonuniform_partition, uniform_partition
from repro.exceptions import ConfigurationError, ExecutionError, InvalidMatrixError
from repro.exec import (
    EngineResult,
    ProcessEngine,
    ProcessResult,
    TrainCheckpoint,
    process_backend_supported,
    resolve_backend_name,
)
from repro.exec.callbacks import CONTINUE, Callback
from repro.hardware import HeterogeneousPlatform
from repro.shm import SEGMENT_PREFIX, live_segment_names
from repro.sgd import FactorModel
from repro.sim import SimulationEngine


@pytest.fixture(scope="module")
def one_worker_platform(scaled_preset):
    return HeterogeneousPlatform.from_preset(
        HardwareConfig(cpu_threads=1, gpu_count=0), scaled_preset
    )


def _dev_shm_segments():
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave the segment registry and /dev/shm clean."""
    before = _dev_shm_segments()
    yield
    assert live_segment_names() == ()
    assert _dev_shm_segments() == before


def _process_engine(train, test, training, n_workers=1, seed=0, **kwargs):
    if n_workers == 1:
        grid = uniform_partition(train, 3, 3)
        scheduler = GreedyBlockScheduler(grid, 1, 0, seed=seed)
    else:
        grid = nonuniform_partition(
            train, alpha=0.3, n_cpu_threads=n_workers - 1, n_gpus=1
        )
        scheduler = HSGDStarScheduler(
            grid, n_workers - 1, 1, dynamic_scheduling=True, seed=seed
        )
    return ProcessEngine(
        scheduler=scheduler, train=train, training=training, test=test, **kwargs
    )


def _sim_engine(train, test, training, platform, seed=0):
    grid = uniform_partition(train, 3, 3)
    scheduler = GreedyBlockScheduler(grid, 1, 0, seed=seed)
    return SimulationEngine(
        scheduler=scheduler, platform=platform, train=train,
        training=training, test=test,
    )


class TestSimParity:
    """One worker + fixed seed => processes and simulator are bitwise equal."""

    def test_bitwise_identical_factors_and_curves(
        self, small_split, one_worker_platform, small_training
    ):
        train, test = small_split
        sim = _sim_engine(train, test, small_training, one_worker_platform).run(
            iterations=3
        )
        proc = _process_engine(train, test, small_training).run(iterations=3)

        assert isinstance(proc, ProcessResult)
        assert isinstance(proc, EngineResult)
        np.testing.assert_array_equal(sim.model.p, proc.model.p)
        np.testing.assert_array_equal(sim.model.q, proc.model.q)
        assert [r.points_processed for r in sim.trace.iterations] == [
            r.points_processed for r in proc.trace.iterations
        ]
        assert [r.test_rmse for r in sim.trace.iterations] == [
            r.test_rmse for r in proc.trace.iterations
        ]
        assert [t.points for t in sim.trace.tasks] == [
            t.points for t in proc.trace.tasks
        ]

    def test_spawn_start_method_attaches_by_name(
        self, small_split, one_worker_platform, small_training
    ):
        """Nothing relies on fork inheritance: a spawned worker rebuilds
        every view from the pickled segment names."""
        train, test = small_split
        sim = _sim_engine(train, test, small_training, one_worker_platform).run(
            iterations=1
        )
        proc = _process_engine(
            train, test, small_training, start_method="spawn"
        ).run(iterations=1)
        np.testing.assert_array_equal(sim.model.p, proc.model.p)
        np.testing.assert_array_equal(sim.model.q, proc.model.q)

    def test_final_model_survives_segment_unlink(
        self, small_split, small_training
    ):
        """The result model is copied out of shared memory before unlink."""
        proc = _process_engine(train=small_split[0], test=small_split[1],
                               training=small_training).run(iterations=1)
        assert live_segment_names() == ()
        # The factors must be ordinary private memory, fully readable.
        assert np.isfinite(proc.model.p).all()
        assert np.isfinite(proc.model.q).all()


class TestResumeParity:
    """Checkpoint/resume stays bitwise across the process boundary."""

    def _engine(self, backend, train, test, training, platform):
        if backend == "simulate":
            return _sim_engine(train, test, training, platform)
        return _process_engine(train, test, training)

    def _checkpoint_at(self, backend, train, test, training, platform, epoch):
        engine = self._engine(backend, train, test, training, platform)
        session = engine.start(iterations=epoch, pause_on_epoch=True)
        while session.step() is not None:
            pass
        checkpoint = TrainCheckpoint.capture(session)
        session.finish()
        return checkpoint

    def _resume(self, backend, checkpoint, train, test, training, platform, total):
        engine = self._engine(backend, train, test, training, platform)
        session = engine.start(iterations=total)
        checkpoint.restore(session)
        while session.step() is not None:
            pass
        return session.finish()

    def test_resume_matches_uninterrupted_and_crosses_backends(
        self, small_split, one_worker_platform, small_training
    ):
        train, test = small_split
        args = (train, test, small_training, one_worker_platform)

        reference = self._engine("simulate", *args).run(iterations=6)

        proc_ckpt = self._checkpoint_at("processes", *args, epoch=3)
        assert proc_ckpt.meta["backend"] == "processes"
        sim_ckpt = self._checkpoint_at("simulate", *args, epoch=3)

        resumed_proc = self._resume("processes", proc_ckpt, *args, total=6)
        resumed_cross_to_sim = self._resume("simulate", proc_ckpt, *args, total=6)
        resumed_cross_to_proc = self._resume("processes", sim_ckpt, *args, total=6)

        for resumed in (resumed_proc, resumed_cross_to_sim, resumed_cross_to_proc):
            np.testing.assert_array_equal(reference.model.p, resumed.model.p)
            np.testing.assert_array_equal(reference.model.q, resumed.model.q)
        assert [r.test_rmse for r in reference.trace.iterations] == [
            r.test_rmse for r in resumed_proc.trace.iterations
        ]

    def test_checkpoint_copies_out_of_shared_memory(
        self, small_split, small_training
    ):
        """A checkpoint taken mid-run stays valid after the session's
        segments are unlinked (its arrays are copies, not views)."""
        train, test = small_split
        engine = _process_engine(train, test, small_training)
        session = engine.start(iterations=2, pause_on_epoch=True)
        session.step()
        checkpoint = TrainCheckpoint.capture(session)
        frozen = checkpoint.p.copy()
        while session.step() is not None:
            pass
        session.finish()
        assert live_segment_names() == ()
        np.testing.assert_array_equal(checkpoint.p, frozen)
        assert np.isfinite(checkpoint.p).all()


class TestConcurrentInvariants:
    def test_multi_worker_accounting_and_spread(self, small_split, small_training):
        train, test = small_split
        engine = _process_engine(train, test, small_training, n_workers=5)
        result = engine.run(iterations=3)
        total = train.nnz
        max_task = max(task.points for task in result.trace.tasks)
        for index, record in enumerate(result.trace.iterations):
            target = (index + 1) * total
            assert record.points_processed >= target
            assert record.points_processed < target + 5 * max_task + 1
        workers = {task.worker_index for task in result.trace.tasks}
        assert workers <= set(range(5))
        assert len(workers) >= 2
        curve = [record.test_rmse for record in result.trace.iterations]
        assert curve[-1] < curve[0]

    def test_wall_clock_budget_stops_the_run(self, small_split, small_training):
        train, test = small_split
        engine = _process_engine(train, test, small_training, n_workers=3)
        result = engine.run(iterations=10_000, max_simulated_time=0.2)
        assert result.trace.final_time < 5.0
        assert not result.converged
        assert result.stop_reason == "time_budget"


class _Boom(Callback):
    def on_epoch_end(self, report, session):
        raise RuntimeError("callback exploded")
        return CONTINUE  # pragma: no cover


class TestLifecycle:
    """Segments are attached, detached and unlinked exactly once."""

    def test_killed_worker_surfaces_and_cleans_up(
        self, small_split, small_training
    ):
        """With a zero restart budget a killed worker stays fatal (the
        pre-supervision fail-fast contract; recovery paths live in
        test_chaos.py)."""
        train, test = small_split
        training = small_training.with_max_worker_restarts(0)
        engine = _process_engine(train, test, training, n_workers=3)
        session = engine.start(iterations=10_000)
        assert session.step() is not None  # pool is live past one epoch
        victim = session._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        while session.step() is not None:
            pass
        with pytest.raises(ExecutionError, match="died|failed"):
            session.finish()
        # finish() already tore everything down despite the error.
        assert live_segment_names() == ()

    def test_raising_callback_cleans_up(self, small_split, small_training):
        train, test = small_split
        engine = _process_engine(train, test, small_training)
        with pytest.raises(RuntimeError, match="callback exploded"):
            engine.run(iterations=5, callbacks=[_Boom()])
        assert live_segment_names() == ()

    def test_finish_is_idempotent_and_unlinks_once(
        self, small_split, small_training
    ):
        train, test = small_split
        engine = _process_engine(train, test, small_training)
        session = engine.start(iterations=1)
        while session.step() is not None:
            pass
        first = session.finish()
        assert session.finish() is first
        assert live_segment_names() == ()

    def test_abandoned_session_cleans_up_on_finish(
        self, small_split, small_training
    ):
        train, test = small_split
        engine = _process_engine(train, test, small_training)
        session = engine.start(iterations=50)
        session.step()  # launch the pool, then abandon the run
        result = session.finish()
        assert result.stop_reason in ("aborted", "iterations")
        assert live_segment_names() == ()


class TestValidationAndPlumbing:
    def test_backend_is_registered_and_supported(self):
        assert process_backend_supported()
        assert TrainingConfig(backend="processes").backend == "processes"

    def test_auto_backend_resolution_rule(self):
        assert resolve_backend_name("auto", n_workers=4) == "processes"
        assert resolve_backend_name("auto", n_workers=1) == "threads"
        assert resolve_backend_name("auto", n_workers=None) == "threads"
        assert resolve_backend_name("simulate", n_workers=8) == "simulate"
        assert TrainingConfig(backend="auto").backend == "auto"

    def test_controller_drops_private_block_copies_after_sharing(
        self, small_split, small_training
    ):
        """to_shared() must not leave a second resident copy of every
        block's arrays cached in the controller's BlockStore."""
        train, test = small_split
        engine = _process_engine(train, test, small_training)
        engine.run(iterations=1)
        assert engine._store._blocks == {}
        assert engine._store._tasks == {}

    def test_fit_auto_resolves_to_processes_for_multi_worker(
        self, small_split, small_hardware, small_training, scaled_preset
    ):
        train, test = small_split
        trainer = HeterogeneousTrainer(
            algorithm="hsgd_star", hardware=small_hardware,
            training=small_training, preset=scaled_preset, seed=0,
        )
        result = trainer.fit(train, test, iterations=2, backend="auto")
        assert result.backend == "processes"
        assert len(result.trace.iterations) == 2

    def test_factorize_workers_override(self, small_split, small_training, scaled_preset):
        train, test = small_split
        result = factorize(
            train, test, algorithm="hsgd", training=small_training,
            preset=scaled_preset, iterations=2, backend="processes", workers=2,
        )
        assert result.backend == "processes"
        # 2 CPU workers + the default GPU: worker indices stay in range.
        assert {t.worker_index for t in result.trace.tasks} <= set(range(3))

    def test_single_use(self, small_split, small_training):
        train, test = small_split
        engine = _process_engine(train, test, small_training)
        engine.run(iterations=1)
        with pytest.raises(ExecutionError):
            engine.run(iterations=1)

    def test_target_rmse_requires_test_set(self, small_split, small_training):
        train, _ = small_split
        engine = _process_engine(train, None, small_training)
        with pytest.raises(ExecutionError):
            engine.run(target_rmse=0.5)

    def test_invalid_start_method_rejected(self, small_split, small_training):
        train, test = small_split
        with pytest.raises(ExecutionError, match="start_method"):
            _process_engine(train, test, small_training, start_method="teleport")

    def test_cli_processes_backend(self, capsys):
        from repro.cli import main

        code = main([
            "train", "--dataset", "movielens", "--algorithm", "hsgd_star",
            "--iterations", "2", "--workers", "2", "--backend", "processes",
            "--batch-size", "128",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend            : processes" in out
        assert "wall time" in out


class TestOverBuffers:
    def test_adopts_without_copy(self):
        p = np.zeros((4, 2))
        q = np.zeros((3, 2)).T
        model = FactorModel.over_buffers(p, q)
        assert model.p is p and model.q is q

    def test_rejects_wrong_dtype(self):
        with pytest.raises(InvalidMatrixError, match="float64"):
            FactorModel.over_buffers(
                np.zeros((4, 2), dtype=np.float32), np.zeros((2, 3))
            )
        with pytest.raises(InvalidMatrixError, match="float64"):
            FactorModel.over_buffers([[1.0]], np.zeros((1, 3)))


class TestBatchSizePlumbing:
    """The kernel mini-batch size is configurable end to end."""

    def test_config_validation(self):
        assert TrainingConfig().batch_size is None
        assert TrainingConfig().effective_batch_size == DEFAULT_BATCH_SIZE
        assert TrainingConfig(batch_size=64).effective_batch_size == 64
        assert TrainingConfig().with_batch_size(32).batch_size == 32
        with pytest.raises(ConfigurationError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            TrainingConfig(batch_size=-5)

    def _fit(self, split, training, scaled_preset, **kwargs):
        train, test = split
        return factorize(
            train, test, algorithm="hsgd", training=training,
            hardware=HardwareConfig(cpu_threads=2, gpu_count=0),
            preset=scaled_preset, iterations=2, **kwargs,
        )

    def test_batch_size_changes_minibatch_trajectory(
        self, small_split, small_training, scaled_preset
    ):
        base = self._fit(small_split, small_training, scaled_preset)
        small = self._fit(
            small_split, small_training, scaled_preset, batch_size=32
        )
        config_small = self._fit(
            small_split, small_training.with_batch_size(32), scaled_preset
        )
        # Different batch boundaries => genuinely different mini-batch
        # relaxation; identical settings => bitwise-identical runs.
        assert not np.array_equal(base.model.p, small.model.p)
        np.testing.assert_array_equal(small.model.p, config_small.model.p)
        np.testing.assert_array_equal(small.model.q, config_small.model.q)

    def test_sequential_kernel_ignores_batch_size(
        self, small_split, small_training, scaled_preset
    ):
        a = self._fit(
            small_split, small_training, scaled_preset,
            kernel="sequential", batch_size=7,
        )
        b = self._fit(
            small_split, small_training, scaled_preset,
            kernel="sequential", batch_size=999,
        )
        np.testing.assert_array_equal(a.model.p, b.model.p)
        np.testing.assert_array_equal(a.model.q, b.model.q)

    def test_batch_size_crosses_the_process_boundary(
        self, small_split, one_worker_platform, small_training
    ):
        """A non-default batch size must reach the worker processes: the
        1-worker process run stays bitwise-equal to the simulator at the
        same batch size (and differs from the default-batch run)."""
        train, test = small_split
        training = small_training.with_batch_size(64)
        sim = _sim_engine(train, test, training, one_worker_platform).run(
            iterations=2
        )
        proc = _process_engine(train, test, training).run(iterations=2)
        default = _process_engine(train, test, small_training).run(iterations=2)
        np.testing.assert_array_equal(sim.model.p, proc.model.p)
        np.testing.assert_array_equal(sim.model.q, proc.model.q)
        assert not np.array_equal(proc.model.p, default.model.p)
