"""Tests of the stepwise session protocol, callbacks, checkpoints and
the backend registry.

The central pin is the resume guarantee: ``run(10 epochs)`` is
**bitwise-identical** to ``run(5) -> TrainCheckpoint.save ->
TrainCheckpoint.load -> run(5 more)`` on the simulate backend —
``assert_array_equal`` on ``P`` and ``Q``, identical trace tail — and a
hypothesis property extends this to arbitrary step/checkpoint/load
interleavings.  The registry pin is the other acceptance criterion:
``register_backend("dummy", ...)`` must round-trip through
``TrainingConfig`` validation, ``fit(backend="dummy")`` and the CLI
choices without any edit to ``core/`` or ``config.py`` internals.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import HardwareConfig, TrainingConfig
from repro.core import GreedyBlockScheduler, HeterogeneousTrainer, TrainResult, factorize
from repro.core.partition import uniform_partition
from repro.exceptions import CheckpointError, ConfigurationError
from repro.exec import (
    CONTINUE,
    STOP,
    Callback,
    CallbackList,
    Checkpoint,
    EarlyStopping,
    Engine,
    EngineResult,
    EngineSession,
    EpochReport,
    JsonlLogger,
    ProcessEngine,
    ThreadedEngine,
    TimeBudget,
    TrainCheckpoint,
    backend_names,
    get_backend,
    is_registered,
    register_backend,
    run_session,
    unregister_backend,
)
from repro.hardware import HeterogeneousPlatform
from repro.sim import SimulationEngine
from repro.sgd.schedules import InverseTimeDecaySchedule


# --------------------------------------------------------------------- #
# Engine-level helpers
# --------------------------------------------------------------------- #
def _sim_engine(train, test, training, scaled_preset, n_workers=2):
    grid = uniform_partition(train, n_workers + 1, n_workers + 1)
    scheduler = GreedyBlockScheduler(grid, n_workers, 0, seed=0)
    platform = HeterogeneousPlatform.from_preset(
        HardwareConfig(cpu_threads=n_workers, gpu_count=0), scaled_preset
    )
    return SimulationEngine(
        scheduler=scheduler, platform=platform, train=train,
        training=training, test=test,
    )


def _threaded_engine(train, test, training, n_workers=1, engine_class=ThreadedEngine):
    grid = uniform_partition(train, n_workers + 2, n_workers + 2)
    scheduler = GreedyBlockScheduler(grid, n_workers, 0, seed=0)
    return engine_class(
        scheduler=scheduler, train=train, training=training, test=test,
    )


ALL_BACKENDS = ["simulate", "threads", "processes"]


def _one_worker_engine(backend, train, test, training, scaled_preset):
    """A 1-worker engine of any built-in backend (protocol edge cases)."""
    if backend == "simulate":
        return _sim_engine(train, test, training, scaled_preset, n_workers=1)
    engine_class = ThreadedEngine if backend == "threads" else ProcessEngine
    return _threaded_engine(train, test, training, engine_class=engine_class)


class TestStepwiseProtocol:
    def test_step_reports_every_epoch(self, small_split, small_training, scaled_preset):
        train, test = small_split
        engine = _sim_engine(train, test, small_training, scaled_preset)
        session = engine.start(iterations=4)
        reports = []
        while (report := session.step()) is not None:
            reports.append(report)
        result = session.finish()
        assert [r.epoch for r in reports] == [0, 1, 2, 3]
        assert all(isinstance(r, EpochReport) for r in reports)
        assert all(r.test_rmse is not None for r in reports)
        assert reports[-1].points_processed >= 4 * train.nnz
        assert [r.engine_time for r in reports] == sorted(r.engine_time for r in reports)
        assert session.done
        assert len(result.trace.iterations) == 4
        assert result.stop_reason == "iterations"

    def test_step_matches_run_bitwise(self, small_split, small_training, scaled_preset):
        """Driving step() by hand equals the one-shot run() exactly."""
        train, test = small_split
        ran = _sim_engine(train, test, small_training, scaled_preset).run(iterations=3)
        session = _sim_engine(train, test, small_training, scaled_preset).start(iterations=3)
        while session.step() is not None:
            pass
        stepped = session.finish()
        np.testing.assert_array_equal(ran.model.p, stepped.model.p)
        np.testing.assert_array_equal(ran.model.q, stepped.model.q)
        assert [t.end_time for t in ran.trace.tasks] == [
            t.end_time for t in stepped.trace.tasks
        ]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_zero_iterations_never_asks_the_scheduler(
        self, backend, small_split, small_training, scaled_preset, monkeypatch
    ):
        """A run capped at zero epochs ends on its cap without priming:
        no quota reset, no task drawn, no tie-break randomness consumed."""
        train, test = small_split
        engine = _one_worker_engine(backend, train, test, small_training, scaled_preset)
        calls = []
        for name in ("start_iteration", "next_task"):
            monkeypatch.setattr(
                engine.scheduler, name, lambda *args, _name=name: calls.append(_name)
            )
        session = engine.start(iterations=0)
        assert session.step() is None
        result = session.finish()
        assert result.stop_reason == "iterations"
        assert calls == [] and result.trace.tasks == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_session_stop_ends_the_run(self, backend, small_split, small_training, scaled_preset):
        train, test = small_split
        engine = _one_worker_engine(backend, train, test, small_training, scaled_preset)
        # Paused, so the real backends hold still at the boundary too.
        session = engine.start(iterations=10, pause_on_epoch=True)
        assert session.step() is not None
        session.stop(reason="because")
        assert session.step() is None
        result = session.finish()
        assert len(result.trace.iterations) == 1
        assert result.stop_reason == "because"

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_finish_is_idempotent(self, backend, small_split, small_training, scaled_preset):
        train, test = small_split
        engine = _one_worker_engine(backend, train, test, small_training, scaled_preset)
        session = engine.start(iterations=1)
        while session.step() is not None:
            pass
        assert session.finish() is session.finish()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_finish_before_any_stop_reports_aborted(
        self, backend, small_split, small_training, scaled_preset
    ):
        train, test = small_split
        engine = _one_worker_engine(backend, train, test, small_training, scaled_preset)
        session = engine.start(iterations=10, pause_on_epoch=True)
        assert session.step() is not None
        result = session.finish()
        assert result.stop_reason == "aborted"
        assert not result.converged
        assert session.done and session.step() is None

    def test_threaded_session_reports(self, small_split, small_training):
        train, test = small_split
        engine = _threaded_engine(train, test, small_training, n_workers=2)
        session = engine.start(iterations=3)
        reports = []
        while (report := session.step()) is not None:
            reports.append(report)
        result = session.finish()
        assert [r.epoch for r in reports] == [0, 1, 2]
        assert result.stop_reason == "iterations"
        assert len(result.trace.iterations) == 3

    def test_threaded_pause_on_epoch_quiesces(self, small_split, small_training):
        train, test = small_split
        engine = _threaded_engine(train, test, small_training, n_workers=2)
        session = engine.start(iterations=3, pause_on_epoch=True)
        report = session.step()
        assert report is not None and report.epoch == 0
        # Quiescent pause: the state dict is capturable mid-run.
        state = session.state_dict()
        assert state["in_flight"] == []
        assert state["iteration"] == 1
        while session.step() is not None:
            pass
        assert len(session.finish().trace.iterations) == 3

    def test_threaded_pause_holds_while_the_boundary_report_is_pending(
        self, small_split, small_training, monkeypatch
    ):
        """The first step() must not lift a pause that a worker set at a
        boundary whose report is still being evaluated: the pool reaches
        boundary 0 between thread launch and the controller taking the
        lock, and the RMSE evaluation is still running when it does."""
        import time

        from repro.exec.threaded import ThreadedSession

        launch, evaluate = ThreadedSession._launch, ThreadedSession.evaluate

        def slow_launch(session):
            launch(session)
            time.sleep(0.2)  # boundary 0 opens meanwhile

        def slow_evaluate(session):
            time.sleep(0.4)  # ...and is still open when the controller looks
            return evaluate(session)

        monkeypatch.setattr(ThreadedSession, "_launch", slow_launch)
        monkeypatch.setattr(ThreadedSession, "evaluate", slow_evaluate)
        train, test = small_split
        session = _threaded_engine(train, test, small_training, n_workers=2).start(
            iterations=2, pause_on_epoch=True
        )
        assert session.step().epoch == 0
        state = session.state_dict()
        assert state["in_flight"] == [] and state["iteration"] == 1
        while session.step() is not None:
            pass
        assert len(session.finish().trace.iterations) == 2

    def test_epoch_report_from_both_engines_match_fields(
        self, small_split, small_training, scaled_preset
    ):
        train, test = small_split
        sim = _sim_engine(train, test, small_training, scaled_preset, n_workers=1)
        thr = _threaded_engine(train, test, small_training, n_workers=1)
        sim_session = sim.start(iterations=2)
        thr_session = thr.start(iterations=2)
        sim_reports = []
        thr_reports = []
        while (r := sim_session.step()) is not None:
            sim_reports.append(r)
        while (r := thr_session.step()) is not None:
            thr_reports.append(r)
        sim_session.finish()
        thr_session.finish()
        assert [r.epoch for r in sim_reports] == [r.epoch for r in thr_reports]
        assert [r.points_processed for r in sim_reports] == [
            r.points_processed for r in thr_reports
        ]


class TestBitwiseResumeParity:
    """The pinned acceptance criterion: checkpoint-at-5-then-resume is
    bitwise-identical to an uninterrupted 10-epoch run on simulate."""

    def _trainer(self, training):
        return HeterogeneousTrainer(
            algorithm="hsgd_star",
            hardware=HardwareConfig(cpu_threads=4, gpu_count=1),
            training=training,
            seed=0,
        )

    def test_checkpoint_resume_bitwise_identical(
        self, small_split, small_training, tmp_path
    ):
        train, test = small_split
        training = small_training.with_iterations(10)

        full = self._trainer(training).fit(train, test, iterations=10)

        callback = Checkpoint(tmp_path / "ckpt", every_n=5)
        half = self._trainer(training).fit(
            train, test, iterations=5, callbacks=[callback]
        )
        assert len(half.trace.iterations) == 5
        assert callback.saved_paths, "checkpoint was never written"
        resumed = self._trainer(training).fit(
            train, test, iterations=10, resume_from=callback.saved_paths[-1]
        )

        np.testing.assert_array_equal(full.model.p, resumed.model.p)
        np.testing.assert_array_equal(full.model.q, resumed.model.q)
        # Identical trace: same epochs, same RMSE trajectory, and the
        # resumed tail replays the exact task schedule.
        assert len(resumed.trace.iterations) == 10
        assert [r.test_rmse for r in full.trace.iterations] == [
            r.test_rmse for r in resumed.trace.iterations
        ]
        assert [r.simulated_time for r in full.trace.iterations] == [
            r.simulated_time for r in resumed.trace.iterations
        ]
        assert [
            (t.worker_index, t.points, t.end_time) for t in full.trace.tasks
        ] == [(t.worker_index, t.points, t.end_time) for t in resumed.trace.tasks]

    def test_engine_level_save_load_roundtrip(
        self, small_split, small_training, scaled_preset, tmp_path
    ):
        """The raw engine API: start -> step x5 -> capture/save/load ->
        restore into a fresh session -> 5 more epochs == run(10)."""
        train, test = small_split
        full = _sim_engine(train, test, small_training, scaled_preset).run(iterations=10)

        first = _sim_engine(train, test, small_training, scaled_preset).start(iterations=5)
        while first.step() is not None:
            pass
        path = TrainCheckpoint.capture(first).save(tmp_path / "engine-ckpt")
        first.finish()

        second = _sim_engine(train, test, small_training, scaled_preset).start(iterations=10)
        TrainCheckpoint.load(path).restore(second)
        while second.step() is not None:
            pass
        resumed = second.finish()

        np.testing.assert_array_equal(full.model.p, resumed.model.p)
        np.testing.assert_array_equal(full.model.q, resumed.model.q)
        assert [t.end_time for t in full.trace.tasks] == [
            t.end_time for t in resumed.trace.tasks
        ]

    def test_resume_preserves_decaying_schedule(
        self, small_split, small_training, scaled_preset, tmp_path
    ):
        """The epoch index prices the learning rate, so a resumed run
        must continue the decay where it left off, not restart it."""
        train, test = small_split
        schedule = InverseTimeDecaySchedule(0.01, decay=0.5)

        def engine():
            built = _sim_engine(train, test, small_training, scaled_preset)
            built.schedule = schedule
            return built

        full = engine().run(iterations=6)
        first = engine().start(iterations=3)
        while first.step() is not None:
            pass
        path = TrainCheckpoint.capture(first).save(tmp_path / "decay")
        second = engine().start(iterations=6)
        TrainCheckpoint.load(path).restore(second)
        while second.step() is not None:
            pass
        resumed = second.finish()
        np.testing.assert_array_equal(full.model.p, resumed.model.p)
        np.testing.assert_array_equal(full.model.q, resumed.model.q)


class TestResumeAtCap:
    """A checkpoint taken at (or past) the epoch cap resumes to an
    immediate, clean end — not an extra epoch beyond the cap."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_resume_at_cap_runs_no_extra_epoch(
        self, backend, small_split, small_training, scaled_preset, tmp_path
    ):
        train, test = small_split

        def engine():
            return _one_worker_engine(backend, train, test, small_training, scaled_preset)

        session = engine().start(iterations=3, pause_on_epoch=True)
        while session.step() is not None:
            pass
        checkpoint = TrainCheckpoint.capture(session)
        session.finish()
        p_before = checkpoint.p.copy()

        resumed_session = engine().start(iterations=3)
        checkpoint.restore(resumed_session)
        assert resumed_session.step() is None
        result = resumed_session.finish()
        assert len(result.trace.iterations) == 3
        assert result.stop_reason == "iterations"
        np.testing.assert_array_equal(result.model.p, p_before)

    @pytest.mark.parametrize(
        "backend, reason",
        [("simulate", "iterations"), ("threads", "aborted"), ("processes", "aborted")],
    )
    def test_finish_at_cap_without_a_step(
        self, backend, reason, small_split, small_training, scaled_preset
    ):
        """finish() with no step() on a session restored at its cap: the
        simulator names the cap, the real backends call it abandoned
        (each backend's rule since the session protocol was introduced)."""
        train, test = small_split

        def engine():
            return _one_worker_engine(backend, train, test, small_training, scaled_preset)

        session = engine().start(iterations=2, pause_on_epoch=True)
        while session.step() is not None:
            pass
        checkpoint = TrainCheckpoint.capture(session)
        session.finish()

        resumed_session = engine().start(iterations=2)
        checkpoint.restore(resumed_session)
        result = resumed_session.finish()
        assert result.stop_reason == reason
        assert len(result.trace.iterations) == 2
        np.testing.assert_array_equal(result.model.p, checkpoint.p)


class TestCallbackFailureTeardown:
    def test_raising_callback_stops_threaded_workers(self, small_split, small_training):
        """A callback exception must tear the run down: fit() raises and
        no worker thread keeps mutating the model afterwards."""
        train, test = small_split
        sessions = []

        class Grab(Callback):
            def on_train_begin(self, session):
                sessions.append(session)

            def on_epoch_end(self, report, session):
                raise RuntimeError("boom")

        engine = _threaded_engine(train, test, small_training, n_workers=2)
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(iterations=50, callbacks=[Grab()])
        (session,) = sessions
        assert session.done
        assert all(not t.is_alive() for t in session._threads)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_done_reflects_stop_before_launch(
        self, backend, small_split, small_training, scaled_preset
    ):
        train, test = small_split
        engine = _one_worker_engine(backend, train, test, small_training, scaled_preset)
        session = engine.start(iterations=3)
        assert not session.done
        session.stop()
        assert session.done
        assert session.step() is None
        assert not session.started


class TestCheckpointValidation:
    def test_restore_rejects_mismatched_run(
        self, small_split, tiny_matrix, small_training, scaled_preset, tmp_path
    ):
        train, test = small_split
        session = _sim_engine(train, test, small_training, scaled_preset).start(iterations=2)
        while session.step() is not None:
            pass
        checkpoint = TrainCheckpoint.capture(session)

        other = _sim_engine(
            tiny_matrix, None, small_training, scaled_preset, n_workers=1
        ).start(iterations=2)
        with pytest.raises(CheckpointError, match="does not match"):
            checkpoint.restore(other)

    def test_restore_rejects_started_session(
        self, small_split, small_training, scaled_preset
    ):
        train, test = small_split
        session = _sim_engine(train, test, small_training, scaled_preset).start(iterations=3)
        while session.step() is not None:
            pass
        checkpoint = TrainCheckpoint.capture(session)
        running = _sim_engine(train, test, small_training, scaled_preset).start(iterations=3)
        running.step()
        with pytest.raises(CheckpointError, match="has not stepped"):
            checkpoint.restore(running)

    def test_threads_rejects_in_flight_simulator_checkpoint(
        self, small_split, small_training, scaled_preset
    ):
        """A multi-worker simulator checkpoint carries in-flight tasks
        with simulated completion times; the threaded backend cannot
        replay those and must say so."""
        train, test = small_split
        session = _sim_engine(
            train, test, small_training, scaled_preset, n_workers=2
        ).start(iterations=2)
        while session.step() is not None:
            pass
        checkpoint = TrainCheckpoint.capture(session)
        assert checkpoint.session_state["in_flight"], "expected in-flight tasks"
        # Same grid/worker fingerprint as the simulator run, so the
        # in-flight portability check is what fires.
        grid = uniform_partition(train, 3, 3)
        target = ThreadedEngine(
            scheduler=GreedyBlockScheduler(grid, 2, 0, seed=0),
            train=train, training=small_training, test=test,
        ).start(iterations=4)
        with pytest.raises(CheckpointError, match="in-flight"):
            checkpoint.restore(target)

    def test_load_rejects_garbage_file(self, tmp_path):
        path = tmp_path / "bogus.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            TrainCheckpoint.load(path)

    def test_load_rejects_truncated_zip(
        self, small_split, small_training, scaled_preset, tmp_path
    ):
        """A checkpoint truncated mid-write (disk full, killed process)
        is a broken zip and must still surface as CheckpointError."""
        train, test = small_split
        session = _sim_engine(train, test, small_training, scaled_preset).start(iterations=1)
        while session.step() is not None:
            pass
        saved = TrainCheckpoint.capture(session).save(tmp_path / "trunc")
        blob = open(saved, "rb").read()
        with open(saved, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="cannot read"):
            TrainCheckpoint.load(saved)

    def test_restore_rejects_different_grid_shape(
        self, small_split, small_training, scaled_preset
    ):
        """Same ratings, same workers, different block partition: the
        fingerprint must refuse before anything is mutated."""
        train, test = small_split
        session = _sim_engine(train, test, small_training, scaled_preset).start(iterations=1)
        while session.step() is not None:
            pass
        checkpoint = TrainCheckpoint.capture(session)

        grid = uniform_partition(train, 4, 4)  # checkpointed run used 3x3
        platform = HeterogeneousPlatform.from_preset(
            HardwareConfig(cpu_threads=2, gpu_count=0), scaled_preset
        )
        other = SimulationEngine(
            scheduler=GreedyBlockScheduler(grid, 2, 0, seed=0),
            platform=platform, train=train, training=small_training, test=test,
        ).start(iterations=2)
        with pytest.raises(CheckpointError, match="does not match"):
            checkpoint.restore(other)
        assert not other.started  # nothing was mutated; session still fresh

    def test_save_appends_npz_suffix(
        self, small_split, small_training, scaled_preset, tmp_path
    ):
        train, test = small_split
        session = _sim_engine(train, test, small_training, scaled_preset).start(iterations=1)
        while session.step() is not None:
            pass
        saved = TrainCheckpoint.capture(session).save(tmp_path / "plain")
        assert saved.endswith(".npz") and os.path.exists(saved)
        assert TrainCheckpoint.load(tmp_path / "plain").epoch == 1


class TestCallbacks:
    def test_early_stopping_stops_and_reports_reason(
        self, small_split, small_training, scaled_preset
    ):
        train, test = small_split
        # A min_delta no real epoch can beat forces patience to run out.
        callback = EarlyStopping(patience=2, min_delta=10.0)
        engine = _sim_engine(train, test, small_training, scaled_preset)
        result = engine.run(iterations=50, callbacks=[callback])
        assert result.stop_reason == "early_stopping"
        assert len(result.trace.iterations) == 3  # 1 best + 2 stale
        assert callback.stopped_at == 2

    def test_early_stopping_requires_monitored_metric(
        self, small_split, small_training, scaled_preset
    ):
        train, _ = small_split
        engine = _sim_engine(train, None, small_training, scaled_preset)
        with pytest.raises(ConfigurationError, match="monitors"):
            engine.run(iterations=2, callbacks=[EarlyStopping(patience=1)])

    def test_jsonl_logger_writes_trajectory(
        self, small_split, small_training, scaled_preset, tmp_path
    ):
        train, test = small_split
        path = tmp_path / "log.jsonl"
        engine = _sim_engine(train, test, small_training, scaled_preset)
        result = engine.run(iterations=3, callbacks=[JsonlLogger(path)])
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        epochs = [line for line in lines if line["event"] == "epoch"]
        assert [line["epoch"] for line in epochs] == [0, 1, 2]
        assert epochs[0]["test_rmse"] == result.trace.iterations[0].test_rmse
        assert lines[-1]["event"] == "end"
        assert lines[-1]["stop_reason"] == "iterations"

    def test_time_budget_stops_run(self, small_split, small_training, scaled_preset):
        train, test = small_split
        engine = _sim_engine(train, test, small_training, scaled_preset)
        # A budget that expires immediately: exactly one epoch completes.
        result = engine.run(iterations=50, callbacks=[TimeBudget(1e-9)])
        assert len(result.trace.iterations) == 1
        assert result.stop_reason == "wall_time_budget"

    def test_custom_callback_decision_stops(self, small_split, small_training, scaled_preset):
        train, test = small_split

        class StopAfterTwo(Callback):
            def on_epoch_end(self, report, session):
                return STOP if report.epoch >= 1 else CONTINUE

        engine = _sim_engine(train, test, small_training, scaled_preset)
        result = engine.run(iterations=50, callbacks=[StopAfterTwo()])
        assert len(result.trace.iterations) == 2
        assert result.stop_reason == "callback"

    def test_callback_list_requires_pause_aggregates(self):
        assert not CallbackList([EarlyStopping()]).requires_pause
        assert CallbackList([EarlyStopping(), Checkpoint("x")]).requires_pause

    def test_periodic_checkpoint_pauses_only_capture_epochs(self):
        """Checkpoint(every_n=N) must not quiesce the threaded pool at
        the N-1 boundaries it will ignore."""
        callbacks = CallbackList([EarlyStopping(), Checkpoint("x", every_n=3)])
        assert [callbacks.pause_at(epoch) for epoch in range(6)] == [
            False, False, True, False, False, True,
        ]
        assert all(CallbackList([Checkpoint("x")]).pause_at(e) for e in range(4))

    def test_periodic_checkpoint_on_threads_resumes(
        self, small_split, small_training, tmp_path
    ):
        train, test = small_split
        callback = Checkpoint(tmp_path / "every2", every_n=2)
        engine = _threaded_engine(train, test, small_training, n_workers=2)
        engine.run(iterations=4, callbacks=[callback])
        assert len(callback.saved_paths) == 2
        checkpoint = TrainCheckpoint.load(callback.saved_paths[-1])
        assert checkpoint.epoch == 4

    def test_callbacks_on_threads_backend(self, small_split, small_training, tmp_path):
        """Checkpoint + early stopping compose on the threaded backend."""
        train, test = small_split
        callback = Checkpoint(tmp_path / "thr", every_n=1)
        engine = _threaded_engine(train, test, small_training)
        result = engine.run(iterations=2, callbacks=[callback])
        assert len(result.trace.iterations) == 2
        assert len(callback.saved_paths) == 2
        checkpoint = TrainCheckpoint.load(callback.saved_paths[-1])
        assert checkpoint.meta["backend"] == "threads"
        assert checkpoint.epoch == 2


class TestBackendRegistry:
    """Acceptance pin: a registered backend round-trips through config
    validation, fit() and the CLI without touching core/ internals."""

    @pytest.fixture()
    def dummy_backend(self):
        calls = []

        def factory(**kwargs):
            calls.append(kwargs)
            from repro.exec.registry import _simulate_factory

            return _simulate_factory(**kwargs)

        register_backend("dummy", factory)
        yield calls
        unregister_backend("dummy")

    def test_builtins_registered(self):
        assert backend_names()[:2] == ("simulate", "threads")
        assert is_registered("simulate") and is_registered("threads")
        assert callable(get_backend("threads"))

    def test_get_unknown_backend_lists_names(self):
        with pytest.raises(ConfigurationError, match="simulate"):
            get_backend("warp-drive")

    def test_register_rejects_duplicates_and_bad_factories(self):
        with pytest.raises(ConfigurationError):
            register_backend("simulate", lambda **kw: None)
        with pytest.raises(ConfigurationError):
            register_backend("broken", "not-callable")
        with pytest.raises(ConfigurationError):
            unregister_backend("never-registered")

    def test_replace_allows_override(self):
        original = get_backend("simulate")
        register_backend("simulate", original, replace=True)
        assert get_backend("simulate") is original

    def test_training_config_accepts_registered_backend(self, dummy_backend):
        config = TrainingConfig(backend="dummy")
        assert config.backend == "dummy"
        with pytest.raises(ConfigurationError):
            TrainingConfig(backend="not-registered")

    def test_fit_routes_through_registered_factory(
        self, dummy_backend, small_split, small_hardware, small_training, scaled_preset
    ):
        train, test = small_split
        trainer = HeterogeneousTrainer(
            algorithm="hsgd_star", hardware=small_hardware,
            training=small_training, preset=scaled_preset, seed=0,
        )
        result = trainer.fit(train, test, iterations=2, backend="dummy")
        assert result.backend == "dummy"
        assert len(result.trace.iterations) == 2
        assert len(dummy_backend) == 1
        assert dummy_backend[0]["train"] is train

    def test_factorize_accepts_registered_backend(
        self, dummy_backend, small_split, small_hardware, small_training, scaled_preset
    ):
        train, test = small_split
        result = factorize(
            train, test, algorithm="hsgd", hardware=small_hardware,
            training=small_training, preset=scaled_preset, iterations=1,
            backend="dummy",
        )
        assert result.backend == "dummy"

    def test_cli_offers_registered_backend(self, dummy_backend, capsys):
        from repro.cli import main

        code = main([
            "train", "--dataset", "movielens", "--iterations", "1",
            "--cpu-threads", "4", "--backend", "dummy",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend            : dummy" in out


class TestResultDedup:
    def test_train_result_is_engine_result(self, small_split, small_hardware, small_training, scaled_preset):
        train, test = small_split
        trainer = HeterogeneousTrainer(
            algorithm="hsgd_star", hardware=small_hardware,
            training=small_training, preset=scaled_preset, seed=0,
        )
        result = trainer.fit(train, test, iterations=2)
        assert isinstance(result, TrainResult)
        assert isinstance(result, EngineResult)
        assert result.engine_time == result.trace.final_time
        assert result.time_to_rmse(10.0) is not None
        assert result.stop_reason == "iterations"

    def test_engine_result_exposes_engine_time(self, small_split, small_training, scaled_preset):
        train, test = small_split
        outcome = _sim_engine(train, test, small_training, scaled_preset).run(iterations=1)
        assert outcome.engine_time == outcome.trace.final_time
        assert outcome.time_to_rmse(0.0) is None


class TestFactorizeParity:
    """factorize() exposes the fit() options it silently lacked."""

    def test_max_time_and_train_rmse_and_schedule(self, small_split, small_hardware, small_training, scaled_preset):
        train, test = small_split
        result = factorize(
            train, test, algorithm="hsgd_star", hardware=small_hardware,
            training=small_training, preset=scaled_preset,
            max_simulated_time=1e-9,
            compute_train_rmse=True,
            schedule=InverseTimeDecaySchedule(0.01, decay=0.1),
        )
        assert result.stop_reason == "time_budget"

    def test_compute_train_rmse_flows_through(self, small_split, small_hardware, small_training, scaled_preset):
        train, test = small_split
        result = factorize(
            train, test, algorithm="hsgd", hardware=small_hardware,
            training=small_training, preset=scaled_preset, iterations=2,
            compute_train_rmse=True,
        )
        assert all(r.train_rmse is not None for r in result.trace.iterations)

    def test_factorize_callbacks_and_resume(self, small_split, small_hardware, small_training, scaled_preset, tmp_path):
        train, test = small_split
        kwargs = dict(
            algorithm="hsgd_star", hardware=small_hardware,
            training=small_training, preset=scaled_preset,
        )
        full = factorize(train, test, iterations=6, **kwargs)
        callback = Checkpoint(tmp_path / "fz", every_n=3)
        factorize(train, test, iterations=3, callbacks=[callback], **kwargs)
        resumed = factorize(
            train, test, iterations=6, resume_from=callback.saved_paths[-1], **kwargs
        )
        np.testing.assert_array_equal(full.model.p, resumed.model.p)
        np.testing.assert_array_equal(full.model.q, resumed.model.q)


class TestInterleavingProperty:
    """Hypothesis pin: any interleaving of step()/checkpoint/load yields
    the same factors as a straight run() on the simulator."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(plan=st.lists(st.booleans(), min_size=5, max_size=5))
    def test_any_checkpoint_interleaving_matches_straight_run(
        self, plan, small_split, small_training, scaled_preset
    ):
        train, test = small_split
        epochs = len(plan) + 1
        reference = _sim_engine(train, test, small_training, scaled_preset).run(
            iterations=epochs
        )

        session = _sim_engine(train, test, small_training, scaled_preset).start(
            iterations=epochs
        )
        completed = 0
        while True:
            report = session.step()
            if report is None:
                break
            completed = report.epoch + 1
            # At boundaries selected by the plan, checkpoint in memory,
            # throw the live session away, and continue from a freshly
            # restored one (save/load of the serialized form is covered
            # by TestBitwiseResumeParity).
            if completed <= len(plan) and plan[completed - 1]:
                checkpoint = TrainCheckpoint.capture(session)
                session = _sim_engine(
                    train, test, small_training, scaled_preset
                ).start(iterations=epochs)
                checkpoint.restore(session)
        result = session.finish()

        assert completed == epochs
        np.testing.assert_array_equal(reference.model.p, result.model.p)
        np.testing.assert_array_equal(reference.model.q, result.model.q)
        assert [t.end_time for t in reference.trace.tasks] == [
            t.end_time for t in result.trace.tasks
        ]


class TestEngineProtocolSurface:
    def test_engines_expose_backend_names(self):
        assert SimulationEngine.backend_name == "simulate"
        assert ThreadedEngine.backend_name == "threads"

    def test_sessions_are_engine_sessions(self, small_split, small_training, scaled_preset):
        train, test = small_split
        session = _sim_engine(train, test, small_training, scaled_preset).start(iterations=1)
        assert isinstance(session, EngineSession)
        assert session.backend_name == "simulate"
        assert not session.started
        assert session.epoch == 0
        session.step()
        assert session.started
        session.finish()

    def test_run_session_helper(self, small_split, small_training, scaled_preset):
        train, test = small_split
        session = _sim_engine(train, test, small_training, scaled_preset).start(iterations=2)
        result = run_session(session, None)
        assert len(result.trace.iterations) == 2

    def test_engine_start_is_concrete(self):
        """start() is built once over ``session_class``: no backend forwards it."""
        assert not getattr(Engine, "__abstractmethods__", None)
        for engine_class in (SimulationEngine, ThreadedEngine, ProcessEngine):
            assert engine_class.start is Engine.start

    def test_simulation_engine_is_single_use(self, small_split, small_training, scaled_preset):
        """Like the threaded engine: a second run would silently continue
        on the mutated model and scheduler state."""
        from repro.exceptions import SimulationError

        train, test = small_split
        engine = _sim_engine(train, test, small_training, scaled_preset)
        engine.run(iterations=1)
        with pytest.raises(SimulationError, match="once"):
            engine.run(iterations=1)
