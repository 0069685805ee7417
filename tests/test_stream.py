"""Tests of the streaming tier (repro.stream) and its warm-start path.

Covers the four layers the streaming PR added, end to end:

* drift policy and monitor (``repro.stream.drift``);
* the BlockStore cache invalidation after matrix mutation (the
  regression a stale cache would turn into silent training on
  pre-append data);
* the fold-in API on :class:`~repro.sgd.FactorModel`;
* ``fit(resume_from=...)`` over grown matrices, pinned bitwise against
  plain resume on the ungrown path (simulate **and** threads backends)
  and by an accuracy bound on the grown path;
* the :class:`~repro.stream.IngestSession` loop — the CI end-to-end
  scenario: ingest → fold-in → drift-triggered warm-start retrain →
  publish, with the retrained model strictly beating the stale one on
  the held-out window;
* reader processes scoring concurrently while the session publishes
  (no torn reads, no leaked segments).
"""

import multiprocessing
import queue as queue_module

import numpy as np
import pytest

from repro import HeterogeneousTrainer
from repro.config import HardwareConfig, TrainingConfig
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ExecutionError,
)
from repro.serve import ModelStore, attach_model
from repro.shm import live_segment_names
from repro.sgd import FactorModel, rmse
from repro.sparse import BlockStore, SparseRatingMatrix, balanced_boundaries
from repro.stream import (
    CaptureCheckpoint,
    DriftMonitor,
    DriftPolicy,
    IngestSession,
    window_rmse,
)


def _trainer(iterations=6, k=4, seed=0, one_worker=False):
    # Multi-worker threaded runs are intentionally nondeterministic
    # (see TestConcurrentInvariants in test_exec_backend.py); bitwise
    # parity pins across backends therefore use one worker.
    hardware = (
        HardwareConfig(cpu_threads=1, gpu_count=0)
        if one_worker
        else HardwareConfig(cpu_threads=4, gpu_count=1)
    )
    return HeterogeneousTrainer(
        algorithm="hsgd_star",
        hardware=hardware,
        training=TrainingConfig(
            latent_factors=k, learning_rate=0.05, iterations=iterations
        ),
        seed=seed,
    )


def _low_rank_world(m, n, k, seed=11):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, (m, k))
    q = rng.uniform(0.0, 1.0, (k, n))
    return rng, p, q


def _ratings(rng, p, q, rows, cols):
    return np.einsum("ik,ki->i", p[rows], q[:, cols])


class TestDriftPolicy:
    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            DriftPolicy(rmse_increase=-0.1)
        with pytest.raises(ConfigurationError):
            DriftPolicy(min_coverage=1.5)
        with pytest.raises(ConfigurationError):
            DriftPolicy(min_window=0)

    def test_window_rmse_masks_out_of_shape_pairs(self):
        model = FactorModel(np.ones((3, 2)), np.ones((2, 4)))
        users = np.array([0, 1, 5, 2])
        items = np.array([0, 3, 0, 9])
        vals = np.array([2.0, 2.0, 2.0, 2.0])
        value, scorable = window_rmse(model, users, items, vals)
        assert scorable == 2  # (5, 0) and (2, 9) fall outside (3, 4)
        assert value == pytest.approx(0.0)  # 1·1 + 1·1 = 2 exactly

    def test_window_rmse_nothing_scorable(self):
        model = FactorModel(np.ones((2, 2)), np.ones((2, 2)))
        value, scorable = window_rmse(
            model, np.array([7]), np.array([7]), np.array([1.0])
        )
        assert value is None and scorable == 0

    def test_rmse_trigger_needs_rebase_and_min_window(self):
        monitor = DriftMonitor(
            DriftPolicy(rmse_increase=0.1, min_coverage=0.0, min_window=3)
        )
        model = FactorModel(np.ones((4, 2)), np.ones((2, 4)))
        users = np.array([0, 1, 2, 3])
        items = np.array([0, 1, 2, 3])
        good = np.full(4, 2.0)  # the model predicts exactly 2.0
        bad = np.full(4, 5.0)

        # No baseline yet: a terrible window cannot trigger on rmse.
        reading = monitor.evaluate(model, users, items, bad)
        assert not reading.retrain and reading.baseline_rmse is None

        monitor.rebase(model, users, items, good)
        assert monitor.baseline_rmse == pytest.approx(0.0)
        ok = monitor.evaluate(model, users, items, good)
        assert not ok.retrain and ok.reason == "ok"
        drifted = monitor.evaluate(model, users, items, bad)
        assert drifted.retrain and drifted.reason == "rmse"
        assert drifted.delta == pytest.approx(3.0)

        # Below min_window the same drift never triggers.
        small = monitor.evaluate(model, users[:2], items[:2], bad[:2])
        assert not small.retrain

    def test_coverage_trigger(self):
        monitor = DriftMonitor(
            DriftPolicy(rmse_increase=10.0, min_coverage=0.8, min_window=2)
        )
        model = FactorModel(np.ones((2, 2)), np.ones((2, 2)))
        users = np.array([0, 1, 9, 9])  # half the window is newcomers
        items = np.array([0, 1, 9, 9])
        vals = np.full(4, 2.0)
        reading = monitor.evaluate(model, users, items, vals)
        assert reading.retrain and reading.reason == "coverage"
        assert reading.coverage == pytest.approx(0.5)


class TestBlockStoreInvalidation:
    def test_append_invalidates_cached_blocks(self, grid_from_bounds):
        """Regression pin: a mutated matrix must never serve stale blocks.

        The cache key is the (row band, col band) cell, which does not
        change across an append — without the version check the store
        would keep returning the pre-append record and a retrain would
        silently skip the graduated ratings.
        """
        matrix = SparseRatingMatrix.from_triples(
            [(0, 0, 5.0), (1, 1, 3.0), (2, 2, 4.0), (3, 0, 2.0)],
            shape=(4, 3),
        )
        rows = balanced_boundaries(matrix.row_counts(), 2)
        cols = balanced_boundaries(matrix.col_counts(), 2)
        store = BlockStore(matrix)
        block = grid_from_bounds(matrix, rows, cols).block(0, 0)
        before = store.block_data(block)

        matrix.append(np.array([0]), np.array([0]), np.array([9.0]))
        after = store.block_data(grid_from_bounds(matrix, rows, cols).block(0, 0))
        assert after.nnz == before.nnz + 1
        assert 9.0 in after.vals
        # The pre-append record was untouched (immutable, still valid
        # as a description of the old matrix).
        assert 9.0 not in before.vals


class TestFoldInAPI:
    def test_fold_in_users_returns_solution_without_mutating(self):
        model = FactorModel.initialize(5, 8, 3, seed=1)
        p_before = model.p.copy()
        users = np.array([9, 9, 7])
        items = np.array([0, 3, 2])
        vals = np.array([4.0, 2.0, 3.0])
        ids, rows = model.fold_in_users(users, items, vals, regularization=0.1)
        np.testing.assert_array_equal(ids, [7, 9])
        assert rows.shape == (2, 3)
        np.testing.assert_array_equal(model.p, p_before)  # not mutated
        # Each returned row solves its own ridge system exactly.
        q_t = model.q.T
        for row, user in zip(rows, ids):
            mask = users == user
            sub = q_t[items[mask]]
            expected = np.linalg.solve(
                sub.T @ sub + 0.1 * mask.sum() * np.eye(3),
                sub.T @ vals[mask],
            )
            np.testing.assert_allclose(row, expected, atol=1e-10)

    def test_fold_in_items_transposed_symmetry(self):
        model = FactorModel.initialize(6, 4, 3, seed=2)
        users = np.array([0, 2, 4])
        items = np.array([10, 10, 10])
        vals = np.array([1.0, 2.0, 3.0])
        ids, cols = model.fold_in_items(users, items, vals, regularization=0.05)
        np.testing.assert_array_equal(ids, [10])
        sub = model.p[users]
        expected = np.linalg.solve(
            sub.T @ sub + 0.05 * 3 * np.eye(3), sub.T @ vals
        )
        np.testing.assert_allclose(cols[0], expected, atol=1e-10)

    def test_empty_input(self):
        model = FactorModel.initialize(3, 3, 2, seed=0)
        empty = np.empty(0)
        ids, rows = model.fold_in_users(empty, empty, empty)
        assert len(ids) == 0 and rows.shape == (0, 2)

    def test_skew_fallback_matches_vectorised_path(self, monkeypatch):
        from repro.sgd import foldin

        model = FactorModel.initialize(4, 60, 5, seed=3)
        rng = np.random.default_rng(4)
        # One heavy newcomer amid light ones: the shape the fallback
        # exists for.
        counts = np.array([50, 2, 7])
        users = np.repeat(np.array([100, 101, 102]), counts)
        items = rng.integers(0, 60, counts.sum())
        vals = rng.uniform(1.0, 5.0, counts.sum())
        _, vectorised = model.fold_in_users(users, items, vals)
        monkeypatch.setattr(foldin, "_PAD_ELEMENT_BUDGET", 1)
        _, fallback = model.fold_in_users(users, items, vals)
        np.testing.assert_allclose(fallback, vectorised, atol=1e-9)


class TestWarmStartParity:
    """``fit(resume_from=...)``: bitwise on the ungrown path, accuracy
    bounded on the grown path."""

    def _matrix_and_checkpoint(
        self, backend, iterations=4, one_worker=False
    ):
        # The ground truth covers the grown shape (46, 34) so drifting
        # batches can draw newcomer ratings from the same world.
        rng, p_true, q_true = _low_rank_world(46, 34, 4)
        rows = rng.integers(0, 40, 1200)
        cols = rng.integers(0, 30, 1200)
        matrix = SparseRatingMatrix(
            rows, cols, _ratings(rng, p_true, q_true, rows, cols),
            shape=(40, 30),
        )
        capture = CaptureCheckpoint()
        half = _trainer(one_worker=one_worker).fit(
            matrix, iterations=iterations, backend=backend, callbacks=[capture]
        )
        return matrix, capture.checkpoint, half, (rng, p_true, q_true)

    @pytest.mark.parametrize("backend", ["simulate", "threads"])
    def test_ungrown_resume_bitwise_identical(self, backend):
        one_worker = backend == "threads"
        matrix, checkpoint, _, _ = self._matrix_and_checkpoint(
            backend, one_worker=one_worker
        )
        full = _trainer(one_worker=one_worker).fit(
            matrix, iterations=8, backend=backend
        )
        resumed = _trainer(one_worker=one_worker).fit(
            matrix, iterations=8, backend=backend, resume_from=checkpoint
        )
        np.testing.assert_array_equal(full.model.p, resumed.model.p)
        np.testing.assert_array_equal(full.model.q, resumed.model.q)

    def test_grown_resume_runs_and_keeps_old_accuracy(self):
        matrix, checkpoint, half, world = self._matrix_and_checkpoint(
            "simulate", iterations=6
        )
        rng, p_true, q_true = world
        old_entries = SparseRatingMatrix(
            matrix.rows, matrix.cols, matrix.vals, shape=matrix.shape
        )
        stale_rmse = rmse(half.model, old_entries)

        new_rows = rng.integers(40, 46, 300)
        new_cols = rng.integers(0, 34, 300)
        matrix.append(
            new_rows, new_cols, _ratings(rng, p_true, q_true, new_rows, new_cols)
        )
        assert matrix.shape == (46, 34)

        resumed = _trainer().fit(
            matrix, iterations=6, backend="simulate", resume_from=checkpoint
        )
        assert resumed.model.shape == (46, 34)
        # Learning the newcomers must not cost accuracy on the old
        # entries: the warm start preserves the trained factors and the
        # retrain only refines them.
        assert rmse(resumed.model, old_entries) <= stale_rmse + 0.05

    def test_grown_resume_conflicts_with_explicit_model(self):
        matrix, checkpoint, _, _ = self._matrix_and_checkpoint("simulate")
        matrix.append(np.array([50]), np.array([0]), np.array([3.0]))
        with pytest.raises(ConfigurationError):
            _trainer().fit(
                matrix,
                iterations=6,
                resume_from=checkpoint,
                model=FactorModel.initialize(51, 30, 4, seed=0),
            )

    def test_shrunk_matrix_rejected(self):
        matrix, checkpoint, _, _ = self._matrix_and_checkpoint("simulate")
        rng = np.random.default_rng(0)
        shrunk = SparseRatingMatrix(
            rng.integers(0, 20, 200), rng.integers(0, 30, 200),
            rng.uniform(1.0, 5.0, 200), shape=(20, 30),
        )
        with pytest.raises(CheckpointError):
            _trainer().fit(shrunk, iterations=6, resume_from=checkpoint)


class TestIngestSession:
    BASE_U, NEW_U = 40, 12
    BASE_I, NEW_I = 30, 8
    K = 4

    def _session(self, store=None, **kwargs):
        rng, p_true, q_true = _low_rank_world(
            self.BASE_U + self.NEW_U, self.BASE_I + self.NEW_I, self.K
        )
        rows = rng.integers(0, self.BASE_U, 1500)
        cols = rng.integers(0, self.BASE_I, 1500)
        matrix = SparseRatingMatrix(
            rows, cols, _ratings(rng, p_true, q_true, rows, cols),
            shape=(self.BASE_U, self.BASE_I),
        )
        session = IngestSession(
            _trainer(iterations=6, k=self.K),
            matrix,
            store=store,
            window_size=kwargs.pop("window_size", 300),
            policy=kwargs.pop(
                "policy", DriftPolicy(rmse_increase=0.02, min_coverage=0.85)
            ),
            backend="simulate",
            retrain_iterations=5,
            **kwargs,
        )
        return session, (rng, p_true, q_true)

    def _stream_batch(self, rng, p_true, q_true, size, newcomer_fraction):
        n_new = int(size * newcomer_fraction)
        users = np.concatenate([
            rng.integers(0, self.BASE_U, size - n_new),
            rng.integers(self.BASE_U, self.BASE_U + self.NEW_U, n_new),
        ])
        items = np.concatenate([
            rng.integers(0, self.BASE_I, size - n_new),
            rng.integers(self.BASE_I, self.BASE_I + self.NEW_I, n_new),
        ])
        return users, items, _ratings(rng, p_true, q_true, users, items)

    def test_requires_start(self):
        session, _ = self._session()
        with pytest.raises(ConfigurationError):
            session.model
        with pytest.raises(ConfigurationError):
            session.ingest(np.array([0]), np.array([0]), np.array([1.0]))
        session.start()
        with pytest.raises(ConfigurationError):
            session.start()  # double start

    def test_ingest_validates_lengths(self):
        session, _ = self._session()
        session.start()
        with pytest.raises(ConfigurationError):
            session.ingest(np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_window_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            IngestSession(_trainer(), None, window_size=0)

    def test_e2e_drift_retrain_beats_stale_model(self):
        """The CI end-to-end scenario: ingest → fold-in → drift-triggered
        warm-start retrain, with the retrained model strictly better on
        the held-out window than the stale (fold-in-only) model."""
        session, (rng, p_true, q_true) = self._session()
        session.start()
        base_shape = session.model.shape
        assert base_shape == (self.BASE_U, self.BASE_I)

        compared = False
        retrains = 0
        folded_users = 0
        for batch_index in range(8):
            users, items, vals = self._stream_batch(
                rng, p_true, q_true, 150,
                newcomer_fraction=min(1.0, 0.2 + 0.12 * batch_index),
            )
            stale = FactorModel(
                session.model.p.copy(), session.model.q.copy()
            )
            w_users, w_items, w_vals = session.window()
            # The window the monitor will evaluate: the newest
            # window_size of (pending + batch).
            w_users = np.concatenate([w_users, users])[-session.window_size:]
            w_items = np.concatenate([w_items, items])[-session.window_size:]
            w_vals = np.concatenate([w_vals, vals])[-session.window_size:]

            report = session.ingest(users, items, vals)
            folded_users += report.folded_users
            if report.retrained:
                retrains += 1
                assert report.drift is not None and report.drift.retrain
                stale_rmse, stale_scorable = window_rmse(
                    stale, w_users, w_items, w_vals
                )
                new_rmse, new_scorable = window_rmse(
                    session.model, w_users, w_items, w_vals
                )
                # The retrained model covers the whole window (all
                # newcomers graduated before the retrain) and beats the
                # stale model on it.
                assert new_scorable == len(w_vals)
                assert new_scorable >= stale_scorable
                assert new_rmse < stale_rmse
                compared = True

        assert retrains >= 1, "the drifting stream never tripped the policy"
        assert compared
        assert folded_users > 0, "no newcomer was ever folded in"
        assert session.stats.retrains == retrains
        # Newcomers graduated, so the matrix and model grew together.
        assert session.model.shape == session.matrix.shape
        assert session.model.shape[0] > base_shape[0]

    def test_flush_graduates_whole_window(self):
        session, (rng, p_true, q_true) = self._session(
            policy=DriftPolicy(rmse_increase=10.0, min_coverage=0.0)
        )
        session.start()
        users, items, vals = self._stream_batch(
            rng, p_true, q_true, 120, newcomer_fraction=0.5
        )
        session.ingest(users, items, vals)
        before = session.matrix.nnz
        report = session.flush()
        assert report.graduated == 120
        assert session.matrix.nnz == before + 120
        assert len(session.window()[0]) == 0
        # Newcomers in the flushed window were folded in.
        assert session.model.shape == session.matrix.shape
        assert report.folded_users > 0

    def test_publishes_monotonic_versions(self):
        with ModelStore() as store:
            session, (rng, p_true, q_true) = self._session(store=store)
            session.start()
            versions = [store.current_handle().version]
            for batch_index in range(6):
                users, items, vals = self._stream_batch(
                    rng, p_true, q_true, 150,
                    newcomer_fraction=min(1.0, 0.3 + 0.15 * batch_index),
                )
                report = session.ingest(users, items, vals)
                if report.published_version is not None:
                    versions.append(report.published_version)
            assert len(versions) >= 2, "the stream never published an update"
            assert versions == sorted(versions)
            assert len(set(versions)) == len(versions)
            assert session.stats.publishes == len(versions)
        assert live_segment_names() == ()


def _concurrent_reader(handle_queue, out_queue, latent):
    """Attach every published handle; detect torn factor state.

    Every published model is version-constant (``P[:] = Q[:] = v``), so
    a self-consistent read sees exactly one distinct value across both
    factor matrices.  A handle whose segment was already retired raises
    ``FileNotFoundError`` — that is a clean miss, not a torn read.
    """
    seen = []
    while True:
        handle = handle_queue.get(timeout=120)
        if handle is None:
            break
        try:
            model, segment = attach_model(handle)
        except (FileNotFoundError, ExecutionError):
            # The publisher already retired this version's segment — a
            # clean miss for a reader lagging behind, not a torn read.
            seen.append(("retired", handle.version))
            continue
        try:
            values = np.unique(np.concatenate([model.p.ravel(), model.q.ravel()]))
            score = model.predict_single(0, 0)
            seen.append(
                ("ok", handle.version, values.tolist(), float(score))
            )
        finally:
            model = None
            segment.close()
    out_queue.put(seen)


class TestConcurrentServing:
    def test_readers_never_see_torn_models(self):
        """Readers score while the publisher swaps N versions.

        Version v publishes constant factors ``P[:] = Q[:] = v``; any
        mix of two versions inside one attached model would show more
        than one distinct value, and the predicted score pins the
        version arithmetic (``k * v^2``).
        """
        latent = 3
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        handle_queue = ctx.Queue()
        out_queue = ctx.Queue()
        n_versions = 5
        with ModelStore() as store:
            first = FactorModel(
                np.full((6, latent), 1.0), np.full((latent, 4), 1.0)
            )
            handle = store.publish(first)
            # Fork after the first publish so the child inherits the
            # running resource tracker (matching the serving example).
            reader = ctx.Process(
                target=_concurrent_reader,
                args=(handle_queue, out_queue, latent),
                daemon=True,
            )
            reader.start()
            handle_queue.put(handle)
            for version_value in range(2, n_versions + 1):
                value = float(version_value)
                model = FactorModel(
                    np.full((6, latent), value), np.full((latent, 4), value)
                )
                handle_queue.put(store.publish(model))
            handle_queue.put(None)
            try:
                seen = out_queue.get(timeout=120)
            finally:
                reader.join(timeout=60)

        attached = [entry for entry in seen if entry[0] == "ok"]
        assert len(attached) + sum(
            1 for entry in seen if entry[0] == "retired"
        ) == n_versions
        assert attached, "the reader never attached a single version"
        for _, version, values, score in attached:
            assert len(values) == 1, f"torn read: {values} in v{version}"
            value = values[0]
            assert score == pytest.approx(latent * value * value)
        versions = [entry[1] for entry in seen]
        assert versions == sorted(versions)
        assert live_segment_names() == ()
