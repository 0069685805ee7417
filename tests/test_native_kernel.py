"""The native (compiled C) mini-batch kernel: numerical contract and fallbacks.

Two halves:

* **Parity** (skipped only where the kernel cannot be built): ``native``
  agrees with ``minibatch_local`` to 1e-12 — not bit for bit, because the
  dot product's summation order is fixed in C and build-dependent in
  ``np.einsum`` — and is deterministic, so every cross-backend and resume
  pin holds *bitwise* under it.
* **Fallbacks** (always run): no compiler, a broken compiler, no cache
  directory, a cache directory someone else could write to — each makes
  the kernel unavailable, never fatal; ``"auto"`` keeps
  ``minibatch_local`` and an explicit ``kernel="native"`` says why.
"""

from __future__ import annotations

import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.config import HardwareConfig, TrainingConfig
from repro.core import GreedyBlockScheduler, factorize
from repro.core.partition import uniform_partition
from repro.exceptions import CheckpointError, ConfigurationError, InvalidMatrixError
from repro.exec import ProcessEngine, ThreadedEngine, TrainCheckpoint
from repro.hardware import HeterogeneousPlatform
from repro.sgd import native, native_status, resolve_kernel_name, sgd_block_minibatch_local, sgd_block_native
from repro.sim import SimulationEngine

_REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
_SRC = os.path.join(_REPO, "src")

needs_native = pytest.mark.skipif(not native_status()[0], reason=f"native kernel unavailable: {native_status()[1]}")

TOLERANCE = native.SELF_CHECK_TOLERANCE  # 1e-12, the documented contract


def _block(seed, nnz, band_rows, band_cols, unique=False):
    """Band-local ``(rows, cols, vals)``; ``unique`` makes every batch duplicate-free."""
    rng = np.random.default_rng(seed)
    if unique:
        rows = rng.permutation(band_rows)[:nnz]
        cols = rng.permutation(band_cols)[:nnz]
    else:
        rows = rng.integers(0, band_rows, nnz)
        cols = rng.zipf(1.4, nnz) % band_cols
    return rows.astype(np.int64), cols.astype(np.int64), rng.uniform(1.0, 5.0, nnz)


def _factors(seed, n_rows, n_cols, k):
    """``(P, Q)`` with Q item-major, the layout ``FactorModel`` feeds the engines."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 0.5, (n_rows, k)), rng.uniform(0.0, 0.5, (n_cols, k)).T


def _copy(p, q):
    return p.copy(), q.T.copy().T


def _rmse(p, q, rows, cols, vals, row0, col0):
    predicted = np.einsum("ij,ji->i", p[rows + row0], q[:, cols + col0])
    return float(np.sqrt(np.mean((vals - predicted) ** 2)))


def _sweep_both(block, k, batch_size, epochs=5, offset=(3, 2), rng_seed=None):
    """Run ``epochs`` sweeps with each kernel; return both factor pairs and RMSE curves."""
    rows, cols, vals = block
    band_rows, band_cols = int(rows.max(initial=0)) + 1, int(cols.max(initial=0)) + 1
    row0, col0 = offset
    p0, q0 = _factors(11, band_rows + row0 + 4, band_cols + col0 + 5, k)
    outcomes = []
    for kernel in (sgd_block_minibatch_local, sgd_block_native):
        p, q = _copy(p0, q0)
        rng = None if rng_seed is None else np.random.default_rng(rng_seed)
        curve = []
        for _ in range(epochs):
            done = kernel(
                p, q, rows, cols, vals, 0.02, 0.05, 0.03,
                (row0, row0 + band_rows), (col0, col0 + band_cols),
                batch_size=batch_size, rng=rng,
            )  # fmt: skip
            assert done == len(vals)
            curve.append(_rmse(p, q, rows, cols, vals, row0, col0))
        outcomes.append((p, q, curve))
    return (p0, q0), outcomes


def _assert_within_contract(outcomes):
    (p_ref, q_ref, curve_ref), (p, q, curve) = outcomes
    assert np.abs(p - p_ref).max() <= TOLERANCE
    assert np.abs(q - q_ref).max() <= TOLERANCE
    assert np.abs(np.array(curve) - np.array(curve_ref)).max() <= 1e-9


@needs_native
class TestParityWithMinibatchLocal:
    @pytest.mark.parametrize("k", [1, 7, 32, 50])
    def test_duplicate_heavy_block_across_latent_sizes(self, k):
        # 700 ratings in batches of 64: ten full batches and a 60-rating tail,
        # every batch repeating rows and columns (9 x 5 band).
        _, outcomes = _sweep_both(_block(1, 700, 9, 5), k, batch_size=64)
        _assert_within_contract(outcomes)

    @pytest.mark.parametrize("batch_size", [1, 37, 256, 10_000])
    def test_batch_tails_and_batch_larger_than_block(self, batch_size):
        _, outcomes = _sweep_both(_block(2, 1_000, 120, 18), 7, batch_size=batch_size)
        _assert_within_contract(outcomes)

    def test_duplicate_free_batches(self):
        _, outcomes = _sweep_both(_block(3, 60, 80, 70, unique=True), 32, batch_size=256)
        _assert_within_contract(outcomes)

    def test_rng_path_draws_the_same_permutations(self):
        _, outcomes = _sweep_both(_block(4, 900, 50, 12), 7, batch_size=128, rng_seed=99)
        _assert_within_contract(outcomes)

    def test_it_is_not_a_noop(self):
        (p0, _), outcomes = _sweep_both(_block(5, 400, 30, 9), 7, batch_size=64, epochs=1)
        assert np.abs(outcomes[1][0] - p0).max() > 1e-3

    def test_only_the_addressed_band_is_written(self):
        rows, cols, vals = _block(6, 500, 20, 8)
        p0, q0 = _factors(12, 40, 30, 7)
        p, q = _copy(p0, q0)
        sgd_block_native(p, q, rows, cols, vals, 0.02, 0.05, 0.05, (10, 30), (5, 13), batch_size=64)
        outside_rows = np.r_[0:10, 30:40]
        outside_cols = np.r_[0:5, 13:30]
        np.testing.assert_array_equal(p[outside_rows], p0[outside_rows])
        np.testing.assert_array_equal(q[:, outside_cols], q0[:, outside_cols])
        assert not np.array_equal(p[10:30], p0[10:30])
        assert not np.array_equal(q[:, 5:13], q0[:, 5:13])

    def test_empty_block_and_bad_batch_size_behave_like_the_numpy_kernel(self):
        p0, q0 = _factors(13, 6, 5, 3)
        p, q = _copy(p0, q0)
        empty = np.empty(0, dtype=np.int64)
        rng = np.random.default_rng(0)
        assert sgd_block_native(p, q, empty, empty, np.empty(0), 0.1, 0.0, 0.0, (0, 6), (0, 5), rng=rng) == 0
        np.testing.assert_array_equal(p, p0)
        # An empty block consumes no randomness, exactly like minibatch_local.
        assert rng.integers(1 << 30) == np.random.default_rng(0).integers(1 << 30)
        with pytest.raises(InvalidMatrixError, match="batch_size"):
            sgd_block_native(p, q, empty, empty, np.empty(0), 0.1, 0.0, 0.0, (0, 6), (0, 5), batch_size=0)
        with pytest.raises(InvalidMatrixError, match="row index out of range"):
            sgd_block_native(p, q, np.array([6]), np.array([0]), np.array([1.0]), 0.1, 0.0, 0.0, (0, 6), (0, 5))

    def test_bands_the_c_routine_cannot_take_run_the_numpy_loop(self):
        rows, cols, vals = _block(7, 300, 20, 10)
        # Q stored factor-major: its item band is a strided view.
        rng = np.random.default_rng(14)
        p0, q0 = rng.uniform(0, 0.5, (20, 4)), rng.uniform(0, 0.5, (4, 10))
        for cast in (np.float64, np.float32):
            results = []
            for kernel in (sgd_block_minibatch_local, sgd_block_native):
                p, q = p0.astype(cast), q0.astype(cast)
                kernel(p, q, rows, cols, vals, 0.02, 0.05, 0.05, (0, 20), (0, 10), batch_size=32)
                results.append((p, q))
            np.testing.assert_array_equal(results[0][0], results[1][0])
            np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_threads_on_disjoint_bands_equal_the_serial_result(self):
        """No static scratch in C: concurrent calls under the band lock are independent."""
        n_threads = 4  # more than this suite's usual core count, so calls really interleave
        blocks = [_block(20 + i, 40_000, 100, 40) for i in range(n_threads)]
        ranges = [((100 * i, 100 * (i + 1)), (40 * i, 40 * (i + 1))) for i in range(n_threads)]
        p0, q0 = _factors(15, 100 * n_threads, 40 * n_threads, 32)

        def sweep(p, q, index):
            rows, cols, vals = blocks[index]
            for _ in range(3):
                sgd_block_native(p, q, rows, cols, vals, 0.01, 0.05, 0.05, *ranges[index], validate=False)

        serial_p, serial_q = _copy(p0, q0)
        for index in range(n_threads):
            sweep(serial_p, serial_q, index)
        p, q = _copy(p0, q0)
        threads = [threading.Thread(target=sweep, args=(p, q, index)) for index in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        np.testing.assert_array_equal(p, serial_p)
        np.testing.assert_array_equal(q, serial_q)


# --------------------------------------------------------------------------- #
# Engine level: the cross-backend pins, re-run under kernel="native"
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def one_worker_platform(scaled_preset):
    return HeterogeneousPlatform.from_preset(HardwareConfig(cpu_threads=1, gpu_count=0), scaled_preset)


def _engine(backend, train, test, training, platform):
    scheduler = GreedyBlockScheduler(uniform_partition(train, 3, 3), 1, 0, seed=0)
    if backend == "simulate":
        return SimulationEngine(scheduler=scheduler, platform=platform, train=train, training=training, test=test)
    engine_type = ThreadedEngine if backend == "threads" else ProcessEngine
    return engine_type(scheduler=scheduler, train=train, training=training, test=test)


def _checkpoint_at(epoch, *engine_args):
    session = _engine(*engine_args).start(iterations=epoch, pause_on_epoch=True)
    while session.step() is not None:
        pass
    checkpoint = TrainCheckpoint.capture(session)
    session.finish()
    return checkpoint


def _resume(checkpoint, total, *engine_args):
    session = _engine(*engine_args).start(iterations=total)
    checkpoint.restore(session)
    while session.step() is not None:
        pass
    return session.finish()


@needs_native
class TestEnginePinsUnderNative:
    def test_one_worker_sim_threads_processes_are_bitwise_identical(
        self, small_split, small_training, one_worker_platform
    ):
        train, test = small_split
        training = small_training.with_kernel("native")
        runs = {
            backend: _engine(backend, train, test, training, one_worker_platform).run(iterations=3)
            for backend in ("simulate", "threads", "processes")
        }
        reference = runs["simulate"]
        assert {run.kernel_name for run in runs.values()} == {"native"}
        for backend in ("threads", "processes"):
            np.testing.assert_array_equal(reference.model.p, runs[backend].model.p)
            np.testing.assert_array_equal(reference.model.q, runs[backend].model.q)
            assert [r.test_rmse for r in reference.trace.iterations] == [
                r.test_rmse for r in runs[backend].trace.iterations
            ]

    def test_spawned_workers_load_the_cached_object(self, small_split, small_training, one_worker_platform):
        train, test = small_split
        training = small_training.with_kernel("native")
        reference = _engine("simulate", train, test, training, one_worker_platform).run(iterations=1)
        scheduler = GreedyBlockScheduler(uniform_partition(train, 3, 3), 1, 0, seed=0)
        spawned = ProcessEngine(
            scheduler=scheduler, train=train, training=training, test=test, start_method="spawn"
        ).run(iterations=1)
        np.testing.assert_array_equal(reference.model.p, spawned.model.p)

    @pytest.mark.parametrize("backend", ["simulate", "threads", "processes"])
    def test_resume_matches_uninterrupted(self, backend, small_split, small_training, one_worker_platform):
        train, test = small_split
        args = (backend, train, test, small_training.with_kernel("native"), one_worker_platform)
        reference = _engine(*args).run(iterations=5)
        checkpoint = _checkpoint_at(2, *args)
        assert checkpoint.meta["kernel"] == "native"
        resumed = _resume(checkpoint, 5, *args)
        np.testing.assert_array_equal(reference.model.p, resumed.model.p)
        np.testing.assert_array_equal(reference.model.q, resumed.model.q)

    def test_training_stays_within_the_contract_of_the_numpy_kernel(
        self, small_split, small_training, one_worker_platform
    ):
        train, test = small_split
        runs = [
            _engine("simulate", train, test, small_training.with_kernel(kernel), one_worker_platform).run(iterations=5)
            for kernel in ("minibatch_local", "native")
        ]
        assert np.abs(runs[0].model.p - runs[1].model.p).max() <= TOLERANCE
        assert np.abs(runs[0].model.q - runs[1].model.q).max() <= TOLERANCE
        curves = [np.array([r.test_rmse for r in run.trace.iterations]) for run in runs]
        assert np.abs(curves[0] - curves[1]).max() <= 1e-9


class TestVisibility:
    def test_result_carries_the_resolved_kernel(self, small_split, small_training, one_worker_platform):
        train, test = small_split
        expected = "native" if native_status()[0] else "minibatch_local"
        result = _engine("simulate", train, test, small_training, one_worker_platform).run(iterations=1)
        assert result.kernel_name == expected
        fitted = factorize(train, test, training=small_training, iterations=1, kernel="sequential")
        assert fitted.kernel_name == "sequential"

    def test_resuming_under_another_kernel_is_refused(self, small_split, small_training, one_worker_platform):
        train, test = small_split
        args = ("simulate", train, test, small_training.with_kernel("minibatch_local"), one_worker_platform)
        checkpoint = _checkpoint_at(1, *args)
        assert checkpoint.meta["kernel"] == "minibatch_local"
        other = ("simulate", train, test, small_training.with_kernel("sequential"), one_worker_platform)
        with pytest.raises(CheckpointError, match="kernel 'sequential' != checkpointed 'minibatch_local'"):
            _resume(checkpoint, 2, *other)
        # A checkpoint written before the field existed still restores.
        del checkpoint.meta["kernel"]
        assert len(_resume(checkpoint, 2, *other).trace.iterations) == 2

    def test_resuming_a_checkpoint_of_the_removed_minibatch_kernel_is_refused(
        self, small_split, small_training, one_worker_platform
    ):
        train, test = small_split
        args = ("simulate", train, test, small_training.with_kernel("minibatch_local"), one_worker_platform)
        checkpoint = _checkpoint_at(1, *args)
        checkpoint.meta["kernel"] = "minibatch"
        with pytest.raises(CheckpointError, match="checkpointed 'minibatch' .*kernel 'minibatch' no longer exists"):
            _resume(checkpoint, 2, *args)

    def test_cli_prints_the_resolved_kernel_and_the_reason(self, capsys, no_native_kernel):
        from repro.cli import main

        assert main(["train", "--dataset", "movielens", "--iterations", "1", "--cpu-threads", "2"]) in (0, None)
        out = capsys.readouterr().out
        assert "kernel             : minibatch_local" in out
        assert f"native kernel      : unavailable ({no_native_kernel})" in out


# --------------------------------------------------------------------------- #
# Fallbacks: every way the build can fail leaves "auto" on minibatch_local
# --------------------------------------------------------------------------- #
@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """Recompute availability inside the test, against an empty private cache."""
    monkeypatch.setattr(native, "_state", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path


def _fake_compiler(directory, body):
    path = directory / "fakecc"
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return str(path)


def _assert_falls_back(reason_fragment):
    available, reason = native_status()
    assert not available
    assert reason_fragment in reason
    assert resolve_kernel_name("auto") == "minibatch_local"
    with pytest.raises(ConfigurationError, match='kernel="native" is unavailable') as raised:
        resolve_kernel_name("native")
    assert reason in str(raised.value)
    return reason


class TestFallbacks:
    def test_compiler_that_does_not_exist(self, fresh_loader, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/bin/cc")
        _assert_falls_back("C compiler '/nonexistent/bin/cc' not found")

    def test_compiler_that_fails(self, fresh_loader, monkeypatch):
        monkeypatch.setenv("CC", _fake_compiler(fresh_loader, "echo 'fakecc: error: out of luck' >&2\nexit 1\n"))
        _assert_falls_back("compiling sgd_minibatch.c failed: fakecc: error: out of luck")
        assert os.listdir(fresh_loader / "cache" / "repro-mf" / "native") == []

    def test_compiler_that_emits_a_broken_object(self, fresh_loader, monkeypatch):
        script = 'while [ "$1" != "-o" ]; do shift; done\necho garbage > "$2"\n'
        monkeypatch.setenv("CC", _fake_compiler(fresh_loader, script))
        _assert_falls_back("could not load")
        # The unusable object does not stay behind to poison the next start.
        assert os.listdir(fresh_loader / "cache" / "repro-mf" / "native") == []

    def test_no_writable_cache_directory(self, fresh_loader, monkeypatch):
        blocker = fresh_loader / "a-file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
        monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(blocker / "tmp"))
        _assert_falls_back("no usable cache directory")

    @pytest.mark.parametrize(
        "forged, fragment",
        [({"st_uid": os.getuid() + 1}, "owned by uid"), ({"st_mode": stat.S_IFDIR | 0o777}, "writable by others")],
    )
    def test_cache_directory_someone_else_could_write_to(self, fresh_loader, monkeypatch, forged, fragment):
        real_stat = os.stat

        def forged_stat(path, *args, **kwargs):
            info = real_stat(path, *args, **kwargs)
            if "repro-mf" not in os.fspath(path):
                return info
            fields = {name: getattr(info, name) for name in ("st_mode", "st_uid")}
            fields.update(forged)
            return type("ForgedStat", (), fields)()

        monkeypatch.setattr(native.os, "stat", forged_stat)
        monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(fresh_loader / "tmp"))
        reason = _assert_falls_back("no usable cache directory")
        assert fragment in reason

    def test_failed_self_check_makes_it_unavailable(self, fresh_loader, monkeypatch):
        monkeypatch.setattr(native, "_build", lambda: "unused")
        monkeypatch.setattr(native, "_bind", lambda path: lambda *args: 0)  # a kernel that updates nothing
        _assert_falls_back("self-check against minibatch_local failed")

    def test_explicit_native_through_the_trainer_names_the_reason(self, small_split, small_training, no_native_kernel):
        train, test = small_split
        with pytest.raises(ConfigurationError, match="disabled by the no_native_kernel test fixture"):
            factorize(train, test, training=small_training, kernel="native", iterations=1)
        with pytest.raises(ConfigurationError, match='kernel="native" is unavailable'):
            sgd_block_native(
                np.zeros((2, 2)), np.zeros((2, 2)).T, np.array([0]), np.array([0]), np.array([1.0]),
                0.1, 0.0, 0.0, (0, 2), (0, 2),
            )  # fmt: skip

    def test_availability_is_computed_once(self, fresh_loader, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/bin/cc")
        first = native_status()
        monkeypatch.setattr(native, "_build", lambda: pytest.fail("availability was recomputed"))
        assert native_status() == first
        assert resolve_kernel_name("auto") == "minibatch_local"

    def test_auto_training_without_a_compiler_is_the_numpy_kernel_bit_for_bit(
        self, small_split, small_training, no_native_kernel
    ):
        train, test = small_split
        kwargs = dict(training=small_training, iterations=2, hardware=HardwareConfig(cpu_threads=2, gpu_count=0))
        auto = factorize(train, test, **kwargs)
        pinned = factorize(train, test, kernel="minibatch_local", **kwargs)
        assert auto.kernel_name == "minibatch_local"
        np.testing.assert_array_equal(auto.model.p, pinned.model.p)
        np.testing.assert_array_equal(auto.model.q, pinned.model.q)


# --------------------------------------------------------------------------- #
# Build, cache and packaging
# --------------------------------------------------------------------------- #
_STATUS_SCRIPT = "from repro.sgd.native import native_status; ok, why = native_status(); print(int(ok), why)"


def _status_process(env):
    command = [sys.executable, "-c", _STATUS_SCRIPT]
    return subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


class TestBuildAndPackaging:
    @needs_native
    def test_concurrent_first_build_from_two_processes(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=_SRC, XDG_CACHE_HOME=str(tmp_path))
        racers = [_status_process(env) for _ in range(2)]
        outputs = [racer.communicate(timeout=120) for racer in racers]
        assert [racer.returncode for racer in racers] == [0, 0], outputs
        lines = [out.strip() for out, _ in outputs]
        assert all(line.startswith("1 loaded ") for line in lines), lines
        assert lines[0] == lines[1]  # same key, one cached object
        cached = os.listdir(tmp_path / "repro-mf" / "native")
        assert len(cached) == 1 and cached[0].endswith(".so"), cached
        assert stat.S_IMODE(os.stat(tmp_path / "repro-mf" / "native").st_mode) == 0o700

    def test_nothing_is_built_at_import(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=_SRC, XDG_CACHE_HOME=str(tmp_path))
        script = "import repro, repro.sgd, repro.cli; from repro.sgd import native; print(native._state)"
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "None"
        assert os.listdir(tmp_path) == []

    def test_built_distribution_ships_and_finds_the_source(self, tmp_path):
        """What goes into a wheel (``build_py``'s output), not only a ``src/`` checkout."""
        (tmp_path / "egg").mkdir()
        lib = tmp_path / "lib"
        build = subprocess.run(
            [sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(tmp_path / "egg"),
             "build_py", "--build-lib", str(lib)],
            cwd=_REPO, capture_output=True, text=True,
        )  # fmt: skip
        if build.returncode != 0:
            pytest.skip(f"setuptools cannot build here: {build.stderr.strip().splitlines()[-1:]}")
        assert (lib / "repro" / "sgd" / "_native" / "sgd_minibatch.c").is_file()
        env = dict(os.environ, PYTHONPATH=str(lib), XDG_CACHE_HOME=str(tmp_path / "cache"))
        script = "from repro.sgd import native; print(native.SOURCE_PATH); print(native.native_status()[0])"
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True, check=True
        )
        source_path, available = out.stdout.split()
        assert source_path.startswith(str(lib))
        assert available == str(native_status()[0])


def test_training_config_accepts_native_by_name():
    assert TrainingConfig(kernel="native").kernel == "native"
    assert TrainingConfig().with_kernel("native").kernel == "native"
