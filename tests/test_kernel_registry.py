"""Tests of the kernel registry and the block-major local kernel.

The contract under test is strong: ``sgd_block_minibatch_local`` is a
*bitwise-identical* restatement of ``sgd_block_minibatch`` over the
block's own coordinate frame, and the engines' block-major data plane
(``kernel="auto"`` + :class:`repro.sparse.BlockStore`) reproduces the
sha256 digests recorded while the gather-per-task path it replaced still
existed.  Every parity assertion below is exact equality, no tolerances.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KERNEL_NAMES as CONFIG_KERNEL_NAMES
from repro.config import HardwareConfig, TrainingConfig
from repro.core import GreedyBlockScheduler, HeterogeneousTrainer
from repro.core.partition import uniform_partition
from repro.exceptions import ConfigurationError, InvalidMatrixError
from repro.hardware import HeterogeneousPlatform, paper_machine_preset
from repro.exec import ProcessEngine, ThreadedEngine
from repro.sgd import (
    KERNEL_NAMES,
    KERNELS,
    FactorModel,
    get_kernel,
    native_status,
    resolve_kernel_name,
    sgd_block_minibatch,
    sgd_block_minibatch_local,
    sgd_block_sequential,
)
from repro.sgd.kernels import _as_kernel_array
from repro.sim import SimulationEngine


def _skewed_block(seed, nnz=4_000, band_rows=120, band_cols=18, offset=(40, 7)):
    """A duplicate-heavy block: few columns, zipf-ish popularity."""
    rng = np.random.default_rng(seed)
    r0, c0 = offset
    rows = rng.integers(0, band_rows, nnz) + r0
    cols = (rng.zipf(1.4, nnz) % band_cols) + c0
    vals = rng.uniform(1.0, 5.0, nnz)
    return rows, cols, vals, (r0, r0 + band_rows), (c0, c0 + band_cols)


class TestRegistry:
    def test_names_match_config(self):
        assert set(KERNELS) | {"auto"} == set(CONFIG_KERNEL_NAMES)
        assert KERNEL_NAMES == CONFIG_KERNEL_NAMES

    def test_get_kernel(self):
        assert get_kernel("sequential") is sgd_block_sequential
        assert get_kernel("minibatch_local") is sgd_block_minibatch_local
        with pytest.raises(ConfigurationError):
            get_kernel("auto")  # config alias, not a registry entry
        with pytest.raises(ConfigurationError):
            get_kernel("cuda")

    def test_resolution(self):
        # "auto" prefers the compiled kernel and keeps the numpy one where
        # it cannot be built (tests/test_native_kernel.py pins both sides).
        expected = "native" if native_status()[0] else "minibatch_local"
        assert resolve_kernel_name("auto") == expected
        assert resolve_kernel_name("minibatch_local") == "minibatch_local"
        assert resolve_kernel_name("sequential") == "sequential"
        assert resolve_kernel_name("auto", exact_kernel=True) == "sequential"
        assert resolve_kernel_name("minibatch_local", exact_kernel=True) == "sequential"
        with pytest.raises(ConfigurationError):
            resolve_kernel_name("warp")

    def test_removed_minibatch_name_is_rejected(self):
        # The global-index kernel left the registry; the name fails typed.
        assert CONFIG_KERNEL_NAMES == ("auto", "minibatch_local", "native", "sequential")
        with pytest.raises(ConfigurationError, match="'minibatch'"):
            TrainingConfig(kernel="minibatch")
        with pytest.raises(ConfigurationError, match="'minibatch'"):
            resolve_kernel_name("minibatch")

    def test_training_config_kernel_validation(self):
        assert TrainingConfig().kernel == "auto"
        assert TrainingConfig(kernel="minibatch_local").kernel == "minibatch_local"
        assert TrainingConfig().with_kernel("sequential").kernel == "sequential"
        with pytest.raises(ConfigurationError):
            TrainingConfig(kernel="warp")


class TestLocalKernelBitwiseParity:
    """minibatch_local == minibatch, bit for bit, additions and all."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batch_size", [1, 7, 256, 4096])
    def test_parity_on_skewed_duplicate_heavy_block(self, seed, batch_size):
        rows, cols, vals, row_range, col_range = _skewed_block(seed)
        m, n, k = 220, 40, 16
        model_a = FactorModel.initialize(m, n, k, seed=seed)
        model_b = model_a.copy()

        sgd_block_minibatch(
            model_a.p, model_a.q, rows, cols, vals, 0.01, 0.05, 0.07,
            batch_size=batch_size,
        )
        sgd_block_minibatch_local(
            model_b.p, model_b.q,
            rows - row_range[0], cols - col_range[0], vals,
            0.01, 0.05, 0.07, row_range, col_range, batch_size=batch_size,
        )
        np.testing.assert_array_equal(model_a.p, model_b.p)
        np.testing.assert_array_equal(model_a.q, model_b.q)

    def test_parity_without_item_major_layout(self):
        """Plain C-order Q (no flat fast path) must take the 2-D scatter
        fallback and still be bitwise-identical."""
        rows, cols, vals, row_range, col_range = _skewed_block(3)
        rng = np.random.default_rng(3)
        p_a = rng.uniform(0, 0.3, size=(220, 16))
        q_a = rng.uniform(0, 0.3, size=(16, 40))
        assert not q_a.T.flags.c_contiguous
        p_b, q_b = p_a.copy(), q_a.copy()

        sgd_block_minibatch(p_a, q_a, rows, cols, vals, 0.01, 0.05, 0.05)
        sgd_block_minibatch_local(
            p_b, q_b, rows - row_range[0], cols - col_range[0], vals,
            0.01, 0.05, 0.05, row_range, col_range,
        )
        np.testing.assert_array_equal(p_a, p_b)
        np.testing.assert_array_equal(q_a, q_b)

    def test_parity_with_shuffling_rng(self):
        rows, cols, vals, row_range, col_range = _skewed_block(4, nnz=1_500)
        model_a = FactorModel.initialize(220, 40, 8, seed=4)
        model_b = model_a.copy()
        sgd_block_minibatch(
            model_a.p, model_a.q, rows, cols, vals, 0.02, 0.01, 0.01,
            rng=np.random.default_rng(99),
        )
        sgd_block_minibatch_local(
            model_b.p, model_b.q, rows - row_range[0], cols - col_range[0],
            vals, 0.02, 0.01, 0.01, row_range, col_range,
            rng=np.random.default_rng(99),
        )
        np.testing.assert_array_equal(model_a.p, model_b.p)
        np.testing.assert_array_equal(model_a.q, model_b.q)

    def test_empty_block_is_noop(self):
        model = FactorModel.initialize(4, 4, 2, seed=0)
        before = model.copy()
        count = sgd_block_minibatch_local(
            model.p, model.q,
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            np.array([]), 0.01, 0.0, 0.0, (0, 2), (0, 2),
        )
        assert count == 0
        np.testing.assert_array_equal(model.p, before.p)

    def test_returns_count(self):
        rows, cols, vals, row_range, col_range = _skewed_block(5, nnz=333)
        model = FactorModel.initialize(220, 40, 4, seed=5)
        count = sgd_block_minibatch_local(
            model.p, model.q, rows - row_range[0], cols - col_range[0], vals,
            0.01, 0.05, 0.05, row_range, col_range,
        )
        assert count == 333


class TestLocalKernelValidation:
    def _model(self):
        return FactorModel.initialize(10, 8, 3, seed=0)

    def test_rejects_band_outside_p(self):
        model = self._model()
        with pytest.raises(InvalidMatrixError, match="does not fit P"):
            sgd_block_minibatch_local(
                model.p, model.q, np.array([0]), np.array([0]),
                np.array([1.0]), 0.01, 0.0, 0.0, (5, 12), (0, 4),
            )

    def test_rejects_band_outside_q(self):
        model = self._model()
        with pytest.raises(InvalidMatrixError, match="does not fit Q"):
            sgd_block_minibatch_local(
                model.p, model.q, np.array([0]), np.array([0]),
                np.array([1.0]), 0.01, 0.0, 0.0, (0, 4), (5, 9),
            )

    def test_rejects_local_index_outside_band(self):
        model = self._model()
        with pytest.raises(InvalidMatrixError, match="row index out of range"):
            sgd_block_minibatch_local(
                model.p, model.q, np.array([4]), np.array([0]),
                np.array([1.0]), 0.01, 0.0, 0.0, (0, 4), (0, 4),
            )
        with pytest.raises(InvalidMatrixError, match="column index out of range"):
            sgd_block_minibatch_local(
                model.p, model.q, np.array([0]), np.array([4]),
                np.array([1.0]), 0.01, 0.0, 0.0, (0, 4), (0, 4),
            )

    def test_validate_false_skips_checks_but_matches(self):
        rows, cols, vals, row_range, col_range = _skewed_block(6, nnz=500)
        model_a = FactorModel.initialize(220, 40, 4, seed=6)
        model_b = model_a.copy()
        args = (rows - row_range[0], cols - col_range[0], vals,
                0.01, 0.05, 0.05, row_range, col_range)
        sgd_block_minibatch_local(model_a.p, model_a.q, *args, validate=True)
        sgd_block_minibatch_local(model_b.p, model_b.q, *args, validate=False)
        np.testing.assert_array_equal(model_a.p, model_b.p)
        np.testing.assert_array_equal(model_a.q, model_b.q)

    def test_global_kernels_accept_validate_flag(self, tiny_matrix):
        model_a = FactorModel.initialize(6, 5, 3, seed=0)
        model_b = model_a.copy()
        args = (tiny_matrix.rows, tiny_matrix.cols, tiny_matrix.vals,
                0.01, 0.05, 0.05)
        sgd_block_minibatch(model_a.p, model_a.q, *args, validate=True)
        sgd_block_minibatch(model_b.p, model_b.q, *args, validate=False)
        np.testing.assert_array_equal(model_a.p, model_b.p)
        sgd_block_sequential(model_a.p, model_a.q, *args, validate=False)

    def test_rejects_bad_batch_size(self):
        model = self._model()
        with pytest.raises(InvalidMatrixError):
            sgd_block_minibatch_local(
                model.p, model.q, np.array([0]), np.array([0]),
                np.array([1.0]), 0.01, 0.0, 0.0, (0, 4), (0, 4), batch_size=0,
            )


class TestNoCopyPath:
    def test_pretyped_contiguous_inputs_are_not_copied(self):
        """The no-copy satellite: right-dtype contiguous arrays pass through
        the kernels' conversion untouched (same object, no allocation)."""
        rows = np.arange(10, dtype=np.int64)
        vals = np.ones(10, dtype=np.float64)
        assert _as_kernel_array(rows, np.int64) is rows
        assert _as_kernel_array(vals, np.float64) is vals

    def test_wrong_dtype_or_layout_is_converted(self):
        rows32 = np.arange(10, dtype=np.int32)
        converted = _as_kernel_array(rows32, np.int64)
        assert converted is not rows32 and converted.dtype == np.int64
        strided = np.arange(20, dtype=np.int64)[::2]
        converted = _as_kernel_array(strided, np.int64)
        assert converted.flags.c_contiguous
        as_list = _as_kernel_array([1, 2, 3], np.int64)
        assert as_list.dtype == np.int64

    def test_kernels_still_accept_python_lists(self):
        model = FactorModel.initialize(3, 3, 2, seed=0)
        count = sgd_block_minibatch(
            model.p, model.q, [0, 1], [0, 1], [1.0, 2.0], 0.01, 0.0, 0.0
        )
        assert count == 2


class TestScatterStaysInBand:
    """Property: the band-local kernel never writes outside its block."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        band_rows=st.integers(1, 30),
        band_cols=st.integers(1, 12),
        r0=st.integers(0, 20),
        c0=st.integers(0, 15),
        nnz=st.integers(1, 200),
        batch_size=st.integers(1, 64),
    )
    def test_factors_outside_block_untouched(
        self, seed, band_rows, band_cols, r0, c0, nnz, batch_size
    ):
        rng = np.random.default_rng(seed)
        m = r0 + band_rows + rng.integers(0, 10)
        n = c0 + band_cols + rng.integers(0, 10)
        local_rows = rng.integers(0, band_rows, nnz)
        local_cols = rng.integers(0, band_cols, nnz)
        vals = rng.uniform(1.0, 5.0, nnz)
        model = FactorModel.initialize(int(m), int(n), 4, seed=seed)
        p_before = model.p.copy()
        q_before = model.q.copy()

        sgd_block_minibatch_local(
            model.p, model.q, local_rows, local_cols, vals,
            0.05, 0.02, 0.02,
            (r0, r0 + band_rows), (c0, c0 + band_cols),
            batch_size=batch_size,
        )

        outside_rows = np.setdiff1d(
            np.arange(m), np.arange(r0, r0 + band_rows)
        )
        outside_cols = np.setdiff1d(
            np.arange(n), np.arange(c0, c0 + band_cols)
        )
        np.testing.assert_array_equal(
            model.p[outside_rows], p_before[outside_rows]
        )
        np.testing.assert_array_equal(
            model.q[:, outside_cols], q_before[:, outside_cols]
        )
        # And something inside did change (nonzero learning rate, ratings).
        touched = model.p[r0:r0 + band_rows]
        assert not np.array_equal(touched, p_before[r0:r0 + band_rows])


class TestEngineLevelParity:
    def test_exact_kernel_still_overrides(self, small_split, small_training):
        """exact_kernel=True must force the sequential reference regardless
        of the configured kernel."""
        train, test = small_split
        platform = HeterogeneousPlatform.from_preset(
            HardwareConfig(cpu_threads=1, gpu_count=0),
            paper_machine_preset().scaled(1e-3),
        )

        def run(training, exact_kernel):
            return SimulationEngine(
                scheduler=GreedyBlockScheduler(uniform_partition(train, 2, 2), 1, 0, seed=0),
                platform=platform, train=train, training=training,
                test=test, exact_kernel=exact_kernel,
            ).run(iterations=1)

        overridden = run(small_training, exact_kernel=True)
        explicit = run(small_training.with_kernel("sequential"), exact_kernel=False)
        assert overridden.kernel_name == "sequential"
        np.testing.assert_array_equal(overridden.model.p, explicit.model.p)
        np.testing.assert_array_equal(overridden.model.q, explicit.model.q)

def _digests(result) -> dict:
    """sha256 of the trained factors and of the per-epoch test-RMSE bytes."""
    rmse = np.array([r.test_rmse for r in result.trace.iterations], dtype=np.float64)
    return {
        name: hashlib.sha256(array.tobytes()).hexdigest()
        for name, array in (
            ("p", result.model.p), ("q", result.model.q), ("test_rmse", rmse)
        )
    }


#: Digests of the engines' block-major data plane, recorded while the
#: pre-block-store gather path and the global-index mini-batch engine
#: kernel still existed (and matched them bit for bit).  ``"auto"`` runs
#: the numpy ``minibatch_local`` kernel (``no_native_kernel``); ``"exact"``
#: the sequential reference.  1-worker simulate, threads and processes
#: runs share one digest per kernel.  The numpy kernels' dot products go
#: through ``np.einsum``, so the constants hold for a given numpy build.
PINNED_ENGINE_DIGESTS = {
    "auto": {
        "p": "fb606e5edc169ca0f4ddf52334fac707c89f4383104e7adfb93f7e0706189c29",
        "q": "bc5d72c154e786e3f9af85b03e6de9f84218d3beb8c4fbe7d847af67307e6c16",
        "test_rmse": "6fd8272fd24bb6e4b6184e069bd29e8b146bbc040e0b1f16c958cad1caa96f18",
    },
    "exact": {
        "p": "6915f37e0aea37626131d05f10b86c1dbea34a771464f5ab48f4472bba1dbdfc",
        "q": "49889633d944ca232e1c397e12d2c551dc0750b6df3f05e63e6a210fee96c799",
        "test_rmse": "5097638a0c94a302d7848f8a7939b25422f6116fede33e27b5403a06060c1466",
    },
    "hsgd_star": {
        "p": "bb1a9e7c8c1cf9a7787407005c13f0c15ae7ae3120bda7f10ae31a84a01e3905",
        "q": "15c44accf9732e306de424fcd8e43d24e815d484aa2ec72f217e6c2f30326aa7",
        "test_rmse": "9607fe69010213f422f049103e63f63d5d58932d5cac2248ef47ea2384ea5815",
    },
}


@pytest.mark.usefixtures("no_native_kernel")
class TestEngineDigestsPinned:
    """The engines' factors and RMSE curves, pinned across all backends."""

    @staticmethod
    def _one_worker_run(backend, train, test, training, exact_kernel):
        scheduler = GreedyBlockScheduler(uniform_partition(train, 3, 3), 1, 0, seed=0)
        kwargs = dict(
            scheduler=scheduler, train=train, training=training, test=test,
            exact_kernel=exact_kernel,
        )
        if backend == "simulate":
            platform = HeterogeneousPlatform.from_preset(
                HardwareConfig(cpu_threads=1, gpu_count=0),
                paper_machine_preset().scaled(1e-3),
            )
            engine = SimulationEngine(platform=platform, **kwargs)
        else:
            engine = {"threads": ThreadedEngine, "processes": ProcessEngine}[backend](**kwargs)
        return engine.run(iterations=3)

    @pytest.mark.parametrize("backend", ["simulate", "threads", "processes"])
    @pytest.mark.parametrize("kernel", ["auto", "exact"])
    def test_one_worker_engines(self, backend, kernel, small_split, small_training):
        train, test = small_split
        result = self._one_worker_run(
            backend, train, test, small_training, exact_kernel=kernel == "exact"
        )
        assert _digests(result) == PINNED_ENGINE_DIGESTS[kernel]

    def test_hsgd_star_fit(self, small_split, small_hardware, small_training, scaled_preset):
        train, test = small_split
        trainer = HeterogeneousTrainer(
            algorithm="hsgd_star", hardware=small_hardware,
            training=small_training, preset=scaled_preset, seed=0,
        )
        result = trainer.fit(train, test, iterations=2, kernel="auto")
        assert _digests(result) == PINNED_ENGINE_DIGESTS["hsgd_star"]
