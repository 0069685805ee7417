"""Tests of curve fitting, cost models, the alpha solver and calibration."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.costmodel import (
    CPUCostModel,
    GPUCostModel,
    KernelCostModel,
    QilinCostModel,
    QilinDeviceModel,
    TransferCostModel,
    calibrate_platform,
    fit_linear,
    fit_speed_log,
    fit_speed_sqrt_log,
    geometric_prefix_sizes,
    solve_alpha,
    stable_speed_threshold,
)
from repro.exceptions import CalibrationError, CostModelError
from repro.hardware import BlockWork, HeterogeneousPlatform
from repro.config import HardwareConfig
from repro.core import HeterogeneousTrainer
from repro.datasets import generate_synthetic_matrix, get_dataset, load_dataset
from repro.sparse import SparseRatingMatrix


class TestFitting:
    def test_fit_linear_exact(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        line = fit_linear(x, 2.5 * x + 1.0)
        assert line.slope == pytest.approx(2.5)
        assert line.intercept == pytest.approx(1.0)
        assert line(10.0) == pytest.approx(26.0)

    def test_fit_linear_vectorised_evaluation(self):
        line = fit_linear([0.0, 1.0], [1.0, 3.0])
        np.testing.assert_allclose(line.evaluate([2.0, 3.0]), [5.0, 7.0])

    def test_fit_linear_needs_two_points(self):
        with pytest.raises(CostModelError):
            fit_linear([1.0], [1.0])

    def test_fit_linear_rejects_non_finite(self):
        with pytest.raises(CostModelError):
            fit_linear([1.0, np.nan], [1.0, 2.0])

    def test_fit_speed_sqrt_log_recovers_parameters(self):
        sizes = np.geomspace(1e3, 1e8, 20)
        speeds = 3.0 * np.sqrt(np.log(sizes)) + 7.0
        line = fit_speed_sqrt_log(sizes, speeds)
        assert line.slope == pytest.approx(3.0, rel=1e-6)
        assert line.intercept == pytest.approx(7.0, rel=1e-6)

    def test_fit_speed_log_recovers_parameters(self):
        sizes = np.geomspace(1e2, 1e7, 15)
        speeds = 2.0 * np.log(sizes) + 5.0
        line = fit_speed_log(sizes, speeds)
        assert line.slope == pytest.approx(2.0, rel=1e-6)

    def test_transform_fits_reject_tiny_sizes(self):
        with pytest.raises(CostModelError):
            fit_speed_sqrt_log([0.5, 2.0], [1.0, 2.0])
        with pytest.raises(CostModelError):
            fit_speed_log([0.0, 2.0], [1.0, 2.0])

    def test_stable_speed_threshold_finds_plateau(self):
        sizes = np.array([1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
        speeds = np.array([10.0, 30.0, 60.0, 99.0, 100.0, 100.5])
        threshold = stable_speed_threshold(sizes, speeds)
        assert threshold == pytest.approx(1e7)

    def test_stable_speed_threshold_never_stable(self):
        sizes = np.array([1.0, 2.0, 3.0, 4.0])
        speeds = np.array([1.0, 2.0, 4.0, 8.0])
        assert stable_speed_threshold(sizes, speeds) == 4.0

    def test_stable_speed_threshold_validation(self):
        with pytest.raises(CostModelError):
            stable_speed_threshold([1.0, 2.0], [1.0, 1.0], relative_change=0.0)


class TestCPUCostModel:
    def test_fit_and_predict(self):
        points = np.array([1e4, 5e4, 1e5, 5e5])
        times = points / 5e6 + 1e-4
        model = CPUCostModel.fit(points, times)
        assert model.time_for_points(2e5) == pytest.approx(2e5 / 5e6 + 1e-4, rel=1e-6)
        assert model.speed_for_points(2e5) == pytest.approx(5e6, rel=0.05)

    def test_zero_points_is_free(self):
        model = CPUCostModel.fit([1e4, 1e5], [1e-3, 1e-2])
        assert model.time_for_points(0) == 0.0
        assert model.speed_for_points(0) == 0.0

    def test_rejects_negative_points(self):
        model = CPUCostModel.fit([1e4, 1e5], [1e-3, 1e-2])
        with pytest.raises(CostModelError):
            model.time_for_points(-5)

    def test_rejects_decreasing_cost(self):
        with pytest.raises(CostModelError):
            CPUCostModel.fit([1e4, 1e5], [1e-2, 1e-3])

    def test_predict_vectorised(self):
        model = CPUCostModel.fit([1e4, 1e5], [1e-3, 1e-2])
        predictions = model.predict(np.array([1e4, 1e5]))
        assert predictions.shape == (2,)


class TestPiecewiseGPUModels:
    @pytest.fixture(scope="class")
    def gpu_device(self, scaled_preset):
        platform = HeterogeneousPlatform.from_preset(
            HardwareConfig(cpu_threads=1, gpu_count=1), scaled_preset
        )
        return platform.representative_gpu()

    def test_kernel_model_tracks_device(self, gpu_device):
        sizes = np.geomspace(100, 200_000, 12)
        times = [gpu_device.kernel_time(BlockWork(nnz=int(s))) for s in sizes]
        model = KernelCostModel.fit(sizes, times)
        for size in (500, 5_000, 50_000):
            true_time = gpu_device.kernel_time(BlockWork(nnz=size))
            assert model.time_for_points(size) == pytest.approx(true_time, rel=0.25)

    def test_kernel_model_monotone(self, gpu_device):
        sizes = np.geomspace(100, 200_000, 12)
        times = [gpu_device.kernel_time(BlockWork(nnz=int(s))) for s in sizes]
        model = KernelCostModel.fit(sizes, times)
        predictions = [model.time_for_points(s) for s in np.geomspace(200, 100_000, 20)]
        assert all(b >= a * 0.99 for a, b in zip(predictions, predictions[1:]))

    def test_kernel_model_small_sizes_clamped(self, gpu_device):
        sizes = np.geomspace(1_000, 200_000, 8)
        times = [gpu_device.kernel_time(BlockWork(nnz=int(s))) for s in sizes]
        model = KernelCostModel.fit(sizes, times)
        # Far below the fitted range the model must stay positive and finite.
        assert 0 < model.time_for_points(10) < model.time_for_points(10_000)

    def test_kernel_model_needs_enough_samples(self):
        with pytest.raises(CostModelError):
            KernelCostModel.fit([1.0, 2.0], [1.0, 2.0])

    def test_transfer_model_tracks_link(self, gpu_device):
        sizes = [64 * 1024 * (2 ** i) for i in range(13)]
        times = [gpu_device.pcie.host_to_device_time(s) for s in sizes]
        model = TransferCostModel.fit(sizes, times)
        for size in (1e5, 1e6, 1e8):
            true_time = gpu_device.pcie.host_to_device_time(size)
            assert model.time_for_bytes(size) == pytest.approx(true_time, rel=0.35)

    def test_transfer_model_bandwidth_grows(self, gpu_device):
        sizes = [64 * 1024 * (2 ** i) for i in range(13)]
        times = [gpu_device.pcie.host_to_device_time(s) for s in sizes]
        model = TransferCostModel.fit(sizes, times)
        assert model.bandwidth_for_bytes(1e8) > model.bandwidth_for_bytes(1e5)

    def test_transfer_model_zero_free(self, gpu_device):
        sizes = [64 * 1024 * (2 ** i) for i in range(8)]
        times = [gpu_device.pcie.host_to_device_time(s) for s in sizes]
        model = TransferCostModel.fit(sizes, times)
        assert model.time_for_bytes(0) == 0.0

    def test_combined_model_is_maximum(self, gpu_device):
        sizes = np.geomspace(100, 200_000, 10)
        kernel_times = [gpu_device.kernel_time(BlockWork(nnz=int(s))) for s in sizes]
        kernel = KernelCostModel.fit(sizes, kernel_times)
        transfer_sizes = [64 * 1024 * (2 ** i) for i in range(13)]
        transfer_times = [
            gpu_device.pcie.host_to_device_time(s) for s in transfer_sizes
        ]
        transfer = TransferCostModel.fit(transfer_sizes, transfer_times)
        combined = GPUCostModel(
            kernel=kernel,
            host_to_device=transfer,
            device_to_host=transfer,
            bytes_per_point=20.0,
        )
        points = 50_000
        assert combined.time_for_points(points) == pytest.approx(
            max(
                combined.kernel_time_for_points(points),
                combined.transfer_time_for_points(points),
            )
        )
        assert combined.bottleneck(points) in ("transfer", "kernel")
        assert combined.speed_for_points(points) > 0

    def test_combined_model_validation(self, gpu_device):
        sizes = np.geomspace(100, 200_000, 10)
        kernel_times = [gpu_device.kernel_time(BlockWork(nnz=int(s))) for s in sizes]
        kernel = KernelCostModel.fit(sizes, kernel_times)
        transfer_sizes = [64 * 1024 * (2 ** i) for i in range(8)]
        transfer_times = [
            gpu_device.pcie.host_to_device_time(s) for s in transfer_sizes
        ]
        transfer = TransferCostModel.fit(transfer_sizes, transfer_times)
        with pytest.raises(CostModelError):
            GPUCostModel(kernel, transfer, transfer, bytes_per_point=0.0)


class TestQilin:
    def test_linear_device_model(self):
        model = QilinDeviceModel.fit([1e4, 1e5, 1e6], [1e-3, 1e-2, 1e-1])
        assert model.time_for_points(5e5) == pytest.approx(5e-2, rel=0.05)
        assert model.speed_for_points(5e5) == pytest.approx(1e7, rel=0.1)

    def test_qilin_pair(self):
        cpu = QilinDeviceModel.fit([1e4, 1e5], [2e-3, 2e-2])
        gpu = QilinDeviceModel.fit([1e4, 1e5], [1e-3, 1e-2])
        pair = QilinCostModel(cpu=cpu, gpu=gpu)
        assert pair.gpu_time_for_points(1e5) < pair.cpu_time_for_points(1e5)

    def test_rejects_decreasing_fit(self):
        with pytest.raises(CostModelError):
            QilinDeviceModel.fit([1e4, 1e5], [1e-2, 1e-3])


class TestAlphaSolver:
    def test_balanced_resources_give_half(self):
        split = solve_alpha(
            lambda p: p / 100.0,
            lambda p: p / 100.0,
            total_points=1000,
            n_gpus=1,
            n_cpu_threads=1,
        )
        assert split.alpha == pytest.approx(0.5, abs=0.01)
        assert split.imbalance < 1e-3

    def test_faster_gpu_gets_more_work(self):
        split = solve_alpha(
            lambda p: p / 300.0,          # GPU is 3x faster than one thread
            lambda p: p / 100.0,
            total_points=1000,
            n_gpus=1,
            n_cpu_threads=1,
        )
        assert split.alpha == pytest.approx(0.75, abs=0.02)

    def test_thread_count_scales_cpu_side(self):
        split = solve_alpha(
            lambda p: p / 100.0,
            lambda p: p / 100.0,
            total_points=1000,
            n_gpus=1,
            n_cpu_threads=3,
        )
        assert split.alpha == pytest.approx(0.25, abs=0.02)

    def test_no_gpu_forces_zero(self):
        split = solve_alpha(
            lambda p: p, lambda p: p, total_points=10, n_gpus=0, n_cpu_threads=4
        )
        assert split.alpha == 0.0

    def test_no_cpu_forces_one(self):
        split = solve_alpha(
            lambda p: p, lambda p: p, total_points=10, n_gpus=2, n_cpu_threads=0
        )
        assert split.alpha == 1.0

    def test_nonlinear_gpu_cost(self):
        """A saturating GPU speed still yields a balanced, sensible split."""
        def gpu_time(points):
            speed = 20.0 + 80.0 * min(1.0, points / 500.0)
            return points / speed

        split = solve_alpha(
            gpu_time, lambda p: p / 100.0, total_points=1000, n_gpus=1, n_cpu_threads=1
        )
        assert 0.3 < split.alpha < 0.7
        assert split.predicted_makespan >= split.gpu_time - 1e-9

    def test_properties(self):
        split = solve_alpha(
            lambda p: p / 100.0, lambda p: p / 100.0,
            total_points=100, n_gpus=1, n_cpu_threads=1,
        )
        assert split.cpu_share == pytest.approx(1.0 - split.alpha)
        assert split.predicted_makespan == max(split.gpu_time, split.cpu_time)

    def test_validation(self):
        with pytest.raises(CostModelError):
            solve_alpha(lambda p: p, lambda p: p, 0, 1, 1)
        with pytest.raises(CostModelError):
            solve_alpha(lambda p: p, lambda p: p, 10, 0, 0)
        with pytest.raises(CostModelError):
            solve_alpha(lambda p: p, lambda p: p, 10, -1, 1)


class TestCalibration:
    def test_geometric_prefix_sizes(self):
        sizes = geometric_prefix_sizes(100_000, 8)
        assert sizes[0] >= 2
        assert sizes[-1] == 100_000
        assert sizes == sorted(sizes)
        with pytest.raises(CalibrationError):
            geometric_prefix_sizes(0, 8)
        with pytest.raises(CalibrationError):
            geometric_prefix_sizes(100, 1)

    def test_full_calibration_produces_models(self, small_calibration):
        assert small_calibration.cpu_model is not None
        assert small_calibration.gpu_model is not None
        assert small_calibration.qilin_model is not None
        assert len(small_calibration.cpu_probes) >= 4
        assert len(small_calibration.gpu_kernel_probes) >= 4
        assert len(small_calibration.transfer_probes_h2d) > 4

    def test_calibrated_cpu_model_accurate(
        self, small_calibration, small_platform, small_training
    ):
        device = small_platform.representative_cpu()
        work = BlockWork(nnz=1_500, p_rows=200, q_cols=150,
                         latent_factors=small_training.latent_factors)
        predicted = small_calibration.cpu_time_for_points(1_500)
        assert predicted == pytest.approx(device.process_time(work), rel=0.15)

    def test_calibrated_gpu_model_reasonable(
        self, small_calibration, small_platform, small_training
    ):
        device = small_platform.representative_gpu()
        work = BlockWork(nnz=1_000, p_rows=120, q_cols=80,
                         latent_factors=small_training.latent_factors)
        predicted = small_calibration.gpu_time_for_points(1_000)
        assert predicted == pytest.approx(device.process_time(work), rel=0.5)

    def test_cost_model_dispatch(self, small_calibration):
        paper = small_calibration.gpu_time_for_points(1_000, "paper")
        qilin = small_calibration.gpu_time_for_points(1_000, "qilin")
        assert paper > 0 and qilin > 0
        with pytest.raises(CalibrationError):
            small_calibration.gpu_time_for_points(1_000, "unknown")
        with pytest.raises(CalibrationError):
            small_calibration.cpu_time_for_points(1_000, "unknown")

    def test_cpu_only_platform_calibration(self, small_matrix, scaled_preset, small_training):
        platform = HeterogeneousPlatform.from_preset(
            HardwareConfig(cpu_threads=2, gpu_count=0), scaled_preset
        )
        result = calibrate_platform(
            platform, small_matrix, training=small_training, segments=6
        )
        assert result.gpu_model is None
        assert result.qilin_model is None
        with pytest.raises(CalibrationError):
            result.gpu_time_for_points(100)

    def test_too_few_ratings_rejected(self, small_platform, small_training, tiny_matrix):
        with pytest.raises(CalibrationError):
            calibrate_platform(
                small_platform, tiny_matrix, training=small_training, segments=100
            )

    def test_bad_segments_rejected(self, small_platform, small_training, small_matrix):
        with pytest.raises(CalibrationError):
            calibrate_platform(small_platform, small_matrix, small_training, segments=0)
        # The sample, not the full matrix, must hold one rating per segment.
        with pytest.raises(CalibrationError):
            calibrate_platform(
                small_platform, small_matrix, small_training,
                segments=12, sample_fraction=10 / small_matrix.nnz,
            )


class TestShuffledPrefixWorks:
    """Prefix counts equal ``np.unique`` on slices of the shuffled copy."""

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40),
        pad=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        seed=st.integers(0, 2**16),
    )
    @example(cells=[], pad=(0, 0), seed=0)
    @example(cells=[(0, 0)], pad=(0, 0), seed=0)
    @example(cells=[(2, c) for c in range(6)] * 2, pad=(1, 4), seed=1)
    @example(cells=[(r, 5) for r in range(6)], pad=(0, 0), seed=2)
    def test_counts_match_unique(self, cells, pad, seed):
        from repro.costmodel.calibration import _shuffled_prefix_works

        rows = np.array([r for r, _ in cells], dtype=np.int64)
        cols = np.array([c for _, c in cells], dtype=np.int64)
        shape = (rows.max(initial=0) + 1 + pad[0], cols.max(initial=0) + 1 + pad[1])
        matrix = SparseRatingMatrix(rows, cols, np.ones(len(cells)), shape=shape)
        works = _shuffled_prefix_works(matrix, range(matrix.nnz + 1), 8, seed)
        shuffled = matrix.shuffled(seed=seed)
        assert [w.nnz for w in works] == list(range(matrix.nnz + 1))
        for k, work in enumerate(works):
            assert work.p_rows == len(np.unique(shuffled.rows[:k]))
            assert work.q_cols == len(np.unique(shuffled.cols[:k]))
            assert work.latent_factors == 8


class TestCostModelEdgeBranches:
    """Error paths and degenerate-split guards of the fitted models.

    These branches matter to the tune path: `run_tune` feeds measured
    ladders straight into `fit`, so a noisy probe on a busy machine can
    produce exactly the degenerate regime splits exercised here.
    """

    # -- fitting ----------------------------------------------------- #

    def test_fit_rejects_mismatched_shapes(self):
        with pytest.raises(CostModelError):
            fit_linear([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(CostModelError):
            fit_linear(np.ones((2, 2)), np.ones(4))

    # -- transfer model ---------------------------------------------- #

    def test_transfer_rejects_bad_threshold(self):
        line = fit_linear([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(CostModelError):
            TransferCostModel(line, line, threshold_bytes=0.0)

    def test_transfer_fit_rejects_few_or_bad_samples(self):
        with pytest.raises(CostModelError):
            TransferCostModel.fit([10.0, 100.0, 1000.0], [1e-3, 1e-2, 1e-1])
        with pytest.raises(CostModelError):
            TransferCostModel.fit(
                [0.5, 100.0, 1000.0, 10000.0], [1e-3, 1e-2, 1e-1, 1.0]
            )
        with pytest.raises(CostModelError):
            TransferCostModel.fit(
                [10.0, 100.0, 1000.0, 10000.0], [1e-3, 0.0, 1e-1, 1.0]
            )

    def test_transfer_fit_survives_flat_speed_curve(self):
        # Constant speed settles immediately: the threshold lands on the
        # smallest sample and the small-regime guard must widen it.
        sizes = np.array([1e3, 1e4, 1e5, 1e6, 1e7])
        times = sizes / 1e8
        model = TransferCostModel.fit(sizes, times)
        assert model.time_for_bytes(5e5) > 0

    def test_transfer_fit_survives_never_settling_curve(self):
        # Speed doubles at every step: the threshold falls back to the
        # largest sample and the large-regime guard must reclaim points.
        sizes = np.array([1e3, 1e4, 1e5, 1e6, 1e7])
        speeds = 1e6 * 2.0 ** np.arange(len(sizes))
        model = TransferCostModel.fit(sizes, sizes / speeds)
        assert model.time_for_bytes(5e5) > 0

    def test_transfer_time_edge_inputs(self):
        sizes = np.geomspace(1e3, 1e8, 8)
        times = [(s / (1e8 + s)) for s in sizes]
        model = TransferCostModel.fit(sizes, times)
        with pytest.raises(CostModelError):
            model.time_for_bytes(-1.0)
        assert model.time_for_bytes(0.0) == 0.0
        assert model.bandwidth_for_bytes(0.0) == 0.0
        assert model.bandwidth_for_bytes(1e5) > 0
        assert "TransferCostModel" in repr(model)

    def test_transfer_nonpositive_fitted_speed_raises(self):
        negative = fit_linear([0.0, 1.0], [-1.0, -1.0])
        positive = fit_linear([0.0, 1.0], [1.0, 2.0])
        model = TransferCostModel(negative, positive, threshold_bytes=1e6)
        with pytest.raises(CostModelError):
            model.time_for_bytes(10.0)

    # -- kernel model ------------------------------------------------- #

    def test_kernel_rejects_bad_threshold(self):
        line = fit_linear([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(CostModelError):
            KernelCostModel(line, line, threshold_points=-5.0)

    def test_kernel_fit_rejects_few_or_bad_samples(self):
        with pytest.raises(CostModelError):
            KernelCostModel.fit([10.0, 100.0, 1000.0], [1e-3, 1e-2, 1e-1])
        with pytest.raises(CostModelError):
            KernelCostModel.fit(
                [10.0, 100.0, 1000.0, 10000.0], [1e-3, -1e-2, 1e-1, 1.0]
            )

    def test_kernel_fit_survives_degenerate_splits(self):
        points = np.array([1e3, 1e4, 1e5, 1e6, 1e7])
        flat = KernelCostModel.fit(points, points / 1e7)
        assert flat.time_for_points(5e4) > 0
        speeds = 1e5 * 2.0 ** np.arange(len(points))
        rising = KernelCostModel.fit(points, points / speeds)
        assert rising.time_for_points(5e4) > 0

    def test_kernel_time_edge_inputs(self):
        points = np.geomspace(1e2, 1e7, 8)
        times = [(p / (1e7 + p)) for p in points]
        model = KernelCostModel.fit(points, times)
        with pytest.raises(CostModelError):
            model.time_for_points(-1.0)
        assert model.speed_for_points(0.0) == 0.0
        assert model.speed_for_points(1e4) > 0
        assert "KernelCostModel" in repr(model)

    def test_kernel_nonpositive_fitted_speed_raises(self):
        negative = fit_linear([0.0, 1.0], [-1.0, -1.0])
        positive = fit_linear([0.0, 1.0], [1.0, 2.0])
        model = KernelCostModel(negative, positive, threshold_points=1e6)
        with pytest.raises(CostModelError):
            model.time_for_points(10.0)

    # -- combined GPU model ------------------------------------------- #

    @pytest.fixture()
    def slow_kernel_gpu(self):
        points = np.geomspace(1e2, 1e7, 8)
        kernel = KernelCostModel.fit(points, [p / 1e5 for p in points])
        transfer = TransferCostModel.fit(points, [p / 1e12 for p in points])
        return GPUCostModel(
            kernel=kernel,
            host_to_device=transfer,
            device_to_host=transfer,
            bytes_per_point=1.0,
        )

    def test_gpu_model_edge_inputs(self, slow_kernel_gpu):
        with pytest.raises(CostModelError):
            slow_kernel_gpu.time_for_points(-1.0)
        assert slow_kernel_gpu.speed_for_points(0.0) == 0.0
        assert "GPUCostModel" in repr(slow_kernel_gpu)

    def test_gpu_bottleneck_reports_kernel(self, slow_kernel_gpu):
        # Kernel fitted ~1e7x slower than the transfer link: the
        # stream-overlapped maximum must be the kernel.
        assert slow_kernel_gpu.bottleneck(1e5) == "kernel"
        assert slow_kernel_gpu.time_for_points(
            1e5
        ) == slow_kernel_gpu.kernel_time_for_points(1e5)

    # -- qilin -------------------------------------------------------- #

    def test_qilin_device_edge_inputs(self):
        model = QilinDeviceModel.fit([1e3, 1e4, 1e5], [1e-3, 1e-2, 1e-1])
        with pytest.raises(CostModelError):
            model.time_for_points(-1.0)
        assert model.time_for_points(0.0) == 0.0
        assert model.speed_for_points(0.0) == 0.0
        assert "QilinDeviceModel" in repr(model)

    def test_qilin_nonpositive_time_raises(self):
        flat = QilinDeviceModel(fit_linear([0.0, 1.0], [-1.0, -1.0]))
        with pytest.raises(CostModelError):
            flat.speed_for_points(100.0)

    def test_qilin_pair_repr(self):
        dev = QilinDeviceModel.fit([1e3, 1e4, 1e5], [1e-3, 1e-2, 1e-1])
        assert "QilinCostModel" in repr(QilinCostModel(cpu=dev, gpu=dev))

    # -- cpu ---------------------------------------------------------- #

    def test_cpu_nonpositive_time_raises(self):
        from repro.costmodel import FittedLine

        model = CPUCostModel(FittedLine(slope=1e-12, intercept=-1.0))
        with pytest.raises(CostModelError):
            model.speed_for_points(1.0)
        assert model.speed_for_points(0.0) == 0.0
        assert "CPUCostModel" in repr(model)

    # -- calibration probes and results ------------------------------- #

    def test_probe_speed_handles_zero_seconds(self):
        from repro.costmodel import CalibrationProbe

        assert CalibrationProbe(points=10, seconds=0.0).speed == 0.0
        assert CalibrationProbe(points=10, seconds=2.0).speed == 5.0

    def test_probe_guards(self, small_platform):
        from repro.costmodel import (
            probe_cpu_kernel,
            probe_gpu_kernel,
            probe_transfer_link,
        )
        from repro.costmodel.calibration import probe_gpu_total

        for probe in (probe_cpu_kernel, probe_gpu_kernel, probe_gpu_total):
            with pytest.raises(CalibrationError):
                probe(small_platform, [BlockWork(nnz=64)], repeats=0)
        with pytest.raises(CalibrationError):
            probe_transfer_link(small_platform, [0], direction="h2d")
        with pytest.raises(CalibrationError):
            probe_transfer_link(small_platform, [1024], direction="sideways")

    def test_qilin_cpu_prediction_and_missing_gpu_fallback(self, small_calibration):
        import dataclasses

        via_qilin = small_calibration.cpu_time_for_points(1_000, "qilin")
        assert via_qilin > 0
        cpu_only = dataclasses.replace(small_calibration, qilin_model=None)
        with pytest.raises(CalibrationError):
            cpu_only.gpu_time_for_points(1_000, "qilin")
        # Qilin's CPU side is linear too, so the fallback is the paper model.
        assert cpu_only.cpu_time_for_points(1_000, "qilin") == pytest.approx(
            small_calibration.cpu_time_for_points(1_000, "paper")
        )


# --------------------------------------------------------------------------- #
# Pinned calibration results
# --------------------------------------------------------------------------- #
def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _probe_digest(probes) -> str:
    points = np.array([p.points for p in probes], dtype=np.int64)
    seconds = np.array([p.seconds for p in probes], dtype=np.float64)
    return _sha(points.tobytes() + seconds.tobytes())


def _calibration_digests(calibration, split, nnz: int) -> dict:
    """sha256 of every probe list, the fitted models and the split.

    The models' ``repr`` rounds its coefficients, so their predictions on
    a fixed ladder are pinned too, bit for bit.
    """
    out = {
        name: _probe_digest(getattr(calibration, name))
        for name in (
            "cpu_probes",
            "gpu_kernel_probes",
            "gpu_total_probes",
            "transfer_probes_h2d",
            "transfer_probes_d2h",
        )
    }
    models = (calibration.cpu_model, calibration.gpu_model, calibration.qilin_model)
    out["models"] = _sha(repr(models).encode())
    ladder = np.geomspace(64, nnz, 9)
    predictions = np.array([
        [calibration.cpu_time_for_points(x, model),
         calibration.gpu_time_for_points(x, model)]
        for model in ("paper", "qilin")
        for x in ladder
    ])
    out["predictions"] = _sha(predictions.tobytes())
    out["workload_split"] = _sha(repr(split).encode())
    return out


def _trainer_digests(matrix) -> dict:
    trainer = HeterogeneousTrainer("hsgd_star", HardwareConfig(), seed=1)
    split = trainer.workload_split(matrix)
    return _calibration_digests(trainer.calibration, split, matrix.nnz)


def _matrix_930k():
    config = dataclasses.replace(
        get_dataset("netflix").synthetic,
        n_rows=80_000, n_cols=6_000, n_ratings=930_000, seed=7,
    )
    return generate_synthetic_matrix(config)[0]


#: Digests recorded before calibration stopped materialising its prefix
#: matrices; the probes, models and split must stay bit-identical.  The
#: fits are LAPACK least squares, so the constants hold for a given BLAS
#: build.
PINNED_CALIBRATION_DIGESTS = {
    "netflix": {
        "cpu_probes": "55dd621aa103962580c751bccdba85ac4ccbb61312af2875f995ef673fba3c28",
        "gpu_kernel_probes": "5364a09e8634b2ca68bdde84155d3c8bc89eb9821c6f5e0fd9e59adb55228562",
        "gpu_total_probes": "e353e297269e77d3417f309387e23121414ee231d6797c52bfe2efb174484492",
        "transfer_probes_h2d": "823c63af7fb1a87148a524d294e41b737f10ec353c3351174653006f7ee5079b",
        "transfer_probes_d2h": "e911342f75eea465d9a6104dcb630853ab2d4c853a4b60dd89505721a2ecd583",
        "models": "a0fba566eb6274d05c5a5427ec53b0a8a38c1070319c4131d7669082fa81054c",
        "predictions": "bc7f4a6b94745f4ce4dac71844a0f64cf12164d651137e9e121fffee1c2d1e90",
        "workload_split": "5cb5ce3b15bfe6928ddfaa8788d17aae5643bf265a13448150a0423d91120e46",
    },
    "930k": {
        "cpu_probes": "95c829289d0f4b82866abd5bfeb92de22fa7916fe3d9dfff4afee440f6f516be",
        "gpu_kernel_probes": "25f30460e1e6d1a57f19329b4d3118a64332596c675dda0fcd5c9f9f6bdc45a7",
        "gpu_total_probes": "95b4d3145e90ec9bf1c871cfacfacf2a5709fa0e8e7558612ea8fda2a85a8ca5",
        "transfer_probes_h2d": "823c63af7fb1a87148a524d294e41b737f10ec353c3351174653006f7ee5079b",
        "transfer_probes_d2h": "e911342f75eea465d9a6104dcb630853ab2d4c853a4b60dd89505721a2ecd583",
        "models": "d8a9dcf98ca5653f11b431687291b49f7b862f98d18b69802603cf76a3e76fa2",
        "predictions": "f5f1a693ae686d30d509ebe2e8aaa4aff1a4d75af60164b00c7d60119204c507",
        "workload_split": "369d95e424d638f744f4b267cd68bdab9d5ed377ee9de2a06ceca9c690e65ebf",
    },
    "tune": "4b8a69ce1d95bb179c2b4da378b290df1d518eae8dbe7d780dfac6ea235cd7c6",
}


class TestCalibrationPinned:
    def test_netflix_trainer(self):
        train = load_dataset("netflix", seed=1).train
        assert _trainer_digests(train) == PINNED_CALIBRATION_DIGESTS["netflix"]

    @pytest.mark.slow
    def test_930k_trainer(self):
        assert _trainer_digests(_matrix_930k()) == PINNED_CALIBRATION_DIGESTS["930k"]

    def test_tune_holdout(self):
        from repro.tune import run_tune

        outcome = run_tune(quick=True, seed=0, sections=["costmodel"])
        section = outcome.payload["tune"]["sections"]["costmodel"]
        record = {
            "probes": section["probes"],
            "predict_error": section["predict_error"],
            "alpha": outcome.profile.alpha,
        }
        digest = _sha(json.dumps(record, sort_keys=True).encode())
        assert digest == PINNED_CALIBRATION_DIGESTS["tune"]


@pytest.mark.slow
def test_calibration_memory_budget():
    """Calibration's traced peak stays within 48 bytes per rating.

    tracemalloc counts numpy's allocations, so the bound is exact and
    independent of wall time.  The input itself (24 B/rating) is
    allocated before tracing starts and is not counted.
    """
    import tracemalloc

    matrix = _matrix_930k()
    platform = HeterogeneousTrainer("hsgd_star", HardwareConfig(), seed=1).platform
    tracemalloc.start()
    try:
        calibrate_platform(platform, matrix, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / matrix.nnz <= 48
