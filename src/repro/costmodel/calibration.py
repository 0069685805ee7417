"""Offline calibration of the cost models (Algorithm 3 of the paper).

The calibration phase runs once per machine.  It

1. shuffles the input matrix and describes its cumulative prefixes
   ``S_1, S_1+S_2, ..., S_1+...+S_N`` (data preparation, Section V-A).
   A probe reads only a prefix's *counts* — ratings, distinct rows,
   distinct cols — so one pass over the shuffled order yields every
   prefix's :class:`BlockWork` and no prefix matrix is ever built;
2. measures single-CPU-thread execution time on every prefix and fits the
   linear CPU model;
3. measures PCIe copy times over a range of transfer sizes and fits the
   piecewise transfer models (both directions);
4. measures GPU kernel execution time on every prefix and fits the
   piecewise kernel model;
5. combines transfer and kernel into the overall GPU model (Equation 9).

For the Qilin baseline the same probes are reused, but the GPU model is a
single straight line fitted on *end-to-end* GPU times (transfer and kernel
combined), which is exactly how Qilin profiles offloaded tasks.

The calibration only interacts with devices through their ``measure_*``
methods, so it works identically against the simulated hardware used here
and against real hardware wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..config import TrainingConfig
from ..exceptions import CalibrationError
from ..hardware import BlockWork, HeterogeneousPlatform
from ..sparse import SparseRatingMatrix
from .cpu_model import CPUCostModel
from .gpu_model import GPUCostModel, KernelCostModel, TransferCostModel
from .qilin import QilinCostModel, QilinDeviceModel

#: Default number of cumulative prefixes used for device probing.
DEFAULT_SEGMENTS = 12

#: Default number of repeated measurements averaged per probe ("to
#: eliminate noise, the execution time in the training data is derived
#: from the average of multiple tests").
DEFAULT_REPEATS = 3

#: Transfer probe sizes, spanning the 64 KB - 256 MB range of Figure 6.
DEFAULT_TRANSFER_SIZES = tuple(
    int(64 * 1024 * (2 ** i)) for i in range(13)  # 64 KB ... 256 MB
)


def geometric_prefix_sizes(
    total_points: int, segments: int, minimum: int = 64
) -> List[int]:
    """Geometrically spaced workload sizes from ``minimum`` up to ``total_points``.

    The CPU model is linear, so the paper's equal-width cumulative
    prefixes suffice for it.  The GPU models are *not* linear precisely in
    the small-block regime (Observation 1), so the GPU probes must cover
    small workloads comparable to the blocks the division will actually
    produce; a geometric ladder does that with the same number of
    measurements.
    """
    if total_points <= 0:
        raise CalibrationError(f"total_points must be positive, got {total_points}")
    if segments < 2:
        raise CalibrationError(f"segments must be at least 2, got {segments}")
    minimum = max(2, min(minimum, total_points))
    sizes = np.geomspace(minimum, total_points, num=segments).round().astype(int)
    return sorted({int(size) for size in sizes})


@dataclass(frozen=True)
class CalibrationProbe:
    """One measured calibration point."""

    points: int
    seconds: float

    @property
    def speed(self) -> float:
        """Measured throughput (ratings or bytes per second)."""
        if self.seconds <= 0:
            return 0.0
        return self.points / self.seconds


@dataclass
class CalibrationResult:
    """Everything produced by the offline phase.

    Attributes
    ----------
    cpu_model:
        The paper's linear single-thread CPU model.
    gpu_model:
        The paper's combined GPU model (Equation 9).
    qilin_model:
        The Qilin baseline (linear CPU and linear end-to-end GPU).
    cpu_probes, gpu_kernel_probes, gpu_total_probes:
        Raw measurements, kept for inspection and for the observation
        benchmarks.
    transfer_probes_h2d, transfer_probes_d2h:
        Raw transfer measurements ``(bytes, seconds)``.
    """

    cpu_model: CPUCostModel
    gpu_model: Optional[GPUCostModel]
    qilin_model: Optional[QilinCostModel]
    cpu_probes: List[CalibrationProbe] = field(default_factory=list)
    gpu_kernel_probes: List[CalibrationProbe] = field(default_factory=list)
    gpu_total_probes: List[CalibrationProbe] = field(default_factory=list)
    transfer_probes_h2d: List[CalibrationProbe] = field(default_factory=list)
    transfer_probes_d2h: List[CalibrationProbe] = field(default_factory=list)

    def gpu_time_for_points(self, points: float, cost_model: str = "paper") -> float:
        """Predicted one-GPU time under the selected cost model."""
        if cost_model == "paper":
            if self.gpu_model is None:
                raise CalibrationError("no GPU was calibrated")
            return self.gpu_model.time_for_points(points)
        if cost_model == "qilin":
            if self.qilin_model is None:
                raise CalibrationError("no GPU was calibrated")
            return self.qilin_model.gpu_time_for_points(points)
        raise CalibrationError(f"unknown cost model {cost_model!r}")

    def cpu_time_for_points(self, points: float, cost_model: str = "paper") -> float:
        """Predicted one-CPU-thread time under the selected cost model."""
        if cost_model == "paper":
            return self.cpu_model.time_for_points(points)
        if cost_model == "qilin":
            if self.qilin_model is None:
                # Qilin's CPU model is linear too, so fall back gracefully.
                return self.cpu_model.time_for_points(points)
            return self.qilin_model.cpu_time_for_points(points)
        raise CalibrationError(f"unknown cost model {cost_model!r}")


# --------------------------------------------------------------------------- #
# Individual probes (the test_* routines of Algorithm 3)
# --------------------------------------------------------------------------- #
def _shuffled_prefix_works(
    matrix: SparseRatingMatrix,
    sizes: Sequence[int],
    latent_factors: int,
    seed: int,
) -> List[BlockWork]:
    """Describe the leading ``sizes`` ratings of ``matrix.shuffled(seed)``.

    Every prefix is a leading slice of one shuffled order, so an index
    appears in prefix ``k`` exactly when its first occurrence in that
    order lies before ``k``.  One scatter of each rating's shuffled
    position gives every row's and column's first occurrence; a prefix's
    distinct count is then a ``searchsorted`` of ``k`` into them.
    """
    nnz = matrix.nnz
    perm = np.random.default_rng(seed).permutation(nnz)
    position = np.empty_like(perm)
    position[perm] = np.arange(nnz)

    def first_seen(index: np.ndarray, extent: int) -> np.ndarray:
        first = np.full(extent, nnz, dtype=position.dtype)
        np.minimum.at(first, index, position)
        return np.sort(first)

    first_row = first_seen(matrix.rows, matrix.n_rows)
    first_col = first_seen(matrix.cols, matrix.n_cols)
    return [
        BlockWork(
            nnz=int(size),
            p_rows=int(np.searchsorted(first_row, size)),
            q_cols=int(np.searchsorted(first_col, size)),
            latent_factors=latent_factors,
        )
        for size in sizes
    ]


def _probe_works(
    measure: Callable[[BlockWork], float],
    works: Sequence[BlockWork],
    repeats: int,
) -> List[CalibrationProbe]:
    """Average ``repeats`` measurements of every work, in order."""
    if repeats <= 0:
        raise CalibrationError(f"repeats must be positive, got {repeats}")
    return [
        CalibrationProbe(
            points=work.nnz,
            seconds=float(np.mean([measure(work) for _ in range(repeats)])),
        )
        for work in works
    ]


def probe_cpu_kernel(
    platform: HeterogeneousPlatform,
    works: Sequence[BlockWork],
    repeats: int = DEFAULT_REPEATS,
) -> List[CalibrationProbe]:
    """Measure single-thread CPU time on every calibration prefix."""
    device = platform.representative_cpu()
    return _probe_works(device.measure_process_time, works, repeats)


def probe_gpu_kernel(
    platform: HeterogeneousPlatform,
    works: Sequence[BlockWork],
    repeats: int = DEFAULT_REPEATS,
) -> List[CalibrationProbe]:
    """Measure GPU kernel-only time on every calibration prefix."""
    device = platform.representative_gpu()
    return _probe_works(device.kernel_time, works, repeats)


def probe_gpu_total(
    platform: HeterogeneousPlatform,
    works: Sequence[BlockWork],
    repeats: int = DEFAULT_REPEATS,
) -> List[CalibrationProbe]:
    """Measure end-to-end GPU time (transfer + kernel, overlapped) per prefix.

    These are the measurements a Qilin-style profiler would record.
    """
    device = platform.representative_gpu()
    return _probe_works(device.measure_process_time, works, repeats)


def probe_transfer_link(
    platform: HeterogeneousPlatform,
    sizes_bytes: Sequence[int] = DEFAULT_TRANSFER_SIZES,
    direction: str = "h2d",
) -> List[CalibrationProbe]:
    """Measure PCIe copy time for a sweep of transfer sizes (Figure 6)."""
    device = platform.representative_gpu()
    probes = []
    for size in sizes_bytes:
        if size <= 0:
            raise CalibrationError(f"transfer sizes must be positive, got {size}")
        if direction == "h2d":
            seconds = device.pcie.host_to_device_time(size)
        elif direction == "d2h":
            seconds = device.pcie.device_to_host_time(size)
        else:
            raise CalibrationError(f"unknown transfer direction {direction!r}")
        probes.append(CalibrationProbe(points=int(size), seconds=seconds))
    return probes


# --------------------------------------------------------------------------- #
# The full offline phase
# --------------------------------------------------------------------------- #
def calibrate_platform(
    platform: HeterogeneousPlatform,
    matrix: SparseRatingMatrix,
    training: Optional[TrainingConfig] = None,
    segments: int = DEFAULT_SEGMENTS,
    repeats: int = DEFAULT_REPEATS,
    sample_fraction: float = 1.0,
    seed: int = 0,
) -> CalibrationResult:
    """Run the full offline calibration (Algorithm 3).

    Parameters
    ----------
    platform:
        The machine to calibrate.
    matrix:
        The rating matrix (or any representative matrix); a shuffled
        sample of it provides the calibration workloads.
    training:
        Training configuration; only ``latent_factors`` matters (it sets
        the factor-segment transfer sizes).
    segments:
        Number of cumulative prefixes ``N``.
    repeats:
        Measurements averaged per probe.
    sample_fraction:
        Fraction of the matrix used for calibration; values below 1 keep
        the offline phase cheap for very large matrices.
    seed:
        Seed of the shuffle and sampling.

    Returns
    -------
    CalibrationResult
    """
    training = training or TrainingConfig()
    sample = matrix if sample_fraction >= 1.0 else matrix.sample(sample_fraction, seed)
    if not 0 < segments <= sample.nnz:
        raise CalibrationError(
            f"cannot split {sample.nnz} ratings into {segments} segments"
        )
    # The paper's equal-width cumulative prefixes, plus the geometric GPU
    # ladder: GPU behaviour is non-linear exactly on small workloads (see
    # geometric_prefix_sizes).
    linear_sizes = np.linspace(0, sample.nnz, segments + 1).round().astype(int)[1:]
    gpu_sizes = geometric_prefix_sizes(sample.nnz, max(segments, 8))
    works = _shuffled_prefix_works(
        sample, [*linear_sizes, *gpu_sizes], training.latent_factors, seed
    )
    prefix_works, gpu_works = works[:segments], works[segments:]

    cpu_probes = probe_cpu_kernel(platform, prefix_works, repeats)
    cpu_model = CPUCostModel.fit(
        [probe.points for probe in cpu_probes],
        [probe.seconds for probe in cpu_probes],
    )

    gpu_model = None
    qilin_model = None
    gpu_kernel_probes: List[CalibrationProbe] = []
    gpu_total_probes: List[CalibrationProbe] = []
    h2d_probes: List[CalibrationProbe] = []
    d2h_probes: List[CalibrationProbe] = []

    if platform.n_gpus > 0:
        h2d_probes = probe_transfer_link(platform, direction="h2d")
        d2h_probes = probe_transfer_link(platform, direction="d2h")
        gpu_kernel_probes = probe_gpu_kernel(platform, gpu_works, repeats)
        # The Qilin baseline profiles end-to-end offloaded tasks on the
        # *linearly* spaced subparts, exactly as Qilin does; its linear fit
        # therefore reflects large-workload throughput, which is the
        # inaccuracy on small blocks the paper's Table II demonstrates.
        gpu_total_probes = probe_gpu_total(platform, prefix_works, repeats)

        host_to_device = TransferCostModel.fit(
            [probe.points for probe in h2d_probes],
            [probe.seconds for probe in h2d_probes],
        )
        device_to_host = TransferCostModel.fit(
            [probe.points for probe in d2h_probes],
            [probe.seconds for probe in d2h_probes],
        )
        kernel = KernelCostModel.fit(
            [probe.points for probe in gpu_kernel_probes],
            [probe.seconds for probe in gpu_kernel_probes],
        )
        bytes_per_point = float(
            np.mean([w.host_to_device_bytes / max(1, w.nnz) for w in gpu_works])
        )
        gpu_model = GPUCostModel(
            kernel=kernel,
            host_to_device=host_to_device,
            device_to_host=device_to_host,
            bytes_per_point=bytes_per_point,
        )

        qilin_cpu = QilinDeviceModel.fit(
            [probe.points for probe in cpu_probes],
            [probe.seconds for probe in cpu_probes],
        )
        qilin_gpu = QilinDeviceModel.fit(
            [probe.points for probe in gpu_total_probes],
            [probe.seconds for probe in gpu_total_probes],
        )
        qilin_model = QilinCostModel(cpu=qilin_cpu, gpu=qilin_gpu)

    return CalibrationResult(
        cpu_model=cpu_model,
        gpu_model=gpu_model,
        qilin_model=qilin_model,
        cpu_probes=cpu_probes,
        gpu_kernel_probes=gpu_kernel_probes,
        gpu_total_probes=gpu_total_probes,
        transfer_probes_h2d=h2d_probes,
        transfer_probes_d2h=d2h_probes,
    )
