"""Shared fixtures for the test suite.

The fixtures keep the expensive objects (synthetic matrices, platforms,
calibrations, short training runs) module- or session-scoped so the suite
stays fast while still exercising the real code paths end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import HardwareConfig, TrainingConfig
from repro.costmodel import calibrate_platform
from repro.datasets import SyntheticConfig, generate_synthetic_matrix, holdout_split
from repro.hardware import HeterogeneousPlatform, paper_machine_preset
from repro.sparse import SparseRatingMatrix


@pytest.fixture
def no_native_kernel(monkeypatch):
    """Force the no-compiler fallback: ``"auto"`` resolves to ``"minibatch_local"``.

    What a machine without a C compiler sees — the pre-native default,
    under which every bitwise ``auto`` == ``minibatch_local`` pin (and the
    engine digest pins of ``tests/test_kernel_registry.py``) must hold.
    """
    from repro.sgd import native

    reason = "disabled by the no_native_kernel test fixture"
    monkeypatch.setattr(native, "_state", (None, reason))
    return reason


def _grid_from_bounds(matrix, row_bounds, col_bounds):
    """A grid of shared blocks over explicit row and column boundaries."""
    from repro.core.grid import BlockGrid, Region, RowBand

    bands = [
        RowBand(index=i, row_range=(int(start), int(stop)), region=Region.SHARED)
        for i, (start, stop) in enumerate(zip(row_bounds[:-1], row_bounds[1:]))
    ]
    return BlockGrid.build(matrix, bands, col_bounds)


@pytest.fixture(scope="session")
def grid_from_bounds():
    """``(matrix, row_bounds, col_bounds) -> BlockGrid`` of shared blocks."""
    return _grid_from_bounds


@pytest.fixture(scope="session")
def tiny_matrix() -> SparseRatingMatrix:
    """A 6x5 hand-written rating matrix used by exact-value tests."""
    triples = [
        (0, 0, 5.0), (0, 2, 3.0), (0, 4, 1.0),
        (1, 1, 4.0), (1, 3, 2.0),
        (2, 0, 3.5), (2, 2, 4.5),
        (3, 1, 2.5), (3, 4, 5.0),
        (4, 0, 1.5), (4, 3, 3.0),
        (5, 2, 2.0), (5, 4, 4.0),
    ]
    return SparseRatingMatrix.from_triples(triples, shape=(6, 5))


@pytest.fixture(scope="session")
def small_synthetic():
    """A small synthetic dataset (3 000 ratings) with its ground truth."""
    config = SyntheticConfig(
        n_rows=300,
        n_cols=200,
        n_ratings=3_000,
        rank=4,
        rating_min=1.0,
        rating_max=5.0,
        noise_std=0.3,
        seed=7,
    )
    matrix, true_p, true_q = generate_synthetic_matrix(config)
    return matrix, true_p, true_q, config


@pytest.fixture(scope="session")
def small_matrix(small_synthetic) -> SparseRatingMatrix:
    """The rating matrix of :func:`small_synthetic`."""
    return small_synthetic[0]


@pytest.fixture(scope="session")
def small_split(small_matrix):
    """An 85/15 train/test split of the small synthetic matrix."""
    return holdout_split(small_matrix, test_fraction=0.15, seed=3)


@pytest.fixture(scope="session")
def small_training() -> TrainingConfig:
    """A small, fast training configuration."""
    return TrainingConfig(
        latent_factors=8,
        learning_rate=0.01,
        reg_p=0.05,
        reg_q=0.05,
        iterations=5,
        seed=0,
        init_scale=0.6,
    )


@pytest.fixture(scope="session")
def small_hardware() -> HardwareConfig:
    """A small heterogeneous machine: 4 CPU threads and 1 GPU."""
    return HardwareConfig(cpu_threads=4, gpu_count=1, gpu_parallel_workers=128)


@pytest.fixture(scope="session")
def scaled_preset():
    """The paper machine scaled to the test datasets' size."""
    return paper_machine_preset().scaled(1e-3)


@pytest.fixture(scope="session")
def small_platform(small_hardware, scaled_preset) -> HeterogeneousPlatform:
    """A simulated platform for the small hardware configuration."""
    return HeterogeneousPlatform.from_preset(small_hardware, scaled_preset)


@pytest.fixture(scope="session")
def small_calibration(small_platform, small_matrix, small_training):
    """Cost models calibrated on the small platform and matrix."""
    return calibrate_platform(
        small_platform, small_matrix, training=small_training, segments=8
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(12345)
