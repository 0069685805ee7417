"""Tests of the serial SGD reference and the ALS baseline."""

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.exceptions import ConfigurationError
from repro.sgd import train_als, train_serial_sgd
from repro.sgd.schedules import (
    ConstantSchedule,
    InverseTimeDecaySchedule,
    TwinLearnersSchedule,
)


@pytest.fixture(scope="module")
def training() -> TrainingConfig:
    return TrainingConfig(
        latent_factors=8,
        learning_rate=0.02,
        reg_p=0.05,
        reg_q=0.05,
        iterations=6,
        seed=0,
        init_scale=0.6,
    )


class TestSerialSGD:
    def test_converges_and_records_history(self, small_split, training):
        train, test = small_split
        model, history = train_serial_sgd(train, training, test=test)
        assert history.iterations == training.iterations
        assert history.train_rmse[-1] < history.train_rmse[0]
        assert history.final_test_rmse() is not None
        assert model.shape == train.shape

    def test_test_rmse_approaches_noise_floor(self, small_split, small_synthetic, training):
        train, test = small_split
        noise = small_synthetic[3].noise_std
        _, history = train_serial_sgd(
            train, training.with_iterations(12), test=test
        )
        assert history.final_test_rmse() < 2.5 * noise

    def test_exact_kernel_option(self, tiny_matrix):
        config = TrainingConfig(
            latent_factors=4, learning_rate=0.05, reg_p=0.01, reg_q=0.01,
            iterations=3, seed=0,
        )
        model, history = train_serial_sgd(tiny_matrix, config, exact=True)
        assert history.iterations == 3
        assert np.all(np.isfinite(model.p))

    def test_warm_start_continues_from_model(self, small_split, training):
        train, test = small_split
        model, history1 = train_serial_sgd(train, training, test=test)
        _, history2 = train_serial_sgd(
            train, training.with_iterations(2), test=test, model=model
        )
        assert history2.test_rmse[-1] <= history1.test_rmse[0]

    def test_schedule_is_recorded(self, small_split, training):
        train, _ = small_split
        schedule = InverseTimeDecaySchedule(0.05, decay=0.5)
        _, history = train_serial_sgd(train, training, schedule=schedule)
        assert history.learning_rates[0] > history.learning_rates[-1]

    def test_no_shuffle_is_deterministic(self, small_split, training):
        train, _ = small_split
        model_a, _ = train_serial_sgd(
            train, training, shuffle_each_iteration=False
        )
        model_b, _ = train_serial_sgd(
            train, training, shuffle_each_iteration=False
        )
        np.testing.assert_array_equal(model_a.p, model_b.p)


class TestSchedules:
    def test_constant(self):
        assert ConstantSchedule(0.01)(5) == 0.01

    def test_constant_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            ConstantSchedule(0.0)

    def test_inverse_time_decay_monotone(self):
        schedule = InverseTimeDecaySchedule(0.1, decay=0.2)
        rates = [schedule(i) for i in range(10)]
        assert rates == sorted(rates, reverse=True)
        assert rates[0] == pytest.approx(0.1)

    def test_twin_learners_monotone_and_slow_start(self):
        schedule = TwinLearnersSchedule(0.1, alpha=1.0, beta=0.1)
        rates = [schedule(i) for i in range(20)]
        assert rates == sorted(rates, reverse=True)
        # Decay accelerates: the late drop exceeds the early drop.
        assert (rates[0] - rates[1]) < (rates[10] - rates[11]) * 10

    def test_negative_iteration_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantSchedule(0.1)(-1)

    def test_repr(self):
        assert "0.01" in repr(ConstantSchedule(0.01))
        assert "decay" in repr(InverseTimeDecaySchedule(0.01))
        assert "alpha" in repr(TwinLearnersSchedule(0.01))


class TestALS:
    def test_converges_fast(self, small_split, training):
        train, test = small_split
        _, history = train_als(train, training.with_iterations(3), test=test)
        assert history.train_rmse[-1] < history.train_rmse[0]
        assert history.train_rmse[-1] < 0.5

    def test_monotone_training_loss(self, small_split, training):
        train, _ = small_split
        _, history = train_als(train, training.with_iterations(4))
        assert all(
            later <= earlier + 1e-6
            for earlier, later in zip(history.train_rmse, history.train_rmse[1:])
        )
