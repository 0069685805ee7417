"""SGD-based matrix-factorization substrate.

Implements the numerical core of the paper (Section II):

* :class:`~repro.sgd.model.FactorModel` — the dense factor matrices
  ``P (m×k)`` and ``Q (k×n)`` with random initialisation, prediction and
  (de)serialisation;
* :mod:`repro.sgd.kernels` — the kernel registry (selected by
  ``TrainingConfig(kernel=...)``): an exact per-rating reference kernel
  matching Algorithm 1, the block-major ``minibatch_local`` kernel that
  consumes band-local pre-gathered data, and its compiled, GIL-releasing
  twin ``native`` (within 1e-12; built and loaded lazily by
  :mod:`repro.sgd.native`, the ``"auto"`` choice wherever a C compiler
  exists); plus ``sgd_block_minibatch``, the vectorised mini-batch kernel
  over global indices that ``minibatch_local`` matches bit for bit;
* :mod:`repro.sgd.losses` — the regularised squared loss of Equation 2,
  RMSE and MAE;
* :mod:`repro.sgd.schedules` — learning-rate schedules, including the
  per-iteration decay schedule of Chin et al. (reference [43]) that the
  paper adopts for its parameter settings;
* :mod:`repro.sgd.foldin` — least-squares fold-in for streaming
  newcomers (one vectorised ridge solve against the fixed opposite
  factor matrix) and :func:`~repro.sgd.foldin.grow_model` for
  warm-start over a grown matrix;
* :mod:`repro.sgd.serial` — Algorithm 1, the single-threaded reference;
* :mod:`repro.sgd.als` — the alternating-least-squares baseline
  mentioned in Section III-C.
"""

from .model import FactorModel
from .foldin import fold_in_objective, grow_model, solve_fold_in
from .losses import (
    mae,
    pointwise_errors,
    regularized_loss,
    rmse,
    squared_error_sum,
)
from .kernels import (
    KERNEL_NAMES,
    KERNELS,
    get_kernel,
    resolve_kernel_name,
    sgd_block_minibatch,
    sgd_block_minibatch_local,
    sgd_block_native,
    sgd_block_sequential,
)
from .native import native_status
from .schedules import (
    ConstantSchedule,
    InverseTimeDecaySchedule,
    LearningRateSchedule,
    TwinLearnersSchedule,
)
from .serial import train_serial_sgd
from .als import train_als

__all__ = [
    "FactorModel",
    "fold_in_objective",
    "grow_model",
    "solve_fold_in",
    "mae",
    "pointwise_errors",
    "regularized_loss",
    "rmse",
    "squared_error_sum",
    "KERNEL_NAMES",
    "KERNELS",
    "get_kernel",
    "resolve_kernel_name",
    "sgd_block_minibatch",
    "sgd_block_minibatch_local",
    "sgd_block_native",
    "sgd_block_sequential",
    "native_status",
    "ConstantSchedule",
    "InverseTimeDecaySchedule",
    "LearningRateSchedule",
    "TwinLearnersSchedule",
    "train_serial_sgd",
    "train_als",
]
