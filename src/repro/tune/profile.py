"""The tuned profile: every ``"auto"`` tunable's on-machine answer.

``repro tune`` (see :mod:`repro.tune.probes`) fits the Section V cost
models against short on-machine probes and writes the resolved
configuration into a :class:`TunedProfile` — a small, versioned,
JSON-serializable record fingerprinted to the machine it was calibrated
on.  Loading a profile (``TunedProfile.load`` +
:func:`set_active_profile`, or ``--profile`` on the CLI) makes every
``"auto"`` tunable in the library resolve through it:

==========================  =========================================
tunable                      resolution point
==========================  =========================================
training ``backend``         :func:`repro.exec.registry.resolve_backend_name`
training ``workers``         :func:`resolve_workers` (CLI ``--workers auto``)
training ``batch_size``      :attr:`repro.config.TrainingConfig.effective_batch_size`
training ``kernel``          :func:`repro.sgd.kernels.resolve_kernel_name`
serving ``chunk_items``      :class:`repro.serve.Scorer` / ``RecommendationService`` / ``ServiceConfig``
serving ``batch_size``       :class:`repro.serve.RecommendationService` / ``ServiceConfig``
stream gram chunk            :func:`repro.sgd.foldin.solve_fold_in`
==========================  =========================================

**The no-profile fallback is the documented hand-picked default** in
every case (``DEFAULT_BATCH_SIZE``, ``DEFAULT_CHUNK_ITEMS``, the
``workers > 1`` backend heuristic, the fold-in gram-chunk constant), so
code that never loads a profile behaves bitwise-identically to the
pre-autotuning library — pinned by ``tests/test_tune.py``.  A loaded
profile changes speed; it changes results only through the training
kernel, and there only across the numpy/native line (within 1e-12) —
the serving and fold-in knobs are tiling choices with no numerical
effect.

The profile is process-global state (one machine, one profile), set
with :func:`set_active_profile` and scoped in tests with
:func:`use_profile`.  Every resolver also accepts an explicit
``profile=`` argument: passing ``None`` forces the no-profile path
regardless of global state.
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Union

from ..config import AUTO_TUNABLE, DEFAULT_BATCH_SIZE, KERNEL_NAMES
from ..exceptions import ConfigurationError

#: Version of the on-disk profile schema.  Bump on incompatible change;
#: ``TunedProfile.from_dict`` rejects mismatches rather than guessing.
PROFILE_SCHEMA_VERSION = 1

#: The sentinel every autotunable knob accepts (re-exported from
#: :mod:`repro.config`, the import-cycle-free home).
AUTO = AUTO_TUNABLE

#: Kernels a profile may pin for ``kernel="auto"``: the block-major
#: mini-batch kernels.  ``"native"`` agrees with the numpy
#: ``"minibatch_local"`` to 1e-12 (same batches, same update order; only
#: the dot product's summation order differs), so a profile changes
#: training *speed* and, across the numpy/native line, results in the
#: last bits only.  A profile naming ``"native"`` on a machine where it does not
#: load demotes to ``"minibatch_local"``
#: (:func:`repro.sgd.kernels.resolve_kernel_name`), like an illegal
#: ``"processes"`` pick demotes to ``"threads"``.  The ``"sequential"``
#: reference kernel is a numerical contract, not a performance choice,
#: and stays reachable only by explicit request.
_CONCRETE_KERNELS = tuple(
    name for name in KERNEL_NAMES if name not in (AUTO, "sequential")
)


def _require_positive_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return value


def _require_finite(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return value


@dataclass(frozen=True)
class TrainingTunables:
    """Resolved training-side knobs.

    Defaults mirror the library's hand-picked values so a
    default-constructed profile is behaviour-neutral (``"native"``
    demotes to ``"minibatch_local"`` where it does not load, exactly as
    the no-profile ``"auto"`` does).
    """

    backend: str = "threads"
    workers: int = 1
    batch_size: int = DEFAULT_BATCH_SIZE
    kernel: str = "native"

    def __post_init__(self) -> None:
        if not self.backend or not isinstance(self.backend, str) or self.backend == AUTO:
            raise ConfigurationError(
                f"profile backend must be a concrete backend name, got {self.backend!r}"
            )
        _require_positive_int(self.workers, "profile workers")
        _require_positive_int(self.batch_size, "profile batch_size")
        if self.kernel not in _CONCRETE_KERNELS:
            raise ConfigurationError(
                f"profile kernel must be one of {_CONCRETE_KERNELS}, got {self.kernel!r}"
            )


@dataclass(frozen=True)
class ServingTunables:
    """Resolved serving-side knobs (chunk-GEMM tile and coalescing batch)."""

    chunk_items: int = 8192
    batch_size: int = 64

    def __post_init__(self) -> None:
        _require_positive_int(self.chunk_items, "profile chunk_items")
        _require_positive_int(self.batch_size, "profile serving batch_size")


@dataclass(frozen=True)
class StreamTunables:
    """Resolved streaming-side knobs (fold-in solver shapes)."""

    gram_chunk_elements: int = 2_000_000
    foldin_batch_users: int = 512

    def __post_init__(self) -> None:
        _require_positive_int(self.gram_chunk_elements, "profile gram_chunk_elements")
        _require_positive_int(self.foldin_batch_users, "profile foldin_batch_users")


@dataclass(frozen=True)
class TunedProfile:
    """One machine's calibrated answer to every ``"auto"`` tunable.

    Attributes
    ----------
    schema_version:
        On-disk format version (:data:`PROFILE_SCHEMA_VERSION`).
    fingerprint:
        :func:`repro.hardware.machine_fingerprint` of the calibrating
        host; consumers compare with
        :func:`repro.hardware.fingerprint_matches`.
    quick:
        Whether the profile came from the reduced ``--quick`` probe set.
    created_unix:
        Calibration wall-clock time (unix seconds), ``None`` for
        hand-built profiles.
    training, serving, stream:
        The resolved knobs per subsystem.
    predict_error:
        Per-probe-section mean relative prediction error of the fitted
        cost models (``|predicted - measured| / measured``), the
        self-validation signal ``BENCH_tune.json`` gates in CI.
    alpha:
        The calibrated GPU workload share from the simulated-platform
        calibration (informational; CPU-only hosts train at alpha 0).
    """

    schema_version: int = PROFILE_SCHEMA_VERSION
    fingerprint: Dict[str, Any] = field(default_factory=dict)
    quick: bool = False
    created_unix: Optional[float] = None
    training: TrainingTunables = field(default_factory=TrainingTunables)
    serving: ServingTunables = field(default_factory=ServingTunables)
    stream: StreamTunables = field(default_factory=StreamTunables)
    predict_error: Dict[str, float] = field(default_factory=dict)
    alpha: Optional[float] = None

    def __post_init__(self) -> None:
        if self.schema_version != PROFILE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported profile schema version {self.schema_version!r} "
                f"(this library reads version {PROFILE_SCHEMA_VERSION})"
            )
        if not isinstance(self.fingerprint, dict):
            raise ConfigurationError(f"profile fingerprint must be an object, got {self.fingerprint!r}")
        if not isinstance(self.quick, bool):
            raise ConfigurationError(f"profile quick must be a boolean, got {self.quick!r}")
        if self.created_unix is not None:
            _require_finite(self.created_unix, "profile created_unix")
        if not isinstance(self.predict_error, dict):
            raise ConfigurationError(f"profile predict_error must be an object, got {self.predict_error!r}")
        for section, error in self.predict_error.items():
            _require_finite(error, f"profile predict_error[{section!r}]")
        if self.alpha is not None and not 0.0 <= _require_finite(self.alpha, "profile alpha") <= 1.0:
            raise ConfigurationError(f"profile alpha must lie in [0, 1], got {self.alpha!r}")

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def resolve_backend(self, n_workers: Optional[int] = None) -> str:
        """The backend this profile picks for a run of ``n_workers``.

        The profile's choice is still sanity-bounded by the same
        platform facts the no-profile heuristic checks: ``"processes"``
        demotes to ``"threads"`` for single-worker runs and on platforms
        without shared-memory multiprocessing — so a profile calibrated
        on a big machine still resolves to a *legal* configuration on a
        1-core container.
        """
        choice = self.training.backend
        if choice != "processes":
            return choice
        workers = n_workers if n_workers is not None else self.training.workers
        from ..exec.process import process_backend_supported

        if workers > 1 and process_backend_supported():
            return "processes"
        return "threads"

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (round-trips through ``from_dict``)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TunedProfile":
        """Rebuild a profile from :meth:`to_dict` output, validating it."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"profile payload must be a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"profile carries unknown fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        data = dict(payload)
        try:
            if "training" in data:
                data["training"] = TrainingTunables(**data["training"])
            if "serving" in data:
                data["serving"] = ServingTunables(**data["serving"])
            if "stream" in data:
                data["stream"] = StreamTunables(**data["stream"])
            return cls(**data)
        except TypeError as exc:
            raise ConfigurationError(f"malformed profile: {exc}") from None

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def loads(cls, text: str) -> "TunedProfile":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"profile is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    def dump(self, path) -> None:
        """Write the profile as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(self.dumps())

    @classmethod
    def load(cls, path) -> "TunedProfile":
        """Read a profile written by :meth:`dump`."""
        with open(path, encoding="utf-8") as stream:
            return cls.loads(stream.read())


# ------------------------------------------------------------------ #
# The active profile (process-global)
# ------------------------------------------------------------------ #
_ACTIVE_PROFILE: Optional[TunedProfile] = None

#: Sentinel distinguishing "caller did not pass a profile — consult the
#: active one" from an explicit ``profile=None`` ("force the no-profile
#: fallback").
_UNSET = object()


def set_active_profile(profile: Optional[TunedProfile]) -> None:
    """Install ``profile`` as the process-wide default (``None`` clears)."""
    global _ACTIVE_PROFILE
    if profile is not None and not isinstance(profile, TunedProfile):
        raise ConfigurationError(
            f"expected a TunedProfile or None, got {type(profile).__name__}"
        )
    _ACTIVE_PROFILE = profile


def active_profile() -> Optional[TunedProfile]:
    """The currently installed profile, or ``None``."""
    return _ACTIVE_PROFILE


@contextmanager
def use_profile(profile: Optional[TunedProfile]) -> Iterator[Optional[TunedProfile]]:
    """Scope ``profile`` as the active one, restoring the previous on exit."""
    previous = _ACTIVE_PROFILE
    set_active_profile(profile)
    try:
        yield profile
    finally:
        set_active_profile(previous)


def _effective(profile) -> Optional[TunedProfile]:
    return _ACTIVE_PROFILE if profile is _UNSET else profile


def _resolve_auto_int(
    value: Union[int, str, None],
    name: str,
    default: int,
    picker: Callable[[TunedProfile], int],
    profile,
) -> int:
    """Shared ``"auto"``-knob resolution: profile value or documented default."""
    if isinstance(value, str):
        if value != AUTO:
            raise ConfigurationError(
                f"{name} must be a positive integer or {AUTO!r}, got {value!r}"
            )
        resolved = _effective(profile)
        if resolved is not None:
            return picker(resolved)
        return default
    if value is None:
        return default
    return int(value)


# ------------------------------------------------------------------ #
# Per-knob resolvers (the library's "auto" plumbing calls these)
# ------------------------------------------------------------------ #
def resolve_training_batch_size(
    value: Union[int, str, None], profile=_UNSET
) -> int:
    """``"auto"``/``None`` -> profile (or :data:`DEFAULT_BATCH_SIZE`); ints pass."""
    return _resolve_auto_int(
        value,
        "batch_size",
        DEFAULT_BATCH_SIZE,
        lambda p: p.training.batch_size,
        profile,
    )


def resolve_workers(
    value: Union[int, str, None], default: int, profile=_UNSET
) -> int:
    """``"auto"`` -> the profile's worker count (or ``default``); ints pass."""
    return _resolve_auto_int(
        value, "workers", default, lambda p: p.training.workers, profile
    )


def resolve_serving_chunk_items(
    value: Union[int, str], default: int, profile=_UNSET
) -> int:
    """``"auto"`` -> the profile's chunk-GEMM tile (or ``default``); ints pass."""
    return _resolve_auto_int(
        value, "chunk_items", default, lambda p: p.serving.chunk_items, profile
    )


def resolve_serving_batch_size(
    value: Union[int, str], default: int, profile=_UNSET
) -> int:
    """``"auto"`` -> the profile's coalescing batch (or ``default``); ints pass."""
    return _resolve_auto_int(
        value, "batch_size", default, lambda p: p.serving.batch_size, profile
    )


def resolve_foldin_gram_chunk(default: int, profile=_UNSET) -> int:
    """The fold-in solver's Gram-stack element ceiling.

    There is no ``"auto"`` literal here — the knob is a module constant,
    not a user argument — so the profile simply overrides the default
    when one is active and the default passes through untouched when not
    (the bitwise-pinned no-profile path).
    """
    resolved = _effective(profile)
    if resolved is not None:
        return resolved.stream.gram_chunk_elements
    return default


def resolve_foldin_batch_users(default: int, profile=_UNSET) -> int:
    """The newcomer-batch size ingestion should coalesce fold-ins to."""
    resolved = _effective(profile)
    if resolved is not None:
        return resolved.stream.foldin_batch_users
    return default


def profile_kernel(profile=_UNSET) -> Optional[str]:
    """The profile's concrete kernel for ``kernel="auto"``, else ``None``.

    ``None`` tells :func:`repro.sgd.kernels.resolve_kernel_name` to use
    its built-in default (``"native"`` where it loads, else
    ``"minibatch_local"``) — the pinned no-profile behaviour.
    """
    resolved = _effective(profile)
    if resolved is not None:
        return resolved.training.kernel
    return None
