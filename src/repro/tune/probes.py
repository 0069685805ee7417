"""The ``repro tune`` measurement probes: fit the cost models, pick the knobs.

This module is the *online* half of the autotuning loop.  The
:mod:`repro.costmodel` package defines how to fit per-machine cost
models (Algorithm 3 calibration, linear Qilin-style projection); the
probes here actually run short workloads on the current machine, fit
those models, validate them against held-out measurements
(``predict_error = |predicted - measured| / measured``, the
self-validation signal from the calibration literature), and resolve
every ``"auto"`` tunable into a :class:`~repro.tune.profile.TunedProfile`.

Five probe sections, one per tunable family:

``costmodel``
    :func:`~repro.costmodel.calibrate_platform` over geometric prefixes
    of a synthetic workload on the simulated paper machine, validated on
    a fresh ladder of held-out prefix sizes, plus the Equation 7/8
    workload split ``alpha``.  Deterministic up to the simulated
    measurement noise, so its error budget is tight.
``train_batch``
    Wall-clock :func:`~repro.sgd.kernels.sgd_block_minibatch` sweeps per
    mini-batch candidate over geometric data prefixes; a linear CPU cost
    model is fitted on all but the largest prefix and judged on the
    largest.  Also times the ``minibatch_local`` and — where it loads —
    ``native`` kernels to pin the faster one.
``backend``
    Small end-to-end :func:`~repro.core.factorize` runs per execution
    backend and worker count.  The "prediction" is the naive linear
    scaling ``t_1 / workers`` — deliberately report-only (``gated:
    false``): its misprediction on GIL-bound threads is the Table II
    story this repo reproduces, not a regression.
``serve_chunk``
    :func:`~repro.serve.bench.measure_chunked` over growing user pools
    per ``(batch_size, chunk_items)`` candidate; linear fit on the small
    pools, judged on the largest.
``foldin``
    :meth:`~repro.sgd.model.FactorModel.fold_in_users` over growing
    rating batches per Gram-chunk candidate (scoped with
    :func:`~repro.tune.profile.use_profile` so the solver actually uses
    the candidate), same fit-and-holdout scheme.

**Resolution rule** (the acceptance guarantee): every section picks the
candidate with the lowest *predicted* full-size time, then falls back to
the hand-picked default if the default *measured* faster — so a profile
can never resolve a knob to something measured slower than the default
it replaces.  ``BENCH_tune.json`` records this per section under
``acceptance`` and CI blocks on ``acceptance.met``.

Every probe is sized to finish in seconds (CI runs ``--quick`` on a
shared 2-core runner); the point is fitting *shapes*, not saturating
hardware.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import DEFAULT_BATCH_SIZE, HardwareConfig, TrainingConfig
from ..costmodel import (
    CPUCostModel,
    calibrate_platform,
    fit_linear,
    geometric_prefix_sizes,
    probe_cpu_kernel,
    probe_gpu_kernel,
    solve_alpha,
)
from ..costmodel.calibration import _shuffled_prefix_works
from ..datasets import SyntheticConfig, generate_synthetic_matrix
from ..hardware import (
    HeterogeneousPlatform,
    machine_fingerprint,
    paper_machine_preset,
    usable_cores,
)
from ..serve.bench import measure_chunked, synthetic_model
from ..serve.scorer import DEFAULT_CHUNK_ITEMS
from ..serve.service import DEFAULT_SERVICE_BATCH
from ..sgd.foldin import _GRAM_CHUNK_ELEMENTS
from ..sgd.kernels import (
    resolve_kernel_name,
    sgd_block_minibatch,
    sgd_block_minibatch_local,
    sgd_block_native,
)
from ..sgd.native import native_status
from .profile import (
    PROFILE_SCHEMA_VERSION,
    ServingTunables,
    StreamTunables,
    TrainingTunables,
    TunedProfile,
    use_profile,
)

#: Default fold-in newcomer-batch size (mirrors the ingestion layer's
#: hand-picked coalescing target).
DEFAULT_FOLDIN_BATCH_USERS = 512

#: Per-section mean-relative-error budgets written into the payload and
#: enforced by ``check_perf_regression.py``.  The ``costmodel`` section
#: runs against simulated devices (noise is a preset constant), so its
#: budget is tight; the wall-clock sections run on whatever noisy shared
#: runner CI landed on, so theirs are deliberately loose — they catch
#: "the model is nonsense", not "the runner was busy".
ERROR_BUDGETS = {
    "costmodel": 0.35,
    "train_batch": 0.75,
    "serve_chunk": 0.75,
    "foldin": 0.75,
}

#: Sections whose predict_error CI blocks on; ``backend`` is report-only.
GATED_SECTIONS = tuple(sorted(ERROR_BUDGETS))


@dataclass(frozen=True)
class TuneOutcome:
    """Everything ``repro tune`` produces.

    Attributes
    ----------
    profile:
        The resolved :class:`TunedProfile`, ready to ``dump()``.
    payload:
        The ``BENCH_tune.json`` document: per-section probe records
        (predicted vs measured per configuration), the resolved and
        default knob values, and the acceptance verdict.
    """

    profile: TunedProfile
    payload: Dict[str, Any]


def _relative_error(predicted: float, measured: float) -> float:
    return abs(predicted - measured) / max(measured, 1e-12)


def _best_of(fn: Callable[[], float], repeats: int) -> float:
    """Best-of-``repeats`` timing — the standard noise floor estimator."""
    return min(fn() for _ in range(max(1, repeats)))


def _probe_record(
    config: Dict[str, Any], predicted_s: float, measured_s: float
) -> Dict[str, Any]:
    return {
        "config": config,
        "predicted_s": float(predicted_s),
        "measured_s": float(measured_s),
        "predict_error": _relative_error(predicted_s, measured_s),
    }


def _section(
    name: str, probes: List[Dict[str, Any]], gated: bool
) -> Dict[str, Any]:
    errors = [p["predict_error"] for p in probes if p["predicted_s"] > 0]
    return {
        "gated": gated,
        "error_budget": ERROR_BUDGETS.get(name),
        "predict_error": float(np.mean(errors)) if errors else 0.0,
        "probes": probes,
    }


def _synthetic_matrix(n_rows: int, n_cols: int, n_ratings: int, seed: int):
    matrix, _, _ = generate_synthetic_matrix(
        SyntheticConfig(
            n_rows=n_rows, n_cols=n_cols, n_ratings=n_ratings, rank=8, seed=seed
        )
    )
    return matrix


# --------------------------------------------------------------------------- #
# Section 1: the Section V cost models on the simulated platform
# --------------------------------------------------------------------------- #
def probe_cost_models(
    quick: bool, seed: int
) -> Tuple[Dict[str, Any], Optional[float]]:
    """Calibrate the paper's cost models and validate them out-of-sample.

    Returns the section report and the calibrated workload split
    ``alpha`` (Equations 7-8) for the profile's informational field.
    """
    n_ratings = 20_000 if quick else 60_000
    matrix = _synthetic_matrix(800, 600, n_ratings, seed)
    training = TrainingConfig()
    platform = HeterogeneousPlatform.from_preset(
        HardwareConfig(cpu_threads=2, gpu_count=1),
        preset=paper_machine_preset(measurement_noise=0.02),
    )
    result = calibrate_platform(
        platform,
        matrix,
        training=training,
        segments=6 if quick else 10,
        repeats=2,
    )
    # Out-of-sample ladder: a *different* geometric ladder (offset
    # segment count) re-measured fresh, so the noise draws differ from
    # the fitting set even where sizes coincide.
    holdout_sizes = geometric_prefix_sizes(matrix.nnz, 5, minimum=512)
    holdout = _shuffled_prefix_works(
        matrix, holdout_sizes, training.latent_factors, seed + 1
    )
    cpu_measredo = probe_cpu_kernel(platform, holdout, 2)
    gpu_measredo = probe_gpu_kernel(platform, holdout, 2)

    probes = []
    for probe in cpu_measredo:
        probes.append(
            _probe_record(
                {"device": "cpu", "points": probe.points},
                result.cpu_time_for_points(probe.points),
                probe.seconds,
            )
        )
    for probe in gpu_measredo:
        probes.append(
            _probe_record(
                {"device": "gpu_kernel", "points": probe.points},
                result.gpu_model.kernel.time_for_points(probe.points),
                probe.seconds,
            )
        )
    split = solve_alpha(
        result.gpu_time_for_points,
        result.cpu_time_for_points,
        matrix.nnz,
        platform.n_gpus,
        platform.n_cpu_threads,
    )
    return _section("costmodel", probes, gated=True), float(split.alpha)


# --------------------------------------------------------------------------- #
# Section 2: training mini-batch size and kernel
# --------------------------------------------------------------------------- #
def probe_train_kernel(
    quick: bool, seed: int
) -> Tuple[Dict[str, Any], int, str, Dict[str, float]]:
    """Sweep mini-batch candidates over geometric prefixes; pin the kernel.

    Returns ``(section, batch_size, kernel, acceptance)`` where
    ``acceptance`` carries the full-size default vs resolved times.
    """
    n_ratings = 20_000 if quick else 60_000
    matrix = _synthetic_matrix(1_500, 800, n_ratings, seed + 10)
    rng = np.random.default_rng(seed)
    m, n = matrix.shape
    k = 16
    p0 = rng.standard_normal((m, k)) * 0.1
    q0 = rng.standard_normal((k, n)) * 0.1
    candidates = (128, 256, 512) if quick else (64, 128, 256, 512, 1024)
    assert DEFAULT_BATCH_SIZE in candidates
    sizes = geometric_prefix_sizes(matrix.nnz, 4 if quick else 5, minimum=2_000)
    repeats = 2 if quick else 3

    def sweep_seconds(batch: int, points: int) -> float:
        rows = matrix.rows[:points]
        cols = matrix.cols[:points]
        vals = matrix.vals[:points]

        def one() -> float:
            p, q = p0.copy(), q0.copy()
            start = time.perf_counter()
            sgd_block_minibatch(
                p, q, rows, cols, vals, 0.005, 0.02, 0.02, batch_size=batch
            )
            return time.perf_counter() - start

        return _best_of(one, repeats)

    probes = []
    full_measured: Dict[int, float] = {}
    predicted_full: Dict[int, float] = {}
    for batch in candidates:
        times = [sweep_seconds(batch, size) for size in sizes]
        model = CPUCostModel.fit(sizes[:-1], times[:-1])
        predicted = model.time_for_points(sizes[-1])
        probes.append(
            _probe_record({"batch_size": batch, "points": sizes[-1]},
                          predicted, times[-1])
        )
        full_measured[batch] = times[-1]
        predicted_full[batch] = predicted

    chosen = min(candidates, key=lambda b: predicted_full[b])
    # The acceptance rule: never ship a knob measured slower than the
    # hand-picked default it replaces.
    if full_measured[DEFAULT_BATCH_SIZE] < full_measured[chosen]:
        chosen = DEFAULT_BATCH_SIZE

    # Kernel pin: the native kernel agrees with the numpy one to 1e-12,
    # so timing is what is at stake.  No prediction — report the
    # measurement.  Q is laid out item-major, as
    # FactorModel feeds every engine (the band-local kernels' fast path).
    rows, cols, vals = matrix.rows, matrix.cols, matrix.vals
    q0_item_major = np.ascontiguousarray(q0.T)

    def time_kernel(fn, **kwargs) -> float:
        def one() -> float:
            p, q = p0.copy(), q0_item_major.copy().T
            start = time.perf_counter()
            fn(p, q, rows, cols, vals, 0.005, 0.02, 0.02, batch_size=chosen, **kwargs)
            return time.perf_counter() - start

        return _best_of(one, repeats)

    kernel_fns = {"minibatch_local": sgd_block_minibatch_local}
    if native_status()[0]:
        kernel_fns["native"] = sgd_block_native
    kernel_times = {name: time_kernel(fn, row_range=(0, m), col_range=(0, n)) for name, fn in kernel_fns.items()}
    kernel = min(kernel_times, key=kernel_times.get)
    for name, seconds in sorted(kernel_times.items()):
        probes.append(
            {
                "config": {"kernel": name, "points": matrix.nnz},
                "predicted_s": 0.0,
                "measured_s": float(seconds),
                "predict_error": 0.0,
            }
        )
    acceptance = {
        "default_s": full_measured[DEFAULT_BATCH_SIZE],
        "resolved_s": full_measured[chosen],
    }
    return _section("train_batch", probes, gated=True), chosen, kernel, acceptance


# --------------------------------------------------------------------------- #
# Section 3: execution backend and worker count
# --------------------------------------------------------------------------- #
def probe_backend(
    quick: bool, seed: int
) -> Tuple[Dict[str, Any], str, int, Dict[str, float]]:
    """Time small end-to-end training runs per backend/worker candidate.

    Report-only prediction (linear ``t_1 / workers`` scaling): the gap
    between that line and the measured GIL-bound threads time is a
    *finding* of the paper, so it must never fail CI.  Resolution is by
    measurement alone.
    """
    from ..core.trainer import factorize
    from ..exec.process import process_backend_supported

    n_ratings = 8_000 if quick else 24_000
    matrix = _synthetic_matrix(600, 400, n_ratings, seed + 20)
    cores = usable_cores()

    def run(backend: str, workers: int) -> float:
        start = time.perf_counter()
        factorize(
            matrix,
            algorithm="hsgd",
            hardware=HardwareConfig(cpu_threads=workers, gpu_count=0),
            iterations=2,
            backend=backend,
            seed=seed,
        )
        return time.perf_counter() - start

    candidates: List[Tuple[str, int]] = [("threads", 1)]
    if cores > 1:
        candidates.append(("threads", cores))
        if process_backend_supported():
            candidates.append(("processes", cores))

    measured: Dict[Tuple[str, int], float] = {}
    for backend, workers in candidates:
        measured[(backend, workers)] = run(backend, workers)
    t1 = measured[("threads", 1)]

    probes = [
        _probe_record(
            {"backend": backend, "workers": workers},
            t1 / workers,
            seconds,
        )
        for (backend, workers), seconds in measured.items()
    ]
    resolved_backend, resolved_workers = min(candidates, key=lambda c: measured[c])
    # What the no-profile "auto" heuristic would have picked on this
    # machine — the acceptance baseline.
    if cores > 1 and process_backend_supported():
        heuristic = ("processes", cores)
    elif cores > 1:
        heuristic = ("threads", cores)
    else:
        heuristic = ("threads", 1)
    acceptance = {
        "default_s": measured[heuristic],
        "resolved_s": measured[(resolved_backend, resolved_workers)],
    }
    return (
        _section("backend", probes, gated=False),
        resolved_backend,
        resolved_workers,
        acceptance,
    )


# --------------------------------------------------------------------------- #
# Section 4: serving chunk-GEMM tile and coalescing batch
# --------------------------------------------------------------------------- #
def probe_serve_chunk(
    quick: bool, seed: int
) -> Tuple[Dict[str, Any], int, int, Dict[str, float]]:
    """Sweep ``(batch_size, chunk_items)`` over growing user pools."""
    if quick:
        model = synthetic_model(1_500, 6_000, 16, seed=seed)
        pools = (64, 128, 256)
        candidates = [(64, 2_048), (64, 8_192), (64, 32_768)]
    else:
        model = synthetic_model(3_000, 12_000, 32, seed=seed)
        pools = (128, 256, 512, 1_024)
        candidates = [
            (32, 8_192),
            (64, 2_048),
            (64, 8_192),
            (64, 32_768),
            (128, 8_192),
        ]
    default = (DEFAULT_SERVICE_BATCH, DEFAULT_CHUNK_ITEMS)
    assert default in candidates
    rng = np.random.default_rng(seed)
    users = rng.integers(0, model.shape[0], size=max(pools), dtype=np.int64)
    repeats = 2

    probes = []
    full_measured: Dict[Tuple[int, int], float] = {}
    predicted_full: Dict[Tuple[int, int], float] = {}
    for batch, chunk in candidates:
        times = [
            _best_of(
                lambda size=size: measure_chunked(
                    model, users[:size], 10, batch, chunk
                ).seconds,
                repeats,
            )
            for size in pools
        ]
        line = fit_linear(pools[:-1], times[:-1])
        predicted = float(line(pools[-1]))
        probes.append(
            _probe_record(
                {"batch_size": batch, "chunk_items": chunk, "users": pools[-1]},
                predicted,
                times[-1],
            )
        )
        full_measured[(batch, chunk)] = times[-1]
        predicted_full[(batch, chunk)] = predicted

    chosen = min(candidates, key=lambda c: predicted_full[c])
    if full_measured[default] < full_measured[chosen]:
        chosen = default
    acceptance = {
        "default_s": full_measured[default],
        "resolved_s": full_measured[chosen],
    }
    return _section("serve_chunk", probes, gated=True), chosen[0], chosen[1], acceptance


# --------------------------------------------------------------------------- #
# Section 5: streaming fold-in chunk sizes
# --------------------------------------------------------------------------- #
def probe_foldin(
    quick: bool, seed: int
) -> Tuple[Dict[str, Any], int, int, Dict[str, float]]:
    """Sweep the fold-in Gram-chunk ceiling over growing rating batches."""
    model = synthetic_model(
        1_000, 2_000 if quick else 4_000, 16 if quick else 32, seed=seed
    )
    n_items = model.shape[1]
    rng = np.random.default_rng(seed)
    batches = (1_000, 2_000, 4_000) if quick else (2_000, 4_000, 8_000, 16_000)
    ratings_per_user = 20
    total = max(batches)
    user_ids = np.repeat(
        np.arange(total // ratings_per_user + 1, dtype=np.int64), ratings_per_user
    )[:total]
    items = rng.integers(0, n_items, size=total, dtype=np.int64)
    vals = rng.uniform(1.0, 5.0, size=total)
    candidates = (
        (500_000, _GRAM_CHUNK_ELEMENTS, 8_000_000)
        if quick
        else (250_000, 1_000_000, _GRAM_CHUNK_ELEMENTS, 8_000_000)
    )
    assert _GRAM_CHUNK_ELEMENTS in candidates
    repeats = 2

    def fold_seconds(gram: int, size: int) -> float:
        override = TunedProfile(stream=StreamTunables(gram_chunk_elements=gram))

        def one() -> float:
            with use_profile(override):
                start = time.perf_counter()
                model.fold_in_users(user_ids[:size], items[:size], vals[:size])
                return time.perf_counter() - start

        return _best_of(one, repeats)

    probes = []
    full_measured: Dict[int, float] = {}
    predicted_full: Dict[int, float] = {}
    for gram in candidates:
        times = [fold_seconds(gram, size) for size in batches]
        line = fit_linear(batches[:-1], times[:-1])
        predicted = float(line(batches[-1]))
        probes.append(
            _probe_record(
                {"gram_chunk_elements": gram, "ratings": batches[-1]},
                predicted,
                times[-1],
            )
        )
        full_measured[gram] = times[-1]
        predicted_full[gram] = predicted

    chosen = min(candidates, key=lambda g: predicted_full[g])
    if full_measured[_GRAM_CHUNK_ELEMENTS] < full_measured[chosen]:
        chosen = _GRAM_CHUNK_ELEMENTS

    # Newcomer-batch target: the measured throughput (users/s) under the
    # chosen Gram chunk peaks at some batch size; coalescing to roughly
    # that many distinct users per fold-in keeps the solver in its best
    # regime.  Falls back to the hand-picked default when flat.
    chosen_times = [fold_seconds(chosen, size) for size in batches]
    per_user = [
        size / ratings_per_user / max(seconds, 1e-12)
        for size, seconds in zip(batches, chosen_times)
    ]
    best_batch = batches[int(np.argmax(per_user))] // ratings_per_user
    foldin_batch_users = (
        best_batch if best_batch > 0 else DEFAULT_FOLDIN_BATCH_USERS
    )
    acceptance = {
        "default_s": full_measured[_GRAM_CHUNK_ELEMENTS],
        "resolved_s": full_measured[chosen],
    }
    return _section("foldin", probes, gated=True), chosen, foldin_batch_users, acceptance


# --------------------------------------------------------------------------- #
# The full tune run
# --------------------------------------------------------------------------- #
def _default_knobs() -> Dict[str, Any]:
    """The hand-picked values every knob falls back to without a profile."""
    with use_profile(None):
        kernel = resolve_kernel_name("auto")
    return {
        "training": {
            "backend": "threads",
            "workers": 1,
            "batch_size": DEFAULT_BATCH_SIZE,
            "kernel": kernel,
        },
        "serving": {
            "chunk_items": DEFAULT_CHUNK_ITEMS,
            "batch_size": DEFAULT_SERVICE_BATCH,
        },
        "stream": {
            "gram_chunk_elements": _GRAM_CHUNK_ELEMENTS,
            "foldin_batch_users": DEFAULT_FOLDIN_BATCH_USERS,
        },
    }


def run_tune(
    quick: bool = False,
    seed: int = 0,
    created_unix: Optional[float] = None,
    sections: Optional[Sequence[str]] = None,
) -> TuneOutcome:
    """Run every calibration probe and resolve the tuned profile.

    Parameters
    ----------
    quick:
        Shrink every workload and candidate grid (CI's 2-core budget).
    seed:
        Seed of the synthetic workloads.
    created_unix:
        Wall-clock stamp recorded in the profile (callers pass
        ``time.time()``; default ``None`` keeps the run reproducible).
    sections:
        Optional subset of section names to run (tests probe one section
        at a time); omitted sections keep their default knobs.

    Returns
    -------
    TuneOutcome
        The resolved profile plus the ``BENCH_tune.json`` payload.
    """
    wanted = set(sections) if sections is not None else None

    def enabled(name: str) -> bool:
        return wanted is None or name in wanted

    report: Dict[str, Any] = {}
    knobs = _default_knobs()
    acceptance_sections: Dict[str, Dict[str, float]] = {}
    alpha: Optional[float] = None

    if enabled("costmodel"):
        report["costmodel"], alpha = probe_cost_models(quick, seed)
    if enabled("train_batch"):
        section, batch, kernel, acc = probe_train_kernel(quick, seed)
        report["train_batch"] = section
        knobs["training"]["batch_size"] = batch
        knobs["training"]["kernel"] = kernel
        acceptance_sections["train_batch"] = acc
    if enabled("backend"):
        section, backend, workers, acc = probe_backend(quick, seed)
        report["backend"] = section
        knobs["training"]["backend"] = backend
        knobs["training"]["workers"] = workers
        acceptance_sections["backend"] = acc
    if enabled("serve_chunk"):
        section, batch, chunk, acc = probe_serve_chunk(quick, seed)
        report["serve_chunk"] = section
        knobs["serving"]["batch_size"] = batch
        knobs["serving"]["chunk_items"] = chunk
        acceptance_sections["serve_chunk"] = acc
    if enabled("foldin"):
        section, gram, batch_users, acc = probe_foldin(quick, seed)
        report["foldin"] = section
        knobs["stream"]["gram_chunk_elements"] = gram
        knobs["stream"]["foldin_batch_users"] = batch_users
        acceptance_sections["foldin"] = acc

    for name, acc in acceptance_sections.items():
        acc["ok"] = acc["resolved_s"] <= acc["default_s"] * (1.0 + 1e-9)
    met = all(acc["ok"] for acc in acceptance_sections.values())

    profile = TunedProfile(
        fingerprint=machine_fingerprint(),
        quick=quick,
        created_unix=created_unix,
        training=TrainingTunables(**knobs["training"]),
        serving=ServingTunables(**knobs["serving"]),
        stream=StreamTunables(**knobs["stream"]),
        predict_error={
            name: section["predict_error"] for name, section in report.items()
        },
        alpha=alpha,
    )
    payload = {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "quick": quick,
        "hardware": {
            "usable_cores": usable_cores(),
            "fingerprint": machine_fingerprint(),
        },
        "tune": {
            "sections": report,
            "resolved": {
                "training": knobs["training"],
                "serving": knobs["serving"],
                "stream": knobs["stream"],
            },
            "defaults": _default_knobs(),
            "acceptance": {"sections": acceptance_sections, "met": met},
        },
    }
    return TuneOutcome(profile=profile, payload=payload)
