"""Per-block SGD update kernels and the kernel registry.

The paper's workers (CPU threads running the LIBMF kernel, GPUs running
the CuMF_SGD kernel) all perform the same numerical work on a block: for
each rating ``(u, v, r)`` in the block,

.. math::

    e_{uv} &= r_{uv} - p_u q_v \\\\
    p_u &\\leftarrow p_u + \\gamma (e_{uv} q_v^T - \\lambda_P p_u) \\\\
    q_v &\\leftarrow q_v + \\gamma (e_{uv} p_u^T - \\lambda_Q q_v)

(Equations 4-6 / Algorithm 1 lines 4-6).

Three kernels are selectable by name through the registry
(:data:`KERNELS`, :func:`get_kernel`, :func:`resolve_kernel_name`), and
one more, :func:`sgd_block_minibatch`, is the global-index reference they
are checked against:

* :func:`sgd_block_sequential` (``"sequential"``) — the exact per-rating
  loop.  This is the numerical reference and the kernel used by the unit
  tests; it is slow in pure Python, so the engines only use it on small
  blocks or when exactness is requested.
* :func:`sgd_block_minibatch` (not in the registry) — a vectorised
  kernel that processes the block in mini-batches over *global*
  row/column indices: within one batch all errors are computed against
  the factor values at the start of the batch, gradients of ratings
  touching the same row/column are accumulated with ``np.add.at`` and
  applied together.  This is the standard mini-batch relaxation of SGD; the
  accepted substitution for the hand-tuned AVX/CUDA kernels of the paper
  (see DESIGN.md), preserving the update rule while making epoch times
  practical in numpy.  It is the kernel of Algorithm 1 over the whole
  matrix (:func:`repro.sgd.serial.train_serial_sgd`) and the bitwise
  reference for ``"minibatch_local"``; the engines, whose data arrives
  block-major, never call it.
* :func:`sgd_block_minibatch_local` (``"minibatch_local"``) — the
  block-major production kernel.  It consumes *band-local* indices (as
  pre-gathered once per run by :class:`repro.sparse.BlockStore`) and
  scatters into band-slice views of ``P``/``Q``.  Every transformation
  relative to ``sgd_block_minibatch`` is bitwise-identity-preserving —
  same additions, same per-element order — so the two kernels produce
  byte-identical factors (pinned by ``tests/test_kernel_registry.py``)
  while the local kernel removes the dominant per-batch numpy overhead:

  - multiplicities come from ``np.bincount`` over the small band-local
    index space instead of two ``np.unique`` (sort) calls;
  - the duplicate-averaging division is skipped when a batch has no
    repeated entities (division by 1 is an exact no-op);
  - the ``np.add.at`` scatters run on the *flattened* contiguous band
    with element indices, hitting numpy's fast 1-D indexed-add loop
    instead of the slow per-row 2-D dispatch (the per-slot add order is
    unchanged, so the result is bit-for-bit the same);
  - gradient arrays are written into per-call scratch buffers instead of
    fresh temporaries on every batch.

* :func:`sgd_block_native` (``"native"``) — ``minibatch_local`` with the
  batching loop in ~100 lines of dependency-free C
  (``_native/sgd_minibatch.c``, built and loaded lazily by
  :mod:`repro.sgd.native`): the same batches, multiplicities and
  divide-then-add order, several times faster, and called through
  ``ctypes`` so the GIL is released for the whole block.  It is *not*
  bitwise-identical to the numpy pair: every element-wise operation
  matches bit for bit, but the dot product ``p_u . q_v`` is summed in one
  fixed C order where ``np.einsum``'s order depends on the numpy build.
  The contract is a max-abs factor difference of at most 1e-12 after
  five epochs (observed ~1e-15), pinned by
  ``tests/test_native_kernel.py``; it is deterministic, so every
  cross-backend and resume pin holds bitwise under it.

``"auto"`` (the :class:`~repro.config.TrainingConfig` default) resolves
to ``"native"`` when it loaded and to ``"minibatch_local"`` otherwise
(no compiler, failed build or self-check).

All kernels update ``P`` and ``Q`` in place and return the number of
ratings processed so callers can account work.  Validation of shapes,
dtypes and index bounds is performed once per call by default; callers
that validated their inputs ahead of time (the engines, through
:class:`~repro.sparse.BlockStore`) pass ``validate=False`` to keep the
``O(nnz)`` checks out of the per-task hot path.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..config import DEFAULT_BATCH_SIZE, KERNEL_NAMES
from ..exceptions import ConfigurationError, InvalidMatrixError
from .native import native_status, native_sweep

__all__ = [
    "DEFAULT_BATCH_SIZE",  # canonical home: repro.config (re-exported here)
    "KERNELS",
    "get_kernel",
    "resolve_kernel_name",
    "sgd_block_minibatch",
    "sgd_block_minibatch_local",
    "sgd_block_native",
    "sgd_block_sequential",
]


def _as_kernel_array(array, dtype: np.dtype) -> np.ndarray:
    """Return ``array`` as a C-contiguous ndarray of ``dtype``.

    Pre-typed contiguous inputs — the common case once a
    :class:`~repro.sparse.BlockStore` feeds the kernels — are returned
    unchanged (no copy); everything else goes through one conversion.
    """
    if (
        isinstance(array, np.ndarray)
        and array.dtype == dtype
        and array.flags.c_contiguous
    ):
        return array
    return np.ascontiguousarray(array, dtype=dtype)


def _check_kernel_inputs(
    p: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
) -> None:
    """Validate shapes shared by the global kernels; raise ``InvalidMatrixError``."""
    if p.ndim != 2 or q.ndim != 2:
        raise InvalidMatrixError("P and Q must be 2-D arrays")
    if p.shape[1] != q.shape[0]:
        raise InvalidMatrixError(
            f"inner dimensions of P {p.shape} and Q {q.shape} do not match"
        )
    if not (len(rows) == len(cols) == len(vals)):
        raise InvalidMatrixError("rows, cols and vals must have equal length")
    if len(rows) > 0:
        if rows.max() >= p.shape[0] or rows.min() < 0:
            raise InvalidMatrixError("row index out of range for P")
        if cols.max() >= q.shape[1] or cols.min() < 0:
            raise InvalidMatrixError("column index out of range for Q")


def _check_local_kernel_inputs(
    p: np.ndarray,
    q: np.ndarray,
    local_rows: np.ndarray,
    local_cols: np.ndarray,
    vals: np.ndarray,
    row_range: Tuple[int, int],
    col_range: Tuple[int, int],
) -> None:
    """Validate the band-local kernel inputs; raise ``InvalidMatrixError``."""
    if p.ndim != 2 or q.ndim != 2:
        raise InvalidMatrixError("P and Q must be 2-D arrays")
    if p.shape[1] != q.shape[0]:
        raise InvalidMatrixError(
            f"inner dimensions of P {p.shape} and Q {q.shape} do not match"
        )
    if not (len(local_rows) == len(local_cols) == len(vals)):
        raise InvalidMatrixError("rows, cols and vals must have equal length")
    r0, r1 = row_range
    c0, c1 = col_range
    if not (0 <= r0 <= r1 <= p.shape[0]):
        raise InvalidMatrixError(
            f"row band [{r0}, {r1}) does not fit P with {p.shape[0]} rows"
        )
    if not (0 <= c0 <= c1 <= q.shape[1]):
        raise InvalidMatrixError(
            f"column band [{c0}, {c1}) does not fit Q with {q.shape[1]} columns"
        )
    if len(local_rows) > 0:
        if local_rows.max() >= r1 - r0 or local_rows.min() < 0:
            raise InvalidMatrixError("row index out of range for P")
        if local_cols.max() >= c1 - c0 or local_cols.min() < 0:
            raise InvalidMatrixError("column index out of range for Q")


def sgd_block_sequential(
    p: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    learning_rate: float,
    reg_p: float,
    reg_q: float,
    validate: bool = True,
) -> int:
    """Exact per-rating SGD sweep over one block (Algorithm 1, lines 3-6).

    Parameters
    ----------
    p, q:
        Factor matrices, updated in place.
    rows, cols, vals:
        The ratings of the block as parallel arrays.
    learning_rate:
        Step size ``gamma``.
    reg_p, reg_q:
        Regularisation coefficients ``lambda_P`` and ``lambda_Q``.
    validate:
        Check shapes, dtypes and index bounds before updating (default).
        Callers whose inputs were validated once ahead of time — the
        engines, via :class:`~repro.sparse.BlockStore` — pass ``False``
        to keep the ``O(nnz)`` scans off the per-task hot path.

    Returns
    -------
    int
        Number of ratings processed (``len(vals)``).
    """
    rows = _as_kernel_array(rows, np.int64)
    cols = _as_kernel_array(cols, np.int64)
    vals = _as_kernel_array(vals, np.float64)
    if validate:
        _check_kernel_inputs(p, q, rows, cols, vals)

    gamma = float(learning_rate)
    for idx in range(len(vals)):
        u = rows[idx]
        v = cols[idx]
        p_u = p[u]
        q_v = q[:, v]
        error = vals[idx] - float(p_u @ q_v)
        # The new p_u must be computed from the old q_v and vice versa, so
        # stash the update for p_u before overwriting it.
        new_p_u = p_u + gamma * (error * q_v - reg_p * p_u)
        q[:, v] = q_v + gamma * (error * p_u - reg_q * q_v)
        p[u] = new_p_u
    return len(vals)


def sgd_block_minibatch(
    p: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    learning_rate: float,
    reg_p: float,
    reg_q: float,
    batch_size: int = DEFAULT_BATCH_SIZE,
    rng: Optional[np.random.Generator] = None,
    validate: bool = True,
) -> int:
    """Vectorised mini-batch SGD sweep over one block (global indices).

    The block's ratings are visited in a (optionally shuffled) sequence of
    mini-batches.  Within one batch, errors are evaluated against the
    factors as of the start of the batch and the per-row / per-column
    gradient contributions are combined before being applied — the usual
    mini-batch SGD relaxation.

    When the same row or column occurs several times inside one batch
    (common for popular items in skewed rating data), its contributions
    are *averaged* rather than summed: the sequential kernel would apply
    those updates one after another against progressively corrected
    factors, so summing stale gradients systematically overshoots and can
    diverge on wide rating scales, while averaging keeps the step size of
    every entity bounded by ``gamma`` exactly as in the sequential kernel.

    Returns
    -------
    int
        Number of ratings processed.
    """
    rows = _as_kernel_array(rows, np.int64)
    cols = _as_kernel_array(cols, np.int64)
    vals = _as_kernel_array(vals, np.float64)
    if validate:
        _check_kernel_inputs(p, q, rows, cols, vals)
    if batch_size <= 0:
        raise InvalidMatrixError(f"batch_size must be positive, got {batch_size}")

    count = len(vals)
    if count == 0:
        return 0

    gamma = float(learning_rate)
    if rng is not None:
        order = rng.permutation(count)
        rows = rows[order]
        cols = cols[order]
        vals = vals[order]

    for start in range(0, count, batch_size):
        stop = min(start + batch_size, count)
        u = rows[start:stop]
        v = cols[start:stop]
        r = vals[start:stop]

        p_batch = p[u]                      # (b, k)
        q_batch = q[:, v].T                 # (b, k)
        errors = r - np.einsum("ij,ij->i", p_batch, q_batch)

        grad_p = gamma * (errors[:, None] * q_batch - reg_p * p_batch)
        grad_q = gamma * (errors[:, None] * p_batch - reg_q * q_batch)

        # Average contributions of rows/columns repeated within the batch
        # (see the docstring): divide each contribution by how often its
        # entity occurs in this batch before accumulating.  The counts are
        # derived with np.unique over the batch — sized by the number of
        # distinct entities in the batch, not max(index)+1 as a bincount
        # over the global row/column indices would be.
        _, u_positions, u_counts = np.unique(u, return_inverse=True, return_counts=True)
        _, v_positions, v_counts = np.unique(v, return_inverse=True, return_counts=True)
        grad_p /= u_counts[u_positions][:, None]
        grad_q /= v_counts[v_positions][:, None]

        np.add.at(p, u, grad_p)
        np.add.at(q.T, v, grad_q)
    return count


def _flat_band_view(band: np.ndarray) -> Optional[np.ndarray]:
    """A flat 1-D view of a band when its memory is contiguous, else ``None``.

    The flattened view is what lets the scatter run through numpy's fast
    1-D indexed-add loop; a copy would silently discard the updates, so
    only a true view is ever returned.
    """
    if band.flags.c_contiguous:
        return band.reshape(-1)
    return None


def _scatter_add_with_duplicates(
    band: np.ndarray,
    band_flat: Optional[np.ndarray],
    idx: np.ndarray,
    grad: np.ndarray,
    base_scratch: np.ndarray,
    flat_idx_scratch: np.ndarray,
    offsets: np.ndarray,
) -> None:
    """``np.add.at(band, idx, grad)``, through the flat fast path if possible.

    Flattening turns one indexed add of ``b`` rows of length ``k`` into
    ``b*k`` scalar indexed adds in the same element order, so every
    ``(row, factor)`` slot receives exactly the same additions in exactly
    the same sequence — bitwise-identical to the 2-D form, several times
    faster because numpy's ``ufunc.at`` has a fast loop only for 1-D
    contiguous targets.
    """
    if band_flat is None:
        np.add.at(band, idx, grad)
        return
    b = len(idx)
    k = band.shape[1]
    base = base_scratch[:b]
    flat = flat_idx_scratch[:b]
    np.multiply(idx, k, out=base)
    np.add(base[:, None], offsets, out=flat)
    np.add.at(band_flat, flat.reshape(-1), grad.reshape(-1))


def _local_block_prologue(
    p, q, local_rows, local_cols, vals, row_range, col_range, batch_size, rng, validate
):
    """Shared front half of the band-local kernels (numpy and native).

    Coerces the index/value arrays, validates on request, rejects a
    non-positive ``batch_size``, applies the optional ``rng`` shuffle and
    slices the two bands.  Returns ``(local_rows, local_cols, vals,
    p_band, q_band_t)``; an empty block comes back with empty arrays and
    the caller returns 0 without touching the factors.
    """
    local_rows = _as_kernel_array(local_rows, np.int64)
    local_cols = _as_kernel_array(local_cols, np.int64)
    vals = _as_kernel_array(vals, np.float64)
    if validate:
        _check_local_kernel_inputs(
            p, q, local_rows, local_cols, vals, row_range, col_range
        )
    if batch_size <= 0:
        raise InvalidMatrixError(f"batch_size must be positive, got {batch_size}")
    if rng is not None and len(vals) > 0:
        order = rng.permutation(len(vals))
        local_rows = local_rows[order]
        local_cols = local_cols[order]
        vals = vals[order]
    r0, r1 = row_range
    c0, c1 = col_range
    # ``q.T[c0:c1]`` is the same memory as ``q[:, c0:c1].T``; when Q is
    # stored item-major (``FactorModel`` keeps the transpose contiguous)
    # this band is C-contiguous and both the gather and the scatter run
    # on contiguous rows.
    return local_rows, local_cols, vals, p[r0:r1], q.T[c0:c1]


def sgd_block_minibatch_local(
    p: np.ndarray,
    q: np.ndarray,
    local_rows: np.ndarray,
    local_cols: np.ndarray,
    vals: np.ndarray,
    learning_rate: float,
    reg_p: float,
    reg_q: float,
    row_range: Tuple[int, int],
    col_range: Tuple[int, int],
    batch_size: int = DEFAULT_BATCH_SIZE,
    rng: Optional[np.random.Generator] = None,
    validate: bool = True,
) -> int:
    """Block-major mini-batch SGD sweep using band-local indices.

    Numerically this is :func:`sgd_block_minibatch` — same batches, same
    additions, same per-element order, hence bitwise-identical factors —
    restated over the block's *own* coordinate frame: ``local_rows`` and
    ``local_cols`` index into the band slices ``p[row_range[0]:row_range[1]]``
    and ``q[:, col_range[0]:col_range[1]]`` instead of the full matrices.
    See the module docstring for the list of bitwise-safe optimisations
    this buys.

    Parameters
    ----------
    p, q:
        Full factor matrices, updated in place (only the band slices are
        touched).
    local_rows, local_cols, vals:
        The block's ratings with indices relative to ``row_range[0]`` /
        ``col_range[0]`` (as produced by
        :meth:`repro.sparse.BlockData.from_slice`).
    row_range, col_range:
        The half-open global index intervals of the block's bands.
    validate:
        As in :func:`sgd_block_minibatch`; engines pass ``False`` because
        :class:`~repro.sparse.BlockStore` validated the data once.

    Returns
    -------
    int
        Number of ratings processed.
    """
    local_rows, local_cols, vals, p_band, q_band_t = _local_block_prologue(
        p, q, local_rows, local_cols, vals, row_range, col_range, batch_size, rng, validate
    )
    count = len(vals)
    if count == 0:
        return 0
    return _minibatch_local_sweep(
        p_band, q_band_t, local_rows, local_cols, vals,
        float(learning_rate), reg_p, reg_q, batch_size,
    )


def _minibatch_local_sweep(
    p_band, q_band_t, local_rows, local_cols, vals, gamma, reg_p, reg_q, batch_size
) -> int:
    """The numpy batching loop of ``minibatch_local`` over prepared bands."""
    count = len(vals)
    p_flat = _flat_band_view(p_band)
    q_flat = _flat_band_view(q_band_t)

    k = p_band.shape[1]
    cap = min(batch_size, count)
    grad_p = np.empty((cap, k), dtype=np.float64)
    grad_q = np.empty((cap, k), dtype=np.float64)
    reg_scratch = np.empty((cap, k), dtype=np.float64)
    errors_scratch = np.empty(cap, dtype=np.float64)
    base_idx = np.empty(cap, dtype=np.int64)
    flat_idx = np.empty((cap, k), dtype=np.int64)
    offsets = np.arange(k, dtype=np.int64)

    for start in range(0, count, batch_size):
        stop = min(start + batch_size, count)
        u = local_rows[start:stop]
        v = local_cols[start:stop]
        r = vals[start:stop]
        b = stop - start

        p_batch = np.take(p_band, u, axis=0)    # (b, k)
        q_batch = np.take(q_band_t, v, axis=0)  # (b, k)
        dots = np.einsum("ij,ij->i", p_batch, q_batch, out=errors_scratch[:b])
        errors = r - dots
        e = errors[:, None]

        # gamma * (e * q_batch - reg_p * p_batch), staged through scratch
        # buffers: the same three element-wise operations in the same
        # order as the global kernel, without fresh temporaries per batch.
        gp = grad_p[:b]
        gq = grad_q[:b]
        tmp = reg_scratch[:b]
        np.multiply(e, q_batch, out=gp)
        np.multiply(p_batch, reg_p, out=tmp)
        gp -= tmp
        gp *= gamma
        np.multiply(e, p_batch, out=gq)
        np.multiply(q_batch, reg_q, out=tmp)
        gq -= tmp
        gq *= gamma

        # Duplicate multiplicities via bincount over the band-local index
        # space (bounded by the band height/width, not the matrix
        # dimension).
        u_per = np.bincount(u)[u]
        v_per = np.bincount(v)[v]

        # Dividing by a multiplicity of 1 is an exact no-op and an
        # indexed assignment with unique indices performs exactly the
        # additions of np.add.at, so duplicate-free batches take the
        # cheap path: one vector add plus one scatter-assignment, no
        # flat-index build.  Batches with repeats divide (averaging, see
        # sgd_block_minibatch) and scatter through the flat indexed add.
        if u_per.max() == 1:
            np.add(p_batch, gp, out=gp)
            p_band[u] = gp
        else:
            np.divide(gp, u_per[:, None], out=gp)
            _scatter_add_with_duplicates(
                p_band, p_flat, u, gp, base_idx, flat_idx, offsets
            )
        if v_per.max() == 1:
            np.add(q_batch, gq, out=gq)
            q_band_t[v] = gq
        else:
            np.divide(gq, v_per[:, None], out=gq)
            _scatter_add_with_duplicates(
                q_band_t, q_flat, v, gq, base_idx, flat_idx, offsets
            )
    return count


def sgd_block_native(
    p: np.ndarray,
    q: np.ndarray,
    local_rows: np.ndarray,
    local_cols: np.ndarray,
    vals: np.ndarray,
    learning_rate: float,
    reg_p: float,
    reg_q: float,
    row_range: Tuple[int, int],
    col_range: Tuple[int, int],
    batch_size: int = DEFAULT_BATCH_SIZE,
    rng: Optional[np.random.Generator] = None,
    validate: bool = True,
) -> int:
    """:func:`sgd_block_minibatch_local` with the batching loop in compiled C.

    Same signature, same batches, same per-element arithmetic; only the
    summation order of the dot product ``p_u . q_v`` differs (fixed in C,
    build-dependent in ``np.einsum``), so the factors agree with the
    numpy kernel to ~1e-15 per sweep rather than bit for bit (see the
    module docstring).  The C routine runs without the GIL.

    Bands the C routine cannot take — non-contiguous, or not float64 —
    run through the numpy loop instead, per call.  Raises
    :class:`~repro.exceptions.ConfigurationError` when the native kernel
    is unavailable (:func:`repro.sgd.native.native_status` says why).
    """
    local_rows, local_cols, vals, p_band, q_band_t = _local_block_prologue(
        p, q, local_rows, local_cols, vals, row_range, col_range, batch_size, rng, validate
    )
    count = len(vals)
    if count == 0:
        return 0
    sweep = native_sweep
    for band in (p_band, q_band_t):
        if band.dtype != np.float64 or not band.flags.c_contiguous:
            sweep = _minibatch_local_sweep
    sweep(
        p_band, q_band_t, local_rows, local_cols, vals,
        float(learning_rate), float(reg_p), float(reg_q), batch_size,
    )
    return count


#: The kernel registry: name -> callable.  ``"minibatch_local"`` and
#: ``"native"`` take band-local indices and the band ranges (the calling
#: convention the engines satisfy through :class:`repro.sparse.BlockStore`);
#: ``"sequential"`` takes parallel index arrays into whatever ``p``/``q``
#: it is given, and the engines give it the band views ``p[r0:r1]`` and
#: ``q[:, c0:c1]`` with the same band-local indices.
KERNELS = {
    "sequential": sgd_block_sequential,
    "minibatch_local": sgd_block_minibatch_local,
    "native": sgd_block_native,
}

if set(KERNELS) | {"auto"} != set(KERNEL_NAMES):  # pragma: no cover
    raise ImportError(
        "kernel registry out of sync with repro.config.KERNEL_NAMES: "
        f"{sorted(KERNELS)} + 'auto' vs {KERNEL_NAMES}"
    )


def get_kernel(name: str):
    """Look up a kernel callable by registry name.

    ``"auto"`` is a configuration-level alias, not a kernel; resolve it
    with :func:`resolve_kernel_name` first.
    """
    try:
        return KERNELS[name]
    except KeyError:
        raise ConfigurationError(
            f"kernel must be one of {tuple(sorted(KERNELS))}, got {name!r}"
        ) from None


def resolve_kernel_name(name: str, exact_kernel: bool = False) -> str:
    """Resolve a configured kernel name to a concrete registry entry.

    ``exact_kernel=True`` (the engines' validation switch) forces the
    sequential reference kernel regardless of configuration.  ``"auto"``
    selects the active :class:`repro.tune.TunedProfile`'s calibrated
    kernel when a profile is loaded and ``"native"`` otherwise — each
    demoted to ``"minibatch_local"`` on a machine where the native kernel
    does not load (no compiler, failed build; see
    :func:`repro.sgd.native.native_status`), which is the pre-native
    default bit for bit.  Both are block-major kernels: the engines feed
    them pre-validated :class:`~repro.sparse.BlockStore` data.

    An explicit ``"native"`` that cannot be honoured raises
    :class:`~repro.exceptions.ConfigurationError` carrying the reason.
    The availability check is computed once per process, so resolving
    per task stays O(1).
    """
    if exact_kernel:
        return "sequential"
    if name == "auto":
        # Lazy: repro.tune.profile re-exports config constants and must
        # stay importable without the sgd package.
        from ..tune.profile import profile_kernel

        choice = profile_kernel() or "native"
        if choice == "native" and not native_status()[0]:
            return "minibatch_local"
        return choice
    if name not in KERNELS:
        raise ConfigurationError(
            f"kernel must be one of {KERNEL_NAMES}, got {name!r}"
        )
    if name == "native":
        available, reason = native_status()
        if not available:
            raise ConfigurationError(f'kernel="native" is unavailable: {reason}')
    return name
