"""Loader of the native mini-batch SGD kernel (``KERNELS["native"]``).

``_native/sgd_minibatch.c`` restates
:func:`repro.sgd.kernels.sgd_block_minibatch_local` in ~100 lines of
plain C.  This module compiles it with the system C compiler the first
time ``kernel="auto"``/``"native"`` is resolved (never at import),
caches the shared object per user, binds it with :mod:`ctypes` — so the
GIL is released for the whole block — and checks it against the numpy
kernel before anyone trains with it.

Build rules (DESIGN.md, "Native kernel"):

* flags are fixed (:data:`CFLAGS`): ``-ffp-contract=off`` and no
  ``-ffast-math``/``-march=native``, so results do not depend on the
  compiler or the build machine; ``$CC`` is honoured;
* the cache is ``$XDG_CACHE_HOME/repro-mf/native`` (``~/.cache/...``),
  else a ``0700`` per-uid directory under the temp dir; a directory not
  owned by the current uid or writable by others is never loaded from;
* the file name is keyed by a hash of the C source, the flags and the
  compiler's identity (command, resolved path, size, mtime); it is
  written under a temporary name and ``os.replace``-d, so concurrent
  first users race safely, and a warm start runs no subprocess;
* every failure — no compiler, compile error, no cache directory, load
  error, failed self-check — makes the kernel *unavailable*, never
  fatal: ``"auto"`` keeps ``"minibatch_local"`` and
  :func:`native_status` carries the reason.

Availability is computed once per process; afterwards
:func:`native_status` is a tuple read.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["CFLAGS", "SELF_CHECK_TOLERANCE", "native_status", "native_sweep"]

SOURCE_PATH = Path(__file__).with_name("_native") / "sgd_minibatch.c"

#: Fixed compiler flags; part of the cache key and of the numerical contract.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

#: Largest factor difference to ``minibatch_local`` the load-time
#: self-check (and the tier-1 parity pins) accept.
SELF_CHECK_TOLERANCE = 1e-12

_COMPILER_TIMEOUT_S = 120

#: ``(sweep function or None, reason)`` once availability was computed.
_state: Optional[Tuple[Optional[Callable[..., int]], str]] = None
_state_lock = threading.Lock()


class _Unavailable(Exception):
    """Internal: the reason the native kernel cannot be used."""


def native_status() -> Tuple[bool, str]:
    """``(available, reason)`` for the native kernel, computed once per process.

    ``reason`` is ``"loaded <path>"`` when available and the one-line
    cause otherwise (what ``repro train`` prints and what an explicit
    ``kernel="native"`` raises).
    """
    sweep, reason = _state or _load_once()
    return sweep is not None, reason


def native_sweep(p_band, q_band_t, local_rows, local_cols, vals, gamma, reg_p, reg_q, batch_size) -> None:
    """One GIL-releasing sweep over a block; the single ``ctypes`` call.

    ``p_band``/``q_band_t`` are C-contiguous float64 ``(band, k)`` arrays,
    ``local_rows``/``local_cols`` contiguous int64, ``vals`` contiguous
    float64 — :func:`repro.sgd.kernels.sgd_block_native` guarantees this
    and sends everything else to ``minibatch_local``.
    """
    sweep, reason = _state or _load_once()
    if sweep is None:
        raise ConfigurationError(f'kernel="native" is unavailable: {reason}')
    failed = sweep(
        p_band.ctypes.data,
        q_band_t.ctypes.data,
        p_band.shape[1],
        p_band.shape[0],
        q_band_t.shape[0],
        local_rows.ctypes.data,
        local_cols.ctypes.data,
        vals.ctypes.data,
        len(vals),
        batch_size,
        gamma,
        reg_p,
        reg_q,
    )
    if failed:
        raise MemoryError("native SGD kernel could not allocate its per-call scratch")


def _load_once() -> Tuple[Optional[Callable[..., int]], str]:
    global _state
    with _state_lock:
        if _state is None:
            try:
                path = _build()
                sweep = _bind(path)
                _self_check(sweep)
                _state = (sweep, f"loaded {path}")
            except (_Unavailable, OSError) as exc:
                _state = (None, str(exc))
        return _state


def _compiler() -> Tuple[List[str], str]:
    """The compiler command (``$CC`` or ``cc``) and an identity string for the cache key.

    The identity is the resolved binary's path, size and mtime rather
    than ``cc --version`` output: a compiler upgrade still changes it,
    and a warm start spawns no child process at all.
    """
    command = shlex.split(os.environ.get("CC") or "cc")
    binary = shutil.which(command[0])
    if binary is None:
        raise _Unavailable(f"C compiler {command[0]!r} not found")
    binary = os.path.realpath(binary)
    info = os.stat(binary)
    return command, f"{' '.join(command)} {binary} {info.st_size} {info.st_mtime_ns}"


def _check_private(directory: Path) -> None:
    """Refuse a cache directory another user could have written to."""
    info = os.stat(directory)
    if info.st_uid != os.getuid():
        raise OSError(f"owned by uid {info.st_uid}, not {os.getuid()}")
    if info.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise OSError(f"mode {stat.S_IMODE(info.st_mode):04o} is writable by others")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise OSError("not writable")


def _cache_dir() -> Path:
    """The first usable per-user cache directory, created ``0700`` on demand."""
    if not hasattr(os, "getuid"):
        raise _Unavailable("the native kernel cache needs a POSIX platform")
    home_cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    candidates = [
        Path(home_cache) / "repro-mf" / "native",
        Path(tempfile.gettempdir()) / f"repro-mf-native-{os.getuid()}",
    ]
    refused = []
    for directory in candidates:
        try:
            os.makedirs(directory, mode=0o700, exist_ok=True)
            _check_private(directory)
            return directory
        except OSError as exc:
            refused.append(f"{directory}: {exc}")
    raise _Unavailable("no usable cache directory (" + "; ".join(refused) + ")")


def _build() -> Path:
    """Path of the cached shared object, compiling it first when missing."""
    command, identity = _compiler()
    try:
        source = SOURCE_PATH.read_bytes()
    except OSError as exc:
        raise _Unavailable(f"kernel source missing ({exc})") from None
    key = hashlib.sha256(b"\0".join([source, " ".join(CFLAGS).encode(), identity.encode()])).hexdigest()[:16]
    directory = _cache_dir()
    target = directory / f"sgd_minibatch-{key}.so"
    if target.exists():
        return target
    try:
        handle, scratch = tempfile.mkstemp(dir=directory, prefix=target.stem, suffix=".tmp")
        os.close(handle)
    except OSError as exc:
        raise _Unavailable(f"cache directory {directory} is not writable ({exc})") from None
    try:
        try:
            built = subprocess.run(
                [*command, *CFLAGS, "-o", scratch, str(SOURCE_PATH)],
                capture_output=True,
                text=True,
                timeout=_COMPILER_TIMEOUT_S,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise _Unavailable(f"C compiler {command[0]!r} cannot be run ({exc})") from None
        if built.returncode != 0:
            lines = built.stderr.strip().splitlines() or [f"exit status {built.returncode}"]
            detail = next((line for line in lines if "error" in line), lines[-1])
            raise _Unavailable(f"compiling {SOURCE_PATH.name} failed: {detail}")
        os.replace(scratch, target)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
    return target


def _bind(path: Path) -> Callable[..., int]:
    try:
        sweep = ctypes.CDLL(str(path)).repro_sgd_minibatch
    except (OSError, AttributeError) as exc:
        # A truncated or foreign object must not poison the cache.
        try:
            os.unlink(path)
        except OSError:
            pass
        raise _Unavailable(f"could not load {path} ({exc})") from None
    pointer, integer, real = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    sweep.argtypes = [
        pointer, pointer, integer, integer, integer,
        pointer, pointer, pointer, integer, integer,
        real, real, real,
    ]  # fmt: skip
    sweep.restype = ctypes.c_int
    return sweep


def _self_check(sweep: Callable[..., int]) -> None:
    """Run a fixed 64-rating block through both kernels; they must agree."""
    from .kernels import sgd_block_minibatch_local

    n_rows, n_cols, k, count, batch = 8, 6, 5, 64, 24
    rng = np.random.default_rng(20210401)
    rows = rng.integers(0, n_rows, size=count)
    cols = rng.integers(0, n_cols, size=count)
    vals = rng.uniform(1.0, 5.0, size=count)
    p_ref = rng.uniform(0.0, 0.5, size=(n_rows, k))
    q_ref_t = rng.uniform(0.0, 0.5, size=(n_cols, k))
    p, q_t = p_ref.copy(), q_ref_t.copy()
    sgd_block_minibatch_local(
        p_ref, q_ref_t.T, rows, cols, vals, 0.05, 0.02, 0.03, (0, n_rows), (0, n_cols),
        batch_size=batch, validate=False,
    )  # fmt: skip
    failed = sweep(
        p.ctypes.data, q_t.ctypes.data, k, n_rows, n_cols,
        rows.ctypes.data, cols.ctypes.data, vals.ctypes.data, count, batch,
        0.05, 0.02, 0.03,
    )  # fmt: skip
    worst = max(float(np.abs(p - p_ref).max()), float(np.abs(q_t - q_ref_t).max()))
    if failed or not worst <= SELF_CHECK_TOLERANCE:
        raise _Unavailable(f"self-check against minibatch_local failed (max abs difference {worst:.3g})")
