"""The execution-backend registry.

Backends used to be a hardcoded tuple (``config.BACKENDS``) plus an
``if/elif`` chain inside :meth:`HeterogeneousTrainer._build_engine`;
adding a backend meant editing ``core/`` and ``config.py``.  This module
replaces both with a registry: a backend is a **factory** registered
under a name, and everything that needs the backend list — config
validation, the trainer, :func:`~repro.core.trainer.factorize`, the CLI
``--backend`` choices — consults the registry instead of a constant.  A
process-pool or GPU backend therefore becomes::

    from repro.exec import register_backend

    def my_backend(*, scheduler, train, training, test, model, schedule,
                   platform, compute_train_rmse):
        return MyEngine(...)

    register_backend("mypool", my_backend)

after which ``TrainingConfig(backend="mypool")``,
``fit(backend="mypool")`` and ``repro-mf train --backend mypool`` all
work without touching any core module.

Factory contract
----------------
A factory is called with keyword arguments only::

    factory(scheduler=..., train=..., training=..., test=..., model=...,
            schedule=..., platform=..., compute_train_rmse=...) -> Engine

and must return an object implementing the :class:`repro.exec.Engine`
protocol (``start()`` / ``run()``).  Factories may ignore arguments they
have no use for (the threaded backend, for example, only consults the
platform for GPU latency emulation).

The built-in backends — ``"simulate"`` (the discrete-event engine behind
every paper figure), ``"threads"`` (real concurrent worker threads) and
``"processes"`` (worker processes over shared memory) — are registered
at import time with lazily-imported factories, so importing the registry
never pulls in the engines themselves.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Optional, Tuple

from ..config import AUTO_BACKEND
from ..exceptions import ConfigurationError

#: A backend factory: keyword-only callable returning an ``Engine``.
BackendFactory = Callable[..., object]

#: Names of the backends that ship with the library.
BUILTIN_BACKENDS: Tuple[str, ...] = ("simulate", "threads", "processes")

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(
    name: str, factory: BackendFactory, *, replace: bool = False
) -> None:
    """Register an execution backend under ``name``.

    Parameters
    ----------
    name:
        The identifier used by ``TrainingConfig(backend=...)``,
        ``fit(backend=...)`` and the CLI.
    factory:
        Keyword-only callable building an engine (see the module
        docstring for the exact signature).
    replace:
        Allow overwriting an existing registration.  Off by default so a
        typo cannot silently shadow a built-in backend.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"backend name must be a non-empty string, got {name!r}")
    if not callable(factory):
        raise ConfigurationError(f"backend factory for {name!r} must be callable")
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"backend {name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (built-ins included — tests use this)."""
    if name not in _REGISTRY:
        raise ConfigurationError(f"backend {name!r} is not registered")
    del _REGISTRY[name]


def get_backend(name: str) -> BackendFactory:
    """Return the factory registered under ``name``.

    Raises
    ------
    ConfigurationError
        If no backend of that name is registered; the message lists the
        currently available names.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"backend must be one of {backend_names()}, got {name!r}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """The currently registered backend names, built-ins first."""
    builtins = [name for name in BUILTIN_BACKENDS if name in _REGISTRY]
    extras = sorted(name for name in _REGISTRY if name not in BUILTIN_BACKENDS)
    return tuple(builtins + extras)


def is_registered(name: str) -> bool:
    """Whether ``name`` denotes a registered backend."""
    return name in _REGISTRY


#: Sentinel for "no explicit profile passed — consult the active one".
#: Distinct from ``profile=None``, which *forces* the heuristic
#: no-profile path (the bitwise-pinned legacy behaviour) regardless of
#: any globally installed profile.
_UNSET_PROFILE = object()


def resolve_backend_name(
    name: str,
    n_workers: Optional[int] = None,
    profile=_UNSET_PROFILE,
) -> str:
    """Resolve the ``"auto"`` pseudo-backend to a concrete registry name.

    With a :class:`repro.tune.TunedProfile` supplied (or installed via
    :func:`repro.tune.set_active_profile`), ``"auto"`` resolves to the
    profile's calibrated backend choice — still sanity-bounded to a
    legal configuration for *this* run (see
    :meth:`repro.tune.TunedProfile.resolve_backend`: ``"processes"``
    demotes to ``"threads"`` for single-worker runs and unsupported
    platforms).

    Without a profile, ``"auto"`` falls back to the original heuristic:

    * ``"processes"`` when the run has more than one worker and the
      platform supports the shared-memory process backend (true
      multicore scaling — worker processes are not GIL-bound);
    * ``"threads"`` otherwise — a single worker gains nothing from
      process isolation, and threads need no spawn/attach setup.

    Concrete names (registered or not — validation happens at
    :func:`get_backend` time) pass through unchanged, so callers can
    resolve unconditionally.
    """
    if name != AUTO_BACKEND:
        return name
    if profile is _UNSET_PROFILE:
        from ..tune.profile import active_profile

        profile = active_profile()
    if profile is not None:
        return profile.resolve_backend(n_workers=n_workers)
    from .process import process_backend_supported

    if n_workers is not None and n_workers > 1 and process_backend_supported():
        return "processes"
    return "threads"


# --------------------------------------------------------------------- #
# Built-in backends
# --------------------------------------------------------------------- #
def _register_builtin(
    name: str, module: str, engine_class: str, requires_platform: bool = False
) -> BackendFactory:
    """Register a built-in engine under ``name``, imported on first use.

    Every built-in engine takes the factory contract's keyword arguments
    under the same names, so one pass-through serves all three.
    """

    def factory(
        *,
        scheduler,
        train,
        training,
        test=None,
        model=None,
        schedule=None,
        platform=None,
        compute_train_rmse=False,
    ):
        if requires_platform and platform is None:
            raise ConfigurationError(
                f'the "{name}" backend needs a platform to price task durations'
            )
        engine = getattr(import_module(module, __package__), engine_class)
        return engine(
            scheduler=scheduler,
            train=train,
            training=training,
            test=test,
            model=model,
            schedule=schedule,
            platform=platform,
            compute_train_rmse=compute_train_rmse,
        )

    register_backend(name, factory)
    return factory


_simulate_factory = _register_builtin(
    "simulate", "..sim.engine", "SimulationEngine", requires_platform=True
)
_register_builtin("threads", ".threaded", "ThreadedEngine")
_register_builtin("processes", ".process", "ProcessEngine")
