"""Backend selection for the bulk engine: numpy when present, else Python.

numpy is an optional dependency.  The resolution order is:

1. an explicit :func:`set_backend` / :func:`use_backend` call (which is
   also how a per-call :class:`repro.engine.config.EngineConfig` applies
   itself),
2. the default :class:`~repro.engine.config.EngineConfig` installed via
   :func:`repro.engine.config.set_default_config`,
3. the ``REPRO_ENGINE`` environment variable
   (``auto``/``numpy``/``python``), re-read lazily at resolution time —
   never captured at import, so env changes after import take effect,
4. ``auto``: numpy when importable, pure Python otherwise.

Every engine kernel is written twice — once against numpy arrays and once
against plain lists/dicts — and the two implementations are required (and
tested) to produce identical results, so flipping the backend is purely a
performance decision.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = [
    "numpy_module",
    "numpy_available",
    "int64_points",
    "active_backend",
    "requested_backend",
    "set_backend",
    "use_backend",
]

_CHOICES = ("auto", "numpy", "python")

_numpy: Any = None
_numpy_checked = False


def numpy_module() -> Any | None:
    """The imported numpy module, or ``None`` when numpy is unavailable."""
    global _numpy, _numpy_checked
    if not _numpy_checked:
        try:
            import numpy
        except ImportError:
            numpy = None
        _numpy = numpy
        _numpy_checked = True
    return _numpy


def numpy_available() -> bool:
    """True when numpy can be imported in this interpreter."""
    return numpy_module() is not None


def int64_points(points: Any) -> Any | None:
    """``points`` itself when it is an ``(n, d)`` int64 numpy array.

    The one check an array window passes — dimensionality, dtype kind
    and width — before the int64 kernels take it as is.  Anything else
    (tuple lists, other dtypes) returns ``None``.
    """
    dtype = getattr(points, "dtype", None)
    if (dtype is not None and dtype.kind == "i" and dtype.itemsize == 8
            and points.ndim == 2):
        return points
    return None


#: Malformed ``REPRO_ENGINE`` values already warned about.  Lazy
#: resolution re-reads the env on every call; the warning still fires
#: only once per distinct bad value instead of once per kernel call.
_env_warned: set[str] = set()


def _backend_from_env() -> str:
    """Resolve ``REPRO_ENGINE`` to a request, warning once on bad values.

    A library must not raise on a bad env var, but a typo'd
    ``REPRO_ENGINE`` silently running the wrong backend is worse than
    noise — so unknown values warn (once) and fall back to ``auto``.
    """
    raw = os.environ.get("REPRO_ENGINE", "auto")
    requested = raw.strip().lower()
    if requested in _CHOICES:
        return requested
    if raw not in _env_warned:
        _env_warned.add(raw)
        warnings.warn(
            f"ignoring unknown REPRO_ENGINE value {requested!r}; "
            f"expected one of {_CHOICES} (falling back to 'auto')",
            stacklevel=3)
    return "auto"


#: The explicit :func:`set_backend` selection; ``None`` means "not set",
#: in which case resolution falls through to the default config and then
#: the env var — lazily, on every call.  Process-wide on purpose: the
#: imperative API configures the interpreter for every thread.
_backend: str | None = None

#: The scoped :func:`use_backend` selection.  Context-local so that two
#: threads/tasks forcing different backends (equivalence tests, service
#: requests applying per-call configs) cannot observe each other's pin;
#: it outranks :func:`set_backend` because a scoped force is innermost.
_backend_override: ContextVar[str | None] = ContextVar(
    "repro_engine_backend_override", default=None)


def set_backend(name: str) -> None:
    """Select the engine backend: ``"auto"``, ``"numpy"`` or ``"python"``.

    Raises:
        ValueError: for an unknown name, or when ``"numpy"`` is requested
            but numpy is not installed.
    """
    global _backend
    if name not in _CHOICES:
        raise ValueError(
            f"unknown engine backend {name!r}; expected one of {_CHOICES}")
    if name == "numpy" and not numpy_available():
        raise ValueError("numpy backend requested but numpy is not installed")
    _backend = name


def requested_backend() -> str:
    """The resolved *request* (``auto``/``numpy``/``python``), pre-degrade.

    Walks the resolution order — a scoped :func:`use_backend` block,
    then explicit :func:`set_backend`, then the default
    :class:`~repro.engine.config.EngineConfig`, then ``REPRO_ENGINE`` —
    without collapsing ``auto`` or degrading a ``numpy`` request, which
    is :func:`active_backend`'s job.
    """
    override = _backend_override.get()
    if override is not None:
        return override
    if _backend is not None:
        return _backend
    from repro.engine import config as _config
    default = _config.installed_default()
    if default is not None and default.backend is not None:
        return default.backend
    return _backend_from_env()


def active_backend() -> str:
    """The resolved backend for the next kernel call: ``numpy``/``python``.

    A ``numpy`` request (e.g. via ``REPRO_ENGINE=numpy``) degrades to
    ``python`` when numpy turns out to be unimportable, so kernels never
    dereference a missing module; :func:`set_backend` is the strict API
    that rejects the request up front instead.
    """
    if requested_backend() == "python":
        return "python"
    return "numpy" if numpy_available() else "python"


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily force a backend (equivalence tests, config.apply).

    Context-local: the force is visible to the current thread/task and
    anything it forks, never to concurrently running contexts.  Applies
    the same strict validation as :func:`set_backend`.
    """
    if name not in _CHOICES:
        raise ValueError(
            f"unknown engine backend {name!r}; expected one of {_CHOICES}")
    if name == "numpy" and not numpy_available():
        raise ValueError("numpy backend requested but numpy is not installed")
    token = _backend_override.set(name)
    try:
        yield
    finally:
        _backend_override.reset(token)
