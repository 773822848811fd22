"""Backend registry: name → :class:`~repro.kernels.base.KernelBackend`.

Selection order for :func:`get_backend` with no argument — for the
solve-side kernels and the set-up ops alike:

1. an active :func:`use_backend` override (tests, benchmarks);
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. the default ``"numpy"`` backend.

An unknown name raises :class:`~repro.errors.ConfigurationError`.
Backends are instantiated lazily, on first request, and cached.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.kernels.base import KernelBackend

__all__ = [
    "ENV_VAR",
    "DEFAULT_BACKEND",
    "available_backends",
    "get_backend",
    "register_backend",
    "use_backend",
]

#: Environment variable naming the default backend for this process.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Fallback backend: always available, pure NumPy.
DEFAULT_BACKEND = "numpy"

BackendFactory = Callable[[], KernelBackend]

_factories: Dict[str, BackendFactory] = {}
_instances: Dict[str, KernelBackend] = {}
_override: Optional[KernelBackend] = None


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register ``factory`` under ``name`` (lazily instantiated, cached)."""
    key = name.strip().lower()
    if key in _factories:
        raise ConfigurationError(f"kernel backend {key!r} already registered")
    _factories[key] = factory


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend."""
    return tuple(_factories)


def get_backend(
    name: Union[str, KernelBackend, None] = None,
) -> KernelBackend:
    """Resolve a backend by name / override / environment (see module doc)."""
    if isinstance(name, KernelBackend):
        return name
    if name is None:
        if _override is not None:
            return _override
        env = os.environ.get(ENV_VAR)
        name = env if env else DEFAULT_BACKEND
    key = name.strip().lower()
    backend = _instances.get(key)
    if backend is None:
        if key not in _factories:
            raise ConfigurationError(
                f"unknown kernel backend {key!r}; expected one of "
                f"{tuple(_factories)}"
            )
        backend = _instances[key] = _factories[key]()
    return backend


@contextmanager
def use_backend(
    name: Union[str, KernelBackend],
) -> Iterator[KernelBackend]:
    """Scoped override of the default backend (nests; test/bench helper)."""
    global _override
    previous = _override
    _override = get_backend(name)
    try:
        yield _override
    finally:
        _override = previous
