"""Method registry: one catalogue of every FSAI setup route.

Before this module, the set of known setup methods was duplicated in
three places — the cache front-end's builder dict, the experiment
runner's ``_SETUPS`` table, and ad-hoc name checks in the CLI.  Adding
the global iterative family (:mod:`repro.fsai.global_iter`) would have
meant a fourth copy, so the registry centralises the mapping from method
name to builder plus the *capability flags* the orchestration layers
need to drive a method correctly:

``uses_filter``
    An Algorithm 4 method (:data:`repro.fsai.extended.METHOD_STEPS`): the
    campaign builds its ``config.filters`` sweep with one
    :func:`~repro.fsai.extended.setup_fsaie_sweep` call; methods without
    it run once per case.
``uses_sweeps``
    The builder takes a ``sweeps`` budget (the global iterations); the
    campaign threads ``config.global_sweeps`` through and records the
    executed count in :class:`~repro.experiments.runner.MethodRun`.
``selectable``
    Whether the campaign accepts the method in ``config.methods``.
    ``fsaie_random`` is registered but not selectable: it needs a
    *reference* setup to mirror, so the runner drives it through the
    dedicated ``include_random_baseline`` switch instead.

Unknown names raise :class:`~repro.errors.ConfigurationError` — a
``ValueError`` subclass, so existing callers catching the cache
front-end's historical ``ValueError`` keep working.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.errors import ConfigurationError
from repro.fsai import extended, global_iter

__all__ = [
    "MethodSpec",
    "register_method",
    "get_method",
    "available_methods",
    "selectable_methods",
]


@dataclass(frozen=True)
class MethodSpec:
    """One registered setup method and how to drive it."""

    name: str
    builder: Callable[..., Any]
    uses_filter: bool = False
    uses_sweeps: bool = False
    selectable: bool = True


_REGISTRY: Dict[str, MethodSpec] = {}


def register_method(spec: MethodSpec) -> None:
    """Add (or replace) a method in the registry."""
    _REGISTRY[spec.name] = spec


def get_method(name: str) -> MethodSpec:
    """Look up a method; unknown names raise :class:`ConfigurationError`.

    The message deliberately keeps the historical ``cached_setup``
    wording ("unknown FSAI setup method ...") — it is part of the error
    contract tests pin.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown FSAI setup method {name!r}; "
            f"expected one of {sorted(_REGISTRY)}"
        ) from None


def available_methods() -> Tuple[str, ...]:
    """Every registered method name, sorted."""
    return tuple(sorted(_REGISTRY))


def selectable_methods() -> Tuple[str, ...]:
    """Names the campaign accepts in ``config.methods``, sorted."""
    return tuple(
        sorted(name for name, spec in _REGISTRY.items() if spec.selectable)
    )


register_method(MethodSpec("fsai", extended.setup_fsai))
register_method(
    MethodSpec("fsaie_sp", extended.setup_fsaie_sp, uses_filter=True)
)
register_method(
    MethodSpec("fsaie_full", extended.setup_fsaie_full, uses_filter=True)
)
register_method(
    MethodSpec("fsaie_joint", extended.setup_fsaie_joint, uses_filter=True)
)
register_method(
    MethodSpec("fsaie_random", extended.setup_fsaie_random, selectable=False)
)
register_method(
    MethodSpec("gsai_st", global_iter.setup_gsai_st, uses_sweeps=True)
)
register_method(
    MethodSpec("gsai_cheb", global_iter.setup_gsai_cheb, uses_sweeps=True)
)
register_method(
    MethodSpec("gsai_ns", global_iter.setup_gsai_ns, uses_sweeps=True)
)
