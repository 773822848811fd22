"""End-to-end FSAI setups: baseline, the FSAIE family and ablations.

Each ``setup_*`` function runs the full pipeline of its method and returns a
:class:`FSAISetup` carrying the application object, every intermediate
pattern, and a per-phase flop ledger that the performance model converts to
the paper's setup-time column (§7.4).

Algorithm 4 is written once, in :func:`setup_fsaie_sweep`.  A method is a
list of extension steps (:data:`METHOD_STEPS`); each step extends the
current pattern, precalculates ``G`` on it (§5) and filters back to it,
and the exact ``G`` follows the last step:

===============  ================  ==========================================
method           steps             paper
===============  ================  ==========================================
``fsaie_sp``     lower             Algorithm 4 without steps 5-6: one
                                   extension for the ``G p`` product
``fsaie_full``   lower, upper      Algorithm 4 complete: a second extension
                                   of the transposed pattern for ``G^T q``
``fsaie_joint``  joint             §6 ablation: both extensions from the
                                   base at once, one precalc and filter
``fspai_ext``    lower             §9: FSAIE(sp) on the adaptive FSPAI base
                                   (:mod:`repro.fsai.adaptive`)
===============  ================  ==========================================

:func:`setup_fsaie_sp`, :func:`setup_fsaie_full` and
:func:`setup_fsaie_joint` are one-filter calls into the sweep.
:func:`setup_fsai` is Algorithm 1 as configured in §7.1 (pattern =
``tril(A)``, no thresholding, null-entry filter) and
:func:`setup_fsaie_random` the §7.3 random extension at matched per-row
entry counts.

The pipeline stages (``fsai_initial_pattern``,
``extend_pattern_cache_friendly``, ``precalculate_g``,
``filter_extension_by_precalc``, ``compute_g``) are this module's globals,
looked up per call: perfbench's traced round wraps them here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.errors import ConfigurationError
from repro.fsai.fillin import extend_pattern_cache_friendly
from repro.fsai.filtering import filter_extension_by_precalc
from repro.fsai.frobenius import (
    DEFAULT_PRECALC_ITERATIONS,
    DEFAULT_PRECALC_RTOL,
    compute_g,
    precalculate_g,
    setup_flops_direct,
    setup_flops_precalc,
)
from repro.fsai.patterns import fsai_initial_pattern
from repro.fsai.precond import FSAIApplication
from repro.fsai.random_ext import extend_pattern_random
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import Pattern
from repro.sparse.validate import require_spd_screen

__all__ = [
    "FSAISetup",
    "setup_fsai",
    "setup_fsaie_sp",
    "setup_fsaie_full",
    "setup_fsaie_joint",
    "setup_fsaie_random",
    "setup_fsaie_sweep",
    "sweep_passes",
    "METHOD_STEPS",
]

#: Default *filter* for the headline experiments (best common value, §7.2).
DEFAULT_FILTER = 0.01


@dataclass
class FSAISetup:
    """Everything produced by one FSAI setup.

    Attributes
    ----------
    method:
        A name from the method registry (:mod:`repro.fsai.registry`):
        ``"fsai"`` / ``"fsaie_sp"`` / ``"fsaie_full"`` / ``"fsaie_joint"`` /
        ``"fsaie_random"`` here, or one of the global iterative methods
        built in :mod:`repro.fsai.global_iter` (``"gsai_st"`` /
        ``"gsai_cheb"`` / ``"gsai_ns"``).
    application:
        The solver-facing preconditioner.
    base_pattern:
        The a-priori pattern (lower triangle of ``Ã^N``).
    final_pattern:
        Pattern of the computed ``G``.
    flops:
        Per-phase flop ledger (keys: ``precalc1``, ``precalc2``, ``direct``,
        or ``global`` for the iterative methods); the cost model maps the
        total to setup seconds.
    filter_value:
        Filter parameter used (``None`` for the baseline).
    sweeps:
        Global-iteration sweeps actually executed (``None`` for the local
        Frobenius methods, which have no sweep notion).
    """

    method: str
    application: FSAIApplication
    base_pattern: Pattern
    final_pattern: Pattern
    flops: Dict[str, int] = field(default_factory=dict)
    filter_value: Optional[float] = None
    sweeps: Optional[int] = None

    @property
    def g(self) -> CSRMatrix:
        return self.application.g

    @property
    def setup_flops(self) -> int:
        """Total flops across all setup phases."""
        return int(sum(self.flops.values()))

    @property
    def nnz_increase_pct(self) -> float:
        """Paper's %NNZ: pattern-entry increase over the FSAI base pattern."""
        if self.base_pattern.nnz == 0:
            return 0.0
        return 100.0 * (self.final_pattern.nnz - self.base_pattern.nnz) / self.base_pattern.nnz

    def added_per_row(self) -> np.ndarray:
        """Entries added per row w.r.t. the base pattern (random-baseline input)."""
        return np.asarray(
            self.final_pattern.row_lengths() - self.base_pattern.row_lengths()
        )

    def __repr__(self) -> str:
        return (
            f"FSAISetup({self.method}, n={self.final_pattern.n_rows}, "
            f"nnz={self.final_pattern.nnz}, +{self.nnz_increase_pct:.2f}%)"
        )


def setup_fsai(
    a: CSRMatrix,
    *,
    level: int = 1,
    threshold: float = 0.0,
    setup_backend: Optional[str] = None,
) -> FSAISetup:
    """Baseline FSAI (paper Alg. 1 in the §7.1 configuration).

    ``setup_backend`` selects the local-solve implementation exactly as
    :func:`repro.fsai.frobenius.compute_g`'s ``backend`` does (``None``
    resolves via ``$REPRO_KERNEL_BACKEND``, then ``"auto"``).
    """
    require_spd_screen(a)
    with trace.span("fsai.setup", method="fsai", n=a.n_rows):
        base = fsai_initial_pattern(a, level=level, threshold=threshold)
        g = compute_g(a, base, backend=setup_backend).prune_zeros()
        final = g.pattern
        return FSAISetup(
            method="fsai",
            application=FSAIApplication(g),
            base_pattern=base,
            final_pattern=final,
            flops={"direct": setup_flops_direct(base)},
            filter_value=None,
        )


#: Algorithm 4's extension steps per method.  ``"lower"`` extends ``G``'s
#: pattern for the ``G p`` product (steps 3-4), ``"upper"`` the transposed
#: pattern for ``G^T q`` (steps 5-6), ``"joint"`` both from one pattern.
METHOD_STEPS: Dict[str, Tuple[str, ...]] = {
    "fsaie_sp": ("lower",),
    "fsaie_full": ("lower", "upper"),
    "fsaie_joint": ("joint",),
    "fspai_ext": ("lower",),
}


def _extend(pattern: Pattern, placement: ArrayPlacement, step: str) -> Pattern:
    """One step's cache-friendly extension of a lower-triangular pattern."""
    if step == "upper":
        return extend_pattern_cache_friendly(
            pattern.transpose(), placement, triangular="upper"
        ).transpose()
    lower = extend_pattern_cache_friendly(pattern, placement, triangular="lower")
    if step == "joint":
        return lower.union(_extend(pattern, placement, "upper"))
    return lower


def _state(steps: Tuple[str, ...], k: int, filter_value: float) -> tuple:
    """Key of the pattern after ``k`` of ``steps`` at ``filter_value``;
    ``k = 0`` is the base, the same for every filter."""
    return steps[:k], (filter_value if k else None)


def sweep_passes(methods: Sequence[str], filter_values: Sequence[float]) -> int:
    """Batched local-system passes of one :func:`setup_fsaie_sweep` call:
    its distinct precalcs plus one exact ``G`` per setup."""
    precalcs = {
        (_state(METHOD_STEPS[m], k, f), step)
        for m in methods for f in filter_values
        for k, step in enumerate(METHOD_STEPS[m])
    }
    return len(precalcs) + len(methods) * len(filter_values)


def setup_fsaie_sweep(
    a: CSRMatrix,
    placement: ArrayPlacement,
    methods: Sequence[str],
    filter_values: Sequence[float],
    *,
    extra: Sequence[Tuple[str, float]] = (),
    base: Optional[Callable[[], Tuple[Pattern, Dict[str, int]]]] = None,
    level: int = 1,
    threshold: float = 0.0,
    precalc_rtol: float = DEFAULT_PRECALC_RTOL,
    precalc_iterations: int = DEFAULT_PRECALC_ITERATIONS,
    setup_backend: Optional[str] = None,
) -> Dict[Tuple[str, float], FSAISetup]:
    """Algorithm 4 for every ``(method, filter)`` of ``methods × filter_values``
    and ``extra``, keyed by that pair.

    Each method runs its :data:`METHOD_STEPS` from the base pattern: a step
    extends the current pattern, precalculates ``G`` on the extension and
    filters back to the current pattern; the exact ``G`` (step 7) follows
    the last step.  Within one call, a step's extension and precalc from a
    given pattern, and a filtered pattern at a given filter value, are each
    computed once: FSAIE(sp) and FSAIE(full) share their first extension
    and precalc across all filters and their first filter per value.

    Every setup opens its own ``fsai.setup`` span (shared work lands in
    the first setup that needs it), and its ``flops`` ledger is what the
    method records when built alone.  ``base`` returns the starting
    pattern and its ledger entries, built inside the first span; by
    default it is :func:`fsai_initial_pattern`, with no entries.
    """
    require_spd_screen(a)
    grid = dict.fromkeys([*((m, f) for m in methods for f in filter_values), *extra])
    unknown = sorted({m for m, _ in grid} - set(METHOD_STEPS))
    if unknown:
        raise ConfigurationError(f"no Algorithm 4 step list for {unknown}")
    patterns: Dict[tuple, Pattern] = {}  # _state → filtered pattern
    precalcs: Dict[tuple, CSRMatrix] = {}  # (source _state, step) → precalc
    base_flops: Dict[str, int] = {}
    setups: Dict[Tuple[str, float], FSAISetup] = {}
    for method, f in grid:
        with trace.span("fsai.setup", method=method, n=a.n_rows, filter_value=f):
            if not patterns:
                patterns[(), None], base_flops = base() if base else (
                    fsai_initial_pattern(a, level=level, threshold=threshold), {}
                )
            steps, flops = METHOD_STEPS[method], dict(base_flops)
            pattern = patterns[(), None]
            for k, step in enumerate(steps):
                key = _state(steps, k, f), step
                if key not in precalcs:
                    precalcs[key] = precalculate_g(
                        a, _extend(pattern, placement, step),
                        rtol=precalc_rtol, max_iterations=precalc_iterations,
                        backend=setup_backend,
                    )
                flops[f"precalc{k + 1}"] = setup_flops_precalc(
                    precalcs[key].pattern, precalc_iterations
                )
                target = _state(steps, k + 1, f)
                if target not in patterns:
                    patterns[target] = filter_extension_by_precalc(
                        precalcs[key], pattern, f
                    )
                pattern = patterns[target]
            g = compute_g(a, pattern, backend=setup_backend)
            setups[method, f] = FSAISetup(
                method=method,
                application=FSAIApplication(g),
                base_pattern=patterns[(), None],
                final_pattern=pattern,
                flops={**flops, "direct": setup_flops_direct(pattern)},
                filter_value=f,
            )
    return setups


def _one_filter(
    method: str,
    a: CSRMatrix,
    placement: ArrayPlacement,
    *,
    filter_value: float = DEFAULT_FILTER,
    level: int = 1,
    threshold: float = 0.0,
    precalc_rtol: float = DEFAULT_PRECALC_RTOL,
    precalc_iterations: int = DEFAULT_PRECALC_ITERATIONS,
    setup_backend: Optional[str] = None,
) -> FSAISetup:
    return setup_fsaie_sweep(
        a, placement, (method,), (filter_value,), level=level,
        threshold=threshold, precalc_rtol=precalc_rtol,
        precalc_iterations=precalc_iterations, setup_backend=setup_backend,
    )[method, filter_value]


def setup_fsaie_sp(
    a: CSRMatrix, placement: ArrayPlacement, **options: Any
) -> FSAISetup:
    """FSAIE(sp): one cache-friendly extension + precalc filtering.

    Optimises spatial locality of the ``G p`` product; the paper notes the
    extension *also* improves temporal locality of ``G^T q`` for free
    (§4.3).  ``options``: ``filter_value`` (default :data:`DEFAULT_FILTER`)
    and :func:`setup_fsaie_sweep`'s ``level``, ``threshold``,
    ``precalc_rtol``, ``precalc_iterations`` and ``setup_backend``.
    """
    return _one_filter("fsaie_sp", a, placement, **options)


def setup_fsaie_full(
    a: CSRMatrix, placement: ArrayPlacement, **options: Any
) -> FSAISetup:
    """FSAIE(full): Algorithm 4 — two-step extension of ``G`` then ``G^T``.

    Step order matters (§6): the transpose extension runs on the *filtered*
    first extension, which is what keeps every added entry cache-friendly
    for its own product.  ``options`` as in :func:`setup_fsaie_sp`.
    """
    return _one_filter("fsaie_full", a, placement, **options)


def setup_fsaie_joint(
    a: CSRMatrix, placement: ArrayPlacement, **options: Any
) -> FSAISetup:
    """§6 ablation: simultaneous extension of ``G`` and ``G^T`` patterns.

    Both extensions start from the *base* pattern and are unioned before a
    single precalculation + filtering pass.  The paper warns this "may
    produce non cache-friendly extended entries": entries added for the
    transposed product land in rows of ``G`` whose cache lines the first
    product never touched (and vice versa after filtering).  The ablation
    bench quantifies the resulting miss increase.  ``options`` as in
    :func:`setup_fsaie_sp`.
    """
    return _one_filter("fsaie_joint", a, placement, **options)


def setup_fsaie_random(
    a: CSRMatrix,
    reference: FSAISetup,
    *,
    seed: int = 0,
    setup_backend: Optional[str] = None,
) -> FSAISetup:
    """§7.3 baseline: random extension with ``reference``'s per-row counts.

    The random pattern receives exactly as many new entries per row as the
    reference cache-friendly setup added (where the admissible range allows
    it), and the exact ``G`` is computed on it — so any performance gap to
    the reference is attributable purely to *where* the entries sit.
    """
    with trace.span("fsai.setup", method="fsaie_random", n=a.n_rows):
        base = reference.base_pattern
        random_pattern = extend_pattern_random(
            base, reference.added_per_row(), triangular="lower", seed=seed
        )
        g = compute_g(a, random_pattern, backend=setup_backend)
        return FSAISetup(
            method="fsaie_random",
            application=FSAIApplication(g),
            base_pattern=base,
            final_pattern=random_pattern,
            flops={"direct": setup_flops_direct(random_pattern)},
            filter_value=reference.filter_value,
        )
