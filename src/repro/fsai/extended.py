"""End-to-end FSAI setups: baseline, FSAIE(sp), FSAIE(full) and ablations.

Each ``setup_*`` function runs the full pipeline of its method and returns a
:class:`FSAISetup` carrying the application object, every intermediate
pattern, and a per-phase flop ledger that the performance model converts to
the paper's setup-time column (§7.4).

Method ↔ paper mapping
----------------------
========================  ====================================================
:func:`setup_fsai`        Algorithm 1 as configured in §7.1 (pattern =
                          ``tril(A)``, no thresholding, null-entry filter).
:func:`setup_fsaie_sp`    Algorithm 4 without steps 5-6: one cache-friendly
                          extension optimising the ``G p`` product.
:func:`setup_fsaie_full`  Algorithm 4 complete: second extension on the
                          transposed pattern optimising ``G^T q``.
:func:`setup_fsaie_joint` §6 ablation: extending ``G`` and ``G^T`` patterns
                          *simultaneously* (single precalc+filter pass) —
                          shown by the paper to break cache-friendliness.
:func:`setup_fsaie_random` §7.3 baseline: random extension at matched
                          per-row entry counts.
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro import trace
from repro.arch.address import ArrayPlacement
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

__all__ = [
    "FSAISetup",
    "setup_fsai",
    "setup_fsaie_sp",
    "setup_fsaie_full",
    "setup_fsaie_joint",
    "setup_fsaie_random",
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


def _base(a: CSRMatrix, level: int, threshold: float) -> Pattern:
    return fsai_initial_pattern(a, level=level, threshold=threshold)


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
    with trace.span("fsai.setup", method="fsai", n=a.n_rows):
        base = _base(a, level, threshold)
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


def setup_fsaie_sp(
    a: CSRMatrix,
    placement: ArrayPlacement,
    *,
    filter_value: float = DEFAULT_FILTER,
    level: int = 1,
    threshold: float = 0.0,
    precalc_rtol: float = 1e-2,
    precalc_iterations: int = 20,
    setup_backend: Optional[str] = None,
) -> FSAISetup:
    """FSAIE(sp): one cache-friendly extension + precalc filtering.

    Optimises spatial locality of the ``G p`` product; the paper notes the
    extension *also* improves temporal locality of ``G^T q`` for free
    (§4.3).
    """
    with trace.span(
        "fsai.setup", method="fsaie_sp", n=a.n_rows, filter_value=filter_value
    ):
        return _extend_filter_exact(
            a, _base(a, level, threshold), placement, method="fsaie_sp",
            filter_value=filter_value, precalc_rtol=precalc_rtol,
            precalc_iterations=precalc_iterations, setup_backend=setup_backend,
        )


def _extend_filter_exact(
    a: CSRMatrix, base: Pattern, placement: ArrayPlacement, *, method: str,
    filter_value: float, precalc_rtol: float = DEFAULT_PRECALC_RTOL,
    precalc_iterations: int = DEFAULT_PRECALC_ITERATIONS,
    setup_backend: Optional[str] = None, flops: Optional[Dict[str, int]] = None,
) -> FSAISetup:
    """FSAIE(sp)'s extend → precalc → filter → exact body on any ``base``.

    ``flops`` holds the caller's earlier ledger phases.  The four stages
    are this module's globals, looked up per call: perfbench's traced
    round wraps them here.
    """
    extended = extend_pattern_cache_friendly(base, placement, triangular="lower")
    g_approx = precalculate_g(
        a, extended, rtol=precalc_rtol, max_iterations=precalc_iterations,
        backend=setup_backend,
    )
    s_ext = filter_extension_by_precalc(g_approx, base, filter_value)
    g = compute_g(a, s_ext, backend=setup_backend)
    return FSAISetup(
        method=method,
        application=FSAIApplication(g),
        base_pattern=base,
        final_pattern=s_ext,
        flops={
            **(flops or {}),
            "precalc1": setup_flops_precalc(extended, precalc_iterations),
            "direct": setup_flops_direct(s_ext),
        },
        filter_value=filter_value,
    )


def setup_fsaie_full(
    a: CSRMatrix,
    placement: ArrayPlacement,
    *,
    filter_value: float = DEFAULT_FILTER,
    level: int = 1,
    threshold: float = 0.0,
    precalc_rtol: float = 1e-2,
    precalc_iterations: int = 20,
    setup_backend: Optional[str] = None,
) -> FSAISetup:
    """FSAIE(full): Algorithm 4 — two-step extension of ``G`` then ``G^T``.

    Step order matters (§6): the transpose extension runs on the *filtered*
    first extension, which is what keeps every added entry cache-friendly
    for its own product.
    """
    with trace.span(
        "fsai.setup", method="fsaie_full", n=a.n_rows, filter_value=filter_value
    ):
        base = _base(a, level, threshold)
        # Steps 3-4: extend G's pattern, precalculate, filter.
        ext1 = extend_pattern_cache_friendly(base, placement, triangular="lower")
        g_approx1 = precalculate_g(
            a, ext1, rtol=precalc_rtol, max_iterations=precalc_iterations,
            backend=setup_backend,
        )
        s_ext = filter_extension_by_precalc(g_approx1, base, filter_value)
        # Steps 5-6: extend (S_ext)^T, precalculate, filter.
        ext2_t = extend_pattern_cache_friendly(
            s_ext.transpose(), placement, triangular="upper"
        )
        ext2 = ext2_t.transpose()  # back to the lower-triangular world of G
        g_approx2 = precalculate_g(
            a, ext2, rtol=precalc_rtol, max_iterations=precalc_iterations,
            backend=setup_backend,
        )
        final = filter_extension_by_precalc(g_approx2, s_ext, filter_value)
        # Step 7: exact G on the final pattern.
        g = compute_g(a, final, backend=setup_backend)
        return FSAISetup(
            method="fsaie_full",
            application=FSAIApplication(g),
            base_pattern=base,
            final_pattern=final,
            flops={
                "precalc1": setup_flops_precalc(ext1, precalc_iterations),
                "precalc2": setup_flops_precalc(ext2, precalc_iterations),
                "direct": setup_flops_direct(final),
            },
            filter_value=filter_value,
        )


def setup_fsaie_joint(
    a: CSRMatrix,
    placement: ArrayPlacement,
    *,
    filter_value: float = DEFAULT_FILTER,
    level: int = 1,
    threshold: float = 0.0,
    precalc_rtol: float = 1e-2,
    precalc_iterations: int = 20,
    setup_backend: Optional[str] = None,
) -> FSAISetup:
    """§6 ablation: simultaneous extension of ``G`` and ``G^T`` patterns.

    Both extensions start from the *base* pattern and are unioned before a
    single precalculation + filtering pass.  The paper warns this "may
    produce non cache-friendly extended entries": entries added for the
    transposed product land in rows of ``G`` whose cache lines the first
    product never touched (and vice versa after filtering).  The ablation
    bench quantifies the resulting miss increase.
    """
    with trace.span(
        "fsai.setup", method="fsaie_joint", n=a.n_rows, filter_value=filter_value
    ):
        base = _base(a, level, threshold)
        ext_g = extend_pattern_cache_friendly(base, placement, triangular="lower")
        ext_gt = extend_pattern_cache_friendly(
            base.transpose(), placement, triangular="upper"
        ).transpose()
        joint = ext_g.union(ext_gt)
        g_approx = precalculate_g(
            a, joint, rtol=precalc_rtol, max_iterations=precalc_iterations,
            backend=setup_backend,
        )
        final = filter_extension_by_precalc(g_approx, base, filter_value)
        g = compute_g(a, final, backend=setup_backend)
        return FSAISetup(
            method="fsaie_joint",
            application=FSAIApplication(g),
            base_pattern=base,
            final_pattern=final,
            flops={
                "precalc1": setup_flops_precalc(joint, precalc_iterations),
                "direct": setup_flops_direct(final),
            },
            filter_value=filter_value,
        )


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
