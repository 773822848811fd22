"""FSAI preconditioner family — the paper's core contribution.

Modules
-------
``patterns``
    Initial sparse-pattern construction (threshold + pattern power + lower
    triangle; paper Alg. 1 steps 1-2).
``frobenius``
    Per-row Frobenius-minimal computation of ``G`` (exact, the
    ``fsai_setup`` kernel op) and the loose-tolerance approximate
    precalculation of §5 (the ``fsai_precalc`` kernel op).
``fillin``
    The cache-friendly fill-in algorithm (paper Alg. 3 / §4).
``filtering``
    Standard post-filtration (Alg. 1 step 4) and the proposed
    precalculation-based filtration (§5).
``random_ext``
    Random pattern extension at matched entry counts (Figure 3/4 baseline).
``precond``
    Application object ``p ↦ G^T (G p)`` satisfying the solver protocol.
``extended``
    End-to-end setups: ``setup_fsai`` (baseline), ``setup_fsaie_sp``
    (Alg. 4 w/o steps 5-6) and ``setup_fsaie_full`` (Alg. 4), plus the
    single-step joint-extension ablation of §6.
``cache``
    Bounded LRU of built setups keyed on matrix content, so repeated
    solves against the same operator skip FSAI setup entirely.
``global_iter``
    Global iterative SAI routes (Salkuyeh–Toutounian minimal residual,
    Chebyshev semi-iteration, pattern-capped Newton–Schulz) built on
    capped SpGEMM sweeps.
``registry``
    The method registry: one catalogue mapping method names to builders
    plus capability flags for the cache, runner and CLI.
"""

from repro.fsai.patterns import fsai_initial_pattern
from repro.fsai.frobenius import (
    compute_g,
    precalculate_g,
    resolve_setup_backend,
    setup_flops_direct,
)
from repro.fsai.fillin import extend_pattern_cache_friendly, extension_entries
from repro.fsai.filtering import (
    filter_extension_by_precalc,
    standard_post_filter,
)
from repro.fsai.random_ext import extend_pattern_random
from repro.fsai.precond import FSAIApplication
from repro.fsai.cache import PreconditionerCache, cached_setup, default_cache
from repro.fsai.extended import (
    FSAISetup,
    setup_fsai,
    setup_fsaie_sp,
    setup_fsaie_full,
    setup_fsaie_joint,
    setup_fsaie_random,
)
from repro.fsai.global_iter import (
    GlobalIterInfo,
    global_g_chebyshev,
    global_g_minres,
    global_g_newton_schulz,
    setup_gsai_cheb,
    setup_gsai_ns,
    setup_gsai_st,
)
from repro.fsai.registry import (
    MethodSpec,
    available_methods,
    get_method,
    register_method,
    selectable_methods,
)

__all__ = [
    "fsai_initial_pattern",
    "compute_g",
    "precalculate_g",
    "resolve_setup_backend",
    "setup_flops_direct",
    "extend_pattern_cache_friendly",
    "extension_entries",
    "filter_extension_by_precalc",
    "standard_post_filter",
    "extend_pattern_random",
    "FSAIApplication",
    "FSAISetup",
    "PreconditionerCache",
    "cached_setup",
    "default_cache",
    "setup_fsai",
    "setup_fsaie_sp",
    "setup_fsaie_full",
    "setup_fsaie_joint",
    "setup_fsaie_random",
    "GlobalIterInfo",
    "global_g_chebyshev",
    "global_g_minres",
    "global_g_newton_schulz",
    "setup_gsai_cheb",
    "setup_gsai_ns",
    "setup_gsai_st",
    "MethodSpec",
    "available_methods",
    "get_method",
    "register_method",
    "selectable_methods",
]

# Dynamic-pattern (FSPAI) comparator — §8 composability.
from repro.fsai.adaptive import (  # noqa: E402
    adaptive_pattern,
    setup_fspai,
    setup_fspai_cache_extended,
)

__all__ += [
    "adaptive_pattern",
    "setup_fspai",
    "setup_fspai_cache_extended",
]
