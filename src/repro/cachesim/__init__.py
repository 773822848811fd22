"""Cache-hierarchy simulator.

Pure Python cannot observe hardware cache behaviour, so this subpackage
*simulates* it (see DESIGN.md §2): an exact set-associative LRU cache replays
the memory-access stream of the SpMV kernels and reports hit/miss counts per
level, attributed to the structure that generated each access (the multiplied
vector ``x``, the matrix arrays, the output ``y``).

The three public layers:

* :class:`~repro.cachesim.cache.SetAssociativeCache` — one level, exact LRU;
* :class:`~repro.cachesim.hierarchy.CacheHierarchy` — L1→L2→(L3) stack;
* :mod:`~repro.cachesim.spmv_sim` — SpMV / FSAI-application trace generation
  and the measurement entry points used by the Figure 3 experiment.
"""

from repro.cachesim.cache import (
    CACHE_BACKENDS,
    CacheStats,
    SetAssociativeCache,
    InfiniteCache,
)
from repro.cachesim.engine import (
    LRUSimOutcome,
    count_leq_before,
    previous_occurrence,
    set_stack_distances,
    simulate_set_lru,
    stack_distances_vectorized,
)
from repro.cachesim.hierarchy import CacheHierarchy, LevelStats
from repro.cachesim.trace import (
    REGION_X,
    REGION_MATRIX,
    REGION_Y,
    spmv_trace,
    fsai_apply_trace,
)
from repro.cachesim.spmv_sim import (
    SpMVSimResult,
    simulate_spmv,
    simulate_fsai_application,
    misses_per_nnz,
)
from repro.cachesim.stackdist import (
    StackDistanceProfile,
    profile_stack_distances,
    stack_distances,
)

__all__ = [
    "CACHE_BACKENDS",
    "CacheStats",
    "SetAssociativeCache",
    "InfiniteCache",
    "LRUSimOutcome",
    "count_leq_before",
    "previous_occurrence",
    "set_stack_distances",
    "simulate_set_lru",
    "stack_distances_vectorized",
    "CacheHierarchy",
    "LevelStats",
    "REGION_X",
    "REGION_MATRIX",
    "REGION_Y",
    "spmv_trace",
    "fsai_apply_trace",
    "SpMVSimResult",
    "simulate_spmv",
    "simulate_fsai_application",
    "misses_per_nnz",
    "StackDistanceProfile",
    "profile_stack_distances",
    "stack_distances",
]
