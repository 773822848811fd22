"""Cache simulator.

Pure Python cannot observe hardware cache behaviour, so this subpackage
*simulates* it (see DESIGN.md §2): the memory-access stream of one SpMV or
``G^T (G p)`` application is replayed through a cold, exact true-LRU L1,
and its misses are attributed to the structure that generated each access
(the multiplied vector ``x``, the matrix arrays, the output ``y``).

The public layers:

* :mod:`~repro.cachesim.trace` — SpMV / FSAI-application trace generation;
* :func:`~repro.cachesim.cache.replay` — the L1 hit mask of one trace
  (the vectorized window scan :func:`~repro.cachesim.engine.lru_hits`,
  with the per-access ``OrderedDict`` walk as its oracle);
* :mod:`~repro.cachesim.spmv_sim` — the measurement entry points used by
  the Figure 3 experiment and the roofline cost model;
* :mod:`~repro.cachesim.stackdist` — stack-distance (miss-ratio curve)
  profiles, on the engine's exact merge count
  (:func:`~repro.cachesim.engine.stack_distances_vectorized`).
"""

from repro.cachesim.cache import CACHE_BACKENDS, replay
from repro.cachesim.engine import (
    count_leq_before,
    lru_hits,
    previous_occurrence,
    stack_distances_vectorized,
)
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
    "replay",
    "count_leq_before",
    "lru_hits",
    "previous_occurrence",
    "stack_distances_vectorized",
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
