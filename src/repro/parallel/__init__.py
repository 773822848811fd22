"""Thread-parallel execution model.

The paper's implementation is OpenMP-parallel and every experiment runs on
all 40-48 cores of the node (§7.1); SpMV parallelises over row blocks and
the FSAI setup over rows (§4.2: "easily parallelized using threading-based
approaches").  This subpackage models that:

* :class:`~repro.parallel.partition.RowPartition` — contiguous row-block
  partitions balanced by rows or by stored entries, with load-imbalance
  metrics;
* :mod:`~repro.parallel.cost` — a parallel roofline: per-core compute on
  the slowest block, shared memory bandwidth, per-thread private L1s
  simulated independently.
"""

from repro.parallel.partition import RowPartition
from repro.parallel.cost import (
    ParallelSpMVCost,
    estimate_case_seconds,
    order_cases_by_cost,
    parallel_spmv_cost,
    parallel_speedup_curve,
    simulate_parallel_l1_misses,
)

__all__ = [
    "RowPartition",
    "ParallelSpMVCost",
    "estimate_case_seconds",
    "order_cases_by_cost",
    "parallel_spmv_cost",
    "parallel_speedup_curve",
    "simulate_parallel_l1_misses",
]
