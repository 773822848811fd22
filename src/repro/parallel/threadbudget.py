"""Thread-budget policy for multi-process campaign and serving runs.

A worker pool multiplies two levels of parallelism: ``jobs`` worker
*processes*, each of which may run a threaded runtime (an OpenMP-backed
BLAS honours ``OMP_NUM_THREADS``).  Left alone, ``jobs ×
default-thread-pool`` oversubscribes the machine — every worker would
size its pool to *all* cores.  The policy here is the obvious ceiling:
``workers × threads ≤ cores``, i.e. each worker gets ``cores // jobs``
threads (at least one).

The orchestrator computes the budget once in the parent
(:func:`thread_budget_env`) and ships it to each worker, which applies it
(:func:`apply_thread_budget`) before running any case, so it bounds every
runtime the worker initialises afterwards.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

__all__ = [
    "THREAD_ENV_VARS",
    "threads_per_worker",
    "thread_budget_env",
    "apply_thread_budget",
]

#: Environment variables the budget is exported through: OpenMP's, which
#: covers any OpenMP-backed BLAS the worker links.
THREAD_ENV_VARS = ("OMP_NUM_THREADS",)


def threads_per_worker(jobs: int, *, cores: Optional[int] = None) -> int:
    """Threads each of ``jobs`` workers may use: ``max(1, cores // jobs)``."""
    if cores is None:
        cores = os.cpu_count() or 1
    return max(1, cores // max(1, jobs))


def thread_budget_env(jobs: int, *, cores: Optional[int] = None) -> Dict[str, str]:
    """Environment mapping exporting the per-worker budget."""
    budget = str(threads_per_worker(jobs, cores=cores))
    return {var: budget for var in THREAD_ENV_VARS}


def apply_thread_budget(env: Dict[str, str]) -> None:
    """Apply a budget inside a worker process: set the env vars, which
    bound every runtime initialised after this point."""
    os.environ.update(env)
