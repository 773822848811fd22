"""Parallel roofline for thread-parallel SpMV.

Model
-----
With ``p`` threads on contiguous row blocks:

* compute time is set by the slowest block at the per-core sustained rate
  ``machine.spmv_flops / machine.cores``;
* streamed bytes share the node's memory bandwidth (the aggregate roofline
  term — SpMV saturates DRAM long before compute on all three target
  systems, which is why the paper uses all cores);
* every thread has a private L1: the x-vector misses of each block are
  simulated against a fresh cache, and their line fills are charged to the
  shared bandwidth with the random-access penalty.

This reproduces the two first-order parallel effects: bandwidth saturation
(speedup flattens at the roofline knee) and load imbalance (nnz-balanced
partitions beat row-balanced ones on skewed matrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.arch.address import ArrayPlacement
from repro.arch.machine import MachineModel
from repro.cachesim.spmv_sim import simulate_spmv
from repro.errors import ConfigurationError
from repro.parallel.partition import RowPartition
from repro.perf.costmodel import (
    RANDOM_ACCESS_PENALTY,
    STREAM_BYTES_PER_NNZ,
    STREAM_BYTES_PER_ROW,
    scale_caches,
)
from repro.sparse.pattern import Pattern

__all__ = [
    "ParallelSpMVCost",
    "simulate_parallel_l1_misses",
    "parallel_spmv_cost",
    "parallel_speedup_curve",
    "estimate_case_seconds",
    "order_cases_by_cost",
]


@dataclass(frozen=True)
class ParallelSpMVCost:
    """Modelled cost of one thread-parallel SpMV."""

    n_threads: int
    seconds: float
    compute_seconds: float
    memory_seconds: float
    imbalance: float
    x_misses_total: int

    @property
    def bound(self) -> str:
        """Which roofline term dominates: ``"compute"`` or ``"memory"``."""
        return "compute" if self.compute_seconds >= self.memory_seconds else "memory"


def simulate_parallel_l1_misses(
    pattern: Pattern,
    machine: MachineModel,
    partition: RowPartition,
    *,
    placement: Optional[ArrayPlacement] = None,
    cache_scale: float = 1.0,
    include_streams: bool = True,
) -> List[int]:
    """Per-thread x-vector L1 miss counts (private caches).

    Each block is replayed against its own (scaled) L1 — threads do not
    share first-level caches on any of the paper's machines.
    """
    placement = placement or ArrayPlacement.aligned(machine.line_bytes)
    sim_machine = scale_caches(machine, cache_scale)
    misses = []
    for t in range(partition.n_parts):
        sub = partition.restrict_pattern(pattern, t)
        if sub.nnz == 0:
            misses.append(0)
            continue
        res = simulate_spmv(
            sub, sim_machine, placement=placement,
            include_streams=include_streams,
        )
        misses.append(res.x_misses)
    return misses


def parallel_spmv_cost(
    pattern: Pattern,
    machine: MachineModel,
    n_threads: int,
    *,
    partition: Optional[RowPartition] = None,
    placement: Optional[ArrayPlacement] = None,
    cache_scale: float = 1.0,
) -> ParallelSpMVCost:
    """Parallel roofline cost of ``y = A x`` with ``n_threads`` threads."""
    if n_threads < 1 or n_threads > machine.cores:
        raise ConfigurationError(
            f"n_threads must be in [1, {machine.cores}], got {n_threads}"
        )
    partition = partition or RowPartition.by_nnz(pattern, n_threads)
    if partition.n_parts != n_threads:
        raise ConfigurationError("partition size disagrees with n_threads")

    nnz_per_block = partition.nnz_per_block(pattern).astype(np.float64)
    per_core_flops = machine.spmv_flops / machine.cores

    # Compute: slowest block.
    compute_seconds = float(
        (2.0 * nnz_per_block.max()) / per_core_flops
    )

    # Memory: aggregate streams + penalised x-line fills over all threads.
    misses = simulate_parallel_l1_misses(
        pattern, machine, partition,
        placement=placement, cache_scale=cache_scale,
    )
    streamed = (
        STREAM_BYTES_PER_NNZ * pattern.nnz
        + STREAM_BYTES_PER_ROW * pattern.n_rows
    )
    x_bytes = sum(misses) * machine.line_bytes
    memory_seconds = (
        streamed + RANDOM_ACCESS_PENALTY * x_bytes
    ) / machine.memory_bandwidth_bps

    return ParallelSpMVCost(
        n_threads=n_threads,
        seconds=max(compute_seconds, memory_seconds),
        compute_seconds=compute_seconds,
        memory_seconds=memory_seconds,
        imbalance=partition.imbalance(pattern),
        x_misses_total=int(sum(misses)),
    )


# ----------------------------------------------------------------------
# Campaign scheduling cost model.
#
# The orchestrator (repro.experiments.orchestrator) shards the suite at
# case granularity; with heterogeneous cases, longest-processing-time-first
# ordering bounds the makespan at (4/3 - 1/3p) x optimal, so it needs a
# *static* per-case cost estimate available without building the matrix.
# ----------------------------------------------------------------------

#: Equivalent-iterations weight of one setup pass: one batched solve of a
#: case's local systems, exact (``G``) or truncated (§5 precalc).  The
#: earlier weight of 60 per whole setup, calibrated on the quick
#: cross-section, covered 9 setups = 21 passes per case; 60 · 9 / 21 ≈ 26.
PASS_EQUIVALENT_ITERATIONS = 26.0


def estimate_case_seconds(case, *, n_passes: int = 14) -> float:
    """Static cost estimate of one campaign case, in arbitrary seconds.

    Uses only the suite registry's paper metadata — the synthetic suite is
    tuned so its per-case difficulty ordering tracks the paper's, which
    makes ``fsai_iters`` a usable iteration-count proxy and ``nnz`` a
    usable size proxy (sizes are uniformly scaled down, preserving order).
    Absolute values are meaningless; only the *relative* ordering and the
    rough magnitude ratios matter for scheduling and ETA estimation.

    Parameters
    ----------
    case:
        A :class:`repro.collection.suite.MatrixCase`.
    n_passes:
        Setup passes the experiment grid runs per case (see
        :func:`repro.fsai.extended.sweep_passes`); the default is
        :class:`~repro.experiments.runner.ExperimentConfig`'s grid: FSAI,
        5 distinct precalcs and 8 exact FSAIE solves.
    """
    iters = float(case.paper.fsai_iters)
    size = float(np.sqrt(case.paper.nnz))
    return 1e-6 * size * (iters + n_passes * PASS_EQUIVALENT_ITERATIONS)


def order_cases_by_cost(cases, *, n_passes: int = 14):
    """Cases sorted most-expensive-first (LPT order), ties by case id.

    Deterministic: equal estimates fall back to ascending case id, so the
    orchestrator's task queue is reproducible run-to-run.
    """
    return sorted(
        cases,
        key=lambda c: (-estimate_case_seconds(c, n_passes=n_passes), c.case_id),
    )


def parallel_speedup_curve(
    pattern: Pattern,
    machine: MachineModel,
    thread_counts: Sequence[int],
    *,
    cache_scale: float = 1.0,
) -> List[ParallelSpMVCost]:
    """Cost at each thread count (nnz-balanced partitions)."""
    return [
        parallel_spmv_cost(
            pattern, machine, p, cache_scale=cache_scale
        )
        for p in thread_counts
    ]
