"""SpMV / FSAI-application cache simulation entry points.

These functions tie together trace generation (:mod:`repro.cachesim.trace`)
and one cold L1 replay (:func:`repro.cachesim.cache.replay`) and report the
metric the paper's Figure 3 uses: **L1 data-cache misses attributed to the
multiplied vector, normalised by the number of stored matrix entries**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import trace as tracing
from repro.arch.address import ArrayPlacement
from repro.arch.machine import MachineModel
from repro.cachesim.cache import replay
from repro.cachesim.trace import TraceResult, fsai_apply_trace, spmv_trace
from repro.sparse.pattern import Pattern

__all__ = [
    "SpMVSimResult",
    "simulate_spmv",
    "simulate_fsai_application",
    "misses_per_nnz",
]


@dataclass(frozen=True)
class SpMVSimResult:
    """Outcome of one cache simulation.

    Attributes
    ----------
    x_accesses / x_misses:
        L1 accesses and misses attributed to the multiplied vector(s).
    total_accesses / total_misses:
        L1 counters over the whole trace (including streaming structures).
    nnz:
        Stored entries of the simulated pattern(s) — the normaliser of the
        paper's Figure 3 metric.
    """

    x_accesses: int
    x_misses: int
    total_accesses: int
    total_misses: int
    nnz: int

    @property
    def x_miss_ratio(self) -> float:
        """Misses per access on the multiplied vector."""
        return self.x_misses / self.x_accesses if self.x_accesses else 0.0

    @property
    def x_misses_per_nnz(self) -> float:
        """The Figure 3 metric: x-vector L1 misses per stored entry."""
        return self.x_misses / self.nnz if self.nnz else 0.0


def _run(
    trace: TraceResult, machine: MachineModel, nnz: int, *, span_name: str
) -> SpMVSimResult:
    with tracing.span(span_name, accesses=len(trace.lines), nnz=nnz):
        hits = replay(trace.lines, machine.cache_levels[0])
        x_mask = trace.is_x
        result = SpMVSimResult(
            x_accesses=int(x_mask.sum()),
            x_misses=int((~hits[x_mask]).sum()),
            total_accesses=len(hits),
            total_misses=len(hits) - int(hits.sum()),
            nnz=nnz,
        )
        if tracing.enabled():
            tracing.add_counter("cachesim.l1_accesses", result.total_accesses)
            tracing.add_counter("cachesim.l1_misses", result.total_misses)
            tracing.add_counter("cachesim.x_misses", result.x_misses)
    return result


def simulate_spmv(
    pattern: Pattern,
    machine: MachineModel,
    *,
    placement: Optional[ArrayPlacement] = None,
    include_streams: bool = True,
) -> SpMVSimResult:
    """Simulate one ``y = A x`` pass through a cold L1 and report misses.

    Parameters
    ----------
    pattern:
        CSR pattern of the traversed matrix.
    machine:
        Target machine; its first cache level (the L1) and line size are
        simulated.
    placement:
        Placement of ``x``; defaults to line-aligned.
    include_streams:
        Include the streaming accesses of the matrix arrays and ``y``
        (cache pollution).  Disable for the idealised analysis used in
        property tests.
    """
    placement = placement or ArrayPlacement.aligned(machine.line_bytes)
    trace = spmv_trace(pattern, placement, include_streams=include_streams)
    return _run(trace, machine, pattern.nnz, span_name="cachesim.spmv_sim")


def simulate_fsai_application(
    g_pattern: Pattern,
    machine: MachineModel,
    *,
    gt_pattern: Optional[Pattern] = None,
    placement: Optional[ArrayPlacement] = None,
    include_streams: bool = True,
) -> SpMVSimResult:
    """Simulate the preconditioner application ``G^T (G p)`` through a cold L1.

    ``gt_pattern`` is the pattern of the second product's matrix; it
    defaults to the transpose of ``g_pattern`` (callers holding an
    :class:`~repro.fsai.precond.FSAIApplication` pass its cached
    ``gt_pattern``).
    """
    placement = placement or ArrayPlacement.aligned(machine.line_bytes)
    gt = gt_pattern if gt_pattern is not None else g_pattern.transpose()
    trace = fsai_apply_trace(
        g_pattern, gt, placement, include_streams=include_streams
    )
    nnz = (g_pattern.nnz + gt.nnz) // 2  # normalise by nnz(G) as the paper does
    return _run(trace, machine, nnz, span_name="cachesim.fsai_apply_sim")


def misses_per_nnz(
    g_pattern: Pattern,
    machine: MachineModel,
    **kwargs,
) -> float:
    """Convenience wrapper returning only the Figure 3 metric."""
    return simulate_fsai_application(g_pattern, machine, **kwargs).x_misses_per_nnz
