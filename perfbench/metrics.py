"""Metric names and units: the one list ``BENCHMARK.json`` mirrors.

Every workload prints every end-to-end metric (``--trace 0``) and every
per-layer metric (``--trace 1``); a layer a workload does not exercise
reads 0.  The layer → metric → workload table is in ``README.md``.
"""

from __future__ import annotations

from typing import Dict

from perfbench.tracing import FSAI_PHASES, METHODS, SELF_METRICS

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "solve_s": "s",
    "solves_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "iterations": "count",
    "peak_rss_mb": "MB",
}


def _per_layer() -> Dict[str, str]:
    units: Dict[str, str] = {}
    fsai_phases = ("pattern", "extend", "precalc", "filter", "exact", "setup_other")
    for phase in fsai_phases:
        units[f"fsai.{phase}_s"] = "s"
    for method in METHODS:
        for phase in FSAI_PHASES[method]:
            units[f"fsai.{phase}_s.{method}"] = "s"
    units.update({
        "fsai.cache_s": "s",
        "fsai.extension_entries": "count",
        "fsai.filter_keep_ratio": "ratio",
        "fsai.g_nnz": "count",
    })
    for metric in SELF_METRICS.values():
        units.setdefault(metric, "s")
    units.update({
        "kernels.spmv_calls": "count",
        "kernels.fsai_apply_calls": "count",
        "kernels.spmv_gb_computed": "GB",
        "kernels.fsai_apply_gb_computed": "GB",
        "kernels.spmv_flop_per_iter": "flop",
        "kernels.spmv_bytes_per_iter": "B",
        "kernels.fsai_apply_flop_per_iter": "flop",
        "kernels.fsai_apply_bytes_per_iter": "B",
        "solvers.pcg_s": "s",
        "solvers.pcg_multi_s": "s",
        "solvers.pcg_multi_width_mean": "count",
        "perf.costmodel_calls": "count",
        "cachesim.accesses": "count",
        "serve.queue_wait_mean_ms": "ms",
        "serve.queue_wait_p99_ms": "ms",
        "serve.batches": "count",
        "serve.batch_width_mean": "count",
        "serve.solver_busy_s": "s",
        "serve.solver_idle_frac": "ratio",
        "serve.cache_hit_ratio": "ratio",
        "serve.rejected": "count",
        "serve.timeouts": "count",
        "serve.failed": "count",
        "trace.unattributed_s": "s",
        "trace.overhead_pct": "%",
    })
    for method in METHODS:
        units[f"solvers.ms_per_iteration.{method}"] = "ms"
        units[f"model.ms_per_iteration.{method}"] = "ms"
    return units


PER_LAYER: Dict[str, str] = _per_layer()
