"""Schedule, correctness ledger, statistics and host record shared by all
workloads.

A workload object provides these steps; the harness times two of them:

``prepare(seed, seconds)``
    Generate every input from the seed.  Never timed.
``warm_up()``
    Run each code path once on a tiny input, so one-time process costs
    (lazy imports, first BLAS call, allocator growth) stay out of both
    timed phases.  Never timed.
``fresh() -> inputs``
    New matrix objects over the generated arrays, so lazy first-use work
    such as building DIA/ELL views is paid in every set-up.  Never timed.
``setup(inputs, recorder) -> state``
    The workload's set-up phase (``setup_s``).
``measure(state, recorder) -> Unit``
    One unit of the measured phase (``solve_s``).  Outcomes are collected
    in the returned :class:`Unit` and checked only after the timer stops.
``check_setup(state, ledger)``, ``close(state)``
    Check every built preconditioner; release the state (stop services).
    Never timed.
``layer_metrics(recorder, state, unit)``
    Workload-specific per-layer metrics of a traced round.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from perfbench.metrics import PER_LAYER
from perfbench.tracing import (
    METHODS, NULL, Recorder, csr_bytes, instrument, layer_metrics,
)

#: A run repeats the measured unit until ``--seconds`` have passed, and at
#: least this many times, so ``solve_s`` is always a median.
MIN_UNITS = 3

#: True residual bound of every solve, relative to its tolerance.
RESIDUAL_FACTOR = 10.0


@dataclass
class Solve:
    """Outcome of one solve: a :class:`SolveResult` or the exception raised.

    ``op`` indexes the operation (``Unit.latencies``) the solve belongs to.
    """

    what: str
    a: Any
    b: np.ndarray
    rtol: float
    op: int
    result: Any = None
    error: Optional[BaseException] = None
    method: Optional[str] = None
    #: The preconditioner application the solve used (kernel report).
    app: Any = None


@dataclass
class Unit:
    """One measured unit: its solves and the latency of each operation.

    An operation is what a user waits for: one preconditioner evaluated
    (campaign), one time step of every pair (timestep), one request
    (serve).  A failed operation's latency is ``inf``.
    """

    solves: List[Solve] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    #: Workload-specific observations (the serve generator's timestamps).
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return sum(
            int(s.result.iterations) for s in self.solves if s.result is not None
        )


@dataclass
class Ledger:
    """Attempted and failed operations; a failure keeps its reason."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def fail(self, what: str) -> None:
        """A check that is not an operation of its own (e.g. repeatability)."""
        self.failed += 1
        self.problems.append(what)


def fresh(a: Any) -> Any:
    """A new matrix object over the same arrays: no cached views."""
    from repro.sparse.csr import CSRMatrix

    return CSRMatrix(a.n_rows, a.n_cols, a.indptr, a.indices, a.data)


def true_relative_residual(a: Any, b: np.ndarray, x: np.ndarray) -> float:
    """``‖b − A x‖ / ‖b‖`` computed with plain numpy, not the kernels."""
    rows = np.repeat(np.arange(a.n_rows), np.diff(a.indptr))
    ax = np.bincount(rows, weights=a.data * x[a.indices], minlength=a.n_rows)
    b_norm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(b - ax))
    return residual / b_norm if b_norm > 0 else residual


def check_solve(ledger: Ledger, solve: Solve) -> bool:
    """Converged flag plus true residual ``≤ RESIDUAL_FACTOR · rtol``."""
    if solve.error is not None or solve.result is None:
        return ledger.record(False, f"{solve.what}: {solve.error!r}")
    if not solve.result.converged:
        return ledger.record(
            False, f"{solve.what}: not converged in {solve.result.iterations}"
        )
    residual = true_relative_residual(solve.a, solve.b, solve.result.x)
    ok = math.isfinite(residual) and residual <= RESIDUAL_FACTOR * solve.rtol
    return ledger.record(ok, f"{solve.what}: true residual {residual:.3e}")


def check_setup(ledger: Ledger, what: str, setup: Any) -> bool:
    """The final pattern contains the base pattern.

    The FSAI baseline is the exception: its §7.1 null-entry filter drops
    entries of ``G`` that come out exactly zero (quick cases 24 and 37
    have some), so there the final pattern must sit inside the base
    pattern and keep the full diagonal.
    """
    base, final = setup.base_pattern, setup.final_pattern
    if setup.method == "fsai":
        rows, cols = final.coo()
        ok = final.is_subset_of(base) and int(np.count_nonzero(rows == cols)) == final.n_rows
    else:
        ok = base.is_subset_of(final)
    return ledger.record(ok, f"{what}: final pattern breaks the base-pattern check")


def check_unit(ledger: Ledger, unit: Unit) -> None:
    for solve in unit.solves:
        if not check_solve(ledger, solve):
            unit.latencies[solve.op] = math.inf


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failures) sort last."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_times() -> Optional[List[int]]:
    """Aggregate ``cpu`` line of ``/proc/stat`` (clock ticks), if readable."""
    try:
        with open("/proc/stat") as fh:
            first = fh.readline().split()
    except OSError:
        return None
    return [int(v) for v in first[1:]]


def steal_record(before: Optional[List[int]], after: Optional[List[int]]) -> Dict[str, Any]:
    """CPU steal over the run: seconds (all CPUs) and share of CPU time."""
    if before is None or after is None or len(before) < 8:
        return {"steal_s": None, "steal_pct": None}
    tick = os.sysconf("SC_CLK_TCK")
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return {
        "steal_s": delta[7] / tick,
        "steal_pct": 100.0 * delta[7] / total if total else 0.0,
    }


def _cache_sizes() -> Dict[str, str]:
    sizes: Dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode; the record says so
        return "unknown"


def host_record(steal: Dict[str, Any]) -> Dict[str, Any]:
    """Everything needed to tell a noisy host apart from slow code."""
    import importlib.util

    from repro.kernels import get_backend

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernel_backend": get_backend().name,
        "numba_present": importlib.util.find_spec("numba") is not None,
        **steal,
    }


def collect() -> None:
    """Collect garbage outside the timers, so no timed phase pays for it."""
    gc.collect()


def timed(fn, *args: Any) -> tuple:
    collect()
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def end_to_end_metrics(
    setup_times: Sequence[float], units: Sequence[Unit]
) -> Dict[str, Dict[str, Any]]:
    """The seven end-to-end metrics of one untraced run."""
    latencies = [latency for u in units for latency in u.latencies]
    total_wall = sum(u.wall_s for u in units)
    completed = sum(1 for latency in latencies if math.isfinite(latency))
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(u.wall_s for u in units), "s"),
        "solves_per_s": (completed / total_wall, "1/s"),
        "latency_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "latency_p99_ms": (1e3 * percentile(latencies, 99), "ms"),
        "iterations": (units[0].iterations, "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_untraced(workload: Any, seconds: float, ledger: Ledger) -> Dict[str, Any]:
    """Repeat set-up, then repeat the measured unit; report medians."""
    workload.warm_up()
    setup_times: List[float] = []
    state = None
    for _ in range(workload.setup_repeats):
        if state is not None:
            workload.close(state)
        inputs = workload.fresh()
        state, elapsed = timed(workload.setup, inputs, NULL)
        setup_times.append(elapsed)
        workload.check_setup(state, ledger)
    units: List[Unit] = []
    start = time.perf_counter()
    try:
        while True:
            unit, unit_wall = timed(workload.measure, state, NULL)
            unit.wall_s = unit_wall
            check_unit(ledger, unit)
            for solve in unit.solves:  # keep the counts, drop the vectors
                solve.a = solve.b = solve.app = None
            units.append(unit)
            if not workload.repeat_measure:
                break
            if len(units) >= MIN_UNITS and time.perf_counter() - start >= seconds:
                break
    finally:
        workload.close(state)
    if len({u.iterations for u in units}) != 1:
        ledger.fail(f"iterations differ between units: {[u.iterations for u in units]}")
    samples = sum(len(u.latencies) for u in units)
    print(
        f"[{workload.name}] setups={len(setup_times)} units={len(units)} "
        f"latency samples={samples} "
        f"({samples - math.ceil(0.99 * samples)} beyond p99)",
        file=sys.stderr,
    )
    return end_to_end_metrics(setup_times, units)


def _round(workload: Any, rec: Any) -> tuple:
    """One set-up plus one measured unit, timed back to back."""
    inputs = workload.fresh()
    collect()
    t0 = time.perf_counter()
    state = workload.setup(inputs, rec)
    t1 = time.perf_counter()
    unit = workload.measure(state, rec)
    t2 = time.perf_counter()
    return state, unit, (t0, t1, t2)


def run_traced(workload: Any, ledger: Ledger, trace_path: Path) -> Dict[str, Any]:
    """An untraced round, then a traced round; per-layer metrics.

    Both rounds must report the same iterations.  The traced round's
    spans are written to ``trace_path``.
    """
    workload.warm_up()
    state, plain, (p0, _, p2) = _round(workload, NULL)
    workload.close(state)
    workload.check_setup(state, ledger)
    check_unit(ledger, plain)

    rec = Recorder()
    with instrument(rec):
        state, unit, (t0, t1, t2) = _round(workload, rec)
    workload.close(state)
    values = layer_metrics(rec, t0, t2)
    values.update(workload.layer_metrics(rec, state, unit))
    values.update(kernel_report(workload.name, unit, values))
    values["trace.overhead_pct"] = 100.0 * ((t2 - t0) - (p2 - p0)) / (p2 - p0)

    workload.check_setup(state, ledger)
    for base, filtered, extended in rec.filter_patterns:
        ledger.record(
            base.is_subset_of(filtered) and filtered.is_subset_of(extended),
            "filtered pattern not between base and extended",
        )
    check_unit(ledger, unit)
    if unit.iterations != plain.iterations:
        ledger.fail(
            f"traced iterations {unit.iterations} != untraced {plain.iterations}"
        )
    share = values["trace.unattributed_s"] / (t2 - t0)
    print(
        f"[{workload.name}] traced phase {t2 - t0:.3f}s (set-up {t1 - t0:.3f}s), "
        f"untraced {p2 - p0:.3f}s, unattributed {100 * share:.2f}%",
        file=sys.stderr,
    )
    rec.write(trace_path, {"workload": workload.name, "setup_s": t1 - t0,
                           "measure_s": t2 - t1})
    return {name: {"value": values.get(name, 0.0), "unit": unit_}
            for name, unit_ in PER_LAYER.items()}


def kernel_report(name: str, unit: Unit, values: Dict[str, float]) -> Dict[str, float]:
    """Computed flops and bytes per PCG iteration next to the roofline model.

    Counts come from ``nnz`` and ``n`` of the operands (CSR streams: values,
    indices, row pointers, input and output vector once per product) and
    are labelled *computed*: they ignore cache misses.  The model column
    is ``repro.perf.costmodel`` for the Skylake model at the campaign's
    cache scale; the measured column is the machine running the benchmark.
    """
    from repro.arch.address import ArrayPlacement
    from repro.arch.presets import get_machine
    from repro.perf.costmodel import CostModel

    machine = get_machine("skylake")
    model = CostModel(machine, cache_scale=0.125,
                      placement=ArrayPlacement.aligned(machine.line_bytes))
    predicted: Dict[tuple, float] = {}
    rows: Dict[str, List[float]] = {m: [0, 0.0, 0.0, 0.0, 0.0, 0.0] for m in METHODS}
    for solve in unit.solves:
        if solve.result is None or solve.app is None or solve.method not in rows:
            continue
        a, g, it = solve.a, solve.app.g, solve.result.iterations
        key = (id(a), id(solve.app))
        if key not in predicted:
            vector = (12 * 8 * a.n_rows) / machine.memory_bandwidth_bps
            predicted[key] = (
                model.spmv_cost(a.pattern).seconds
                + model.fsai_application_cost(
                    solve.app.g_pattern, solve.app.gt_pattern
                ).seconds
                + vector
            )
        row = rows[solve.method]
        row[0] += it
        row[1] += it * 2 * a.nnz
        row[2] += it * csr_bytes(a)
        row[3] += it * 4 * g.nnz
        row[4] += it * 2 * csr_bytes(g)
        row[5] += it * predicted[key]
    print(
        f"[{name}] per PCG iteration: computed from nnz and n (ignores cache "
        "misses) | measured here | modelled (skylake roofline)",
        file=sys.stderr,
    )
    print(
        f"  {'method':<11}{'iters':>8}{'A.p Mflop':>11}{'A.p MB':>9}"
        f"{'GtGp Mflop':>12}{'GtGp MB':>9}{'meas ms/it':>12}{'model ms/it':>13}",
        file=sys.stderr,
    )
    out: Dict[str, float] = {}
    totals = [0.0] * 6
    for method, row in rows.items():
        it = row[0]
        measured = values.get(f"solvers.ms_per_iteration.{method}", 0.0)
        modelled = 1e3 * row[5] / it if it else 0.0
        out[f"model.ms_per_iteration.{method}"] = modelled
        totals = [t + r for t, r in zip(totals, row)]
        if it:
            print(
                f"  {method:<11}{int(it):>8}{row[1] / it / 1e6:>11.3f}"
                f"{row[2] / it / 1e6:>9.3f}{row[3] / it / 1e6:>12.3f}"
                f"{row[4] / it / 1e6:>9.3f}{measured:>12.4f}{modelled:>13.5f}",
                file=sys.stderr,
            )
    it = totals[0]
    out.update({
        "kernels.spmv_flop_per_iter": totals[1] / it if it else 0.0,
        "kernels.spmv_bytes_per_iter": totals[2] / it if it else 0.0,
        "kernels.fsai_apply_flop_per_iter": totals[3] / it if it else 0.0,
        "kernels.fsai_apply_bytes_per_iter": totals[4] / it if it else 0.0,
    })
    return out


def emit(ledger: Ledger, metrics: Dict[str, Any], host: Dict[str, Any]) -> None:
    """Host record line, then the result object as the last stdout line."""
    for problem in ledger.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"host": host}))
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
