"""Single-experiment runner: one matrix × method × filter × machine.

Responsibilities split exactly as in DESIGN.md §2: *iteration counts* come
from real PCG solves with the actually-computed preconditioners; *times* come
from the roofline cost model over simulated cache traffic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.arch.machine import MachineModel
from repro.arch.presets import get_machine
from repro.collection.suite import MatrixCase, get_case
from repro.errors import ConfigurationError
from repro.fsai.frobenius import resolve_setup_backend
from repro.fsai.extended import (
    FSAISetup,
    setup_fsai,
    setup_fsaie_random,
    setup_fsaie_sweep,
)
from repro.fsai.registry import get_method
from repro.kernels import get_backend
from repro.perf.costmodel import CostModel, KernelCost
from repro.solvers.cg import pcg
from repro.sparse.csr import CSRMatrix
from repro.trace import TraceSummary

__all__ = ["ExperimentConfig", "MethodRun", "CaseResult", "run_case", "make_rhs"]

#: Filter sweep of the paper's Tables 2/4/5.
PAPER_FILTERS: Tuple[float, ...] = (0.0, 0.001, 0.01, 0.1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Campaign-wide knobs (defaults reproduce the paper's §7.1 setup)."""

    machine: str = "skylake"
    filters: Tuple[float, ...] = PAPER_FILTERS
    methods: Tuple[str, ...] = ("fsaie_sp", "fsaie_full")
    rtol: float = 1e-8
    max_iterations: int = 10_000
    #: Cache-capacity scale restoring paper footprint/L1 ratios (DESIGN §2).
    cache_scale: float = 0.125
    rhs_seed: int = 2021
    precalc_rtol: float = 1e-2
    precalc_iterations: int = 20
    #: Sweep budget for the global iterative methods (``gsai_*``); the
    #: executed count per case lands in :attr:`MethodRun.sweeps`.
    global_sweeps: int = 30
    include_random_baseline: bool = False
    #: FSAI setup backend, a kernel-registry name (``None`` = resolve as
    #: the solves do: ``use_backend``, then ``$REPRO_KERNEL_BACKEND``, then
    #: numpy); ``"reference"`` runs the setup ops on the scalar oracle
    #: backend.
    setup_backend: Optional[str] = None

    def machine_model(self) -> MachineModel:
        return get_machine(self.machine)

    def to_dict(self) -> Dict[str, object]:
        """JSON-able representation (tuples become lists)."""
        return {
            "machine": self.machine,
            "filters": list(self.filters),
            "methods": list(self.methods),
            "rtol": self.rtol,
            "max_iterations": self.max_iterations,
            "cache_scale": self.cache_scale,
            "rhs_seed": self.rhs_seed,
            "precalc_rtol": self.precalc_rtol,
            "precalc_iterations": self.precalc_iterations,
            "global_sweeps": self.global_sweeps,
            "include_random_baseline": self.include_random_baseline,
            "setup_backend": self.setup_backend,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperimentConfig":
        d = dict(payload)
        d["filters"] = tuple(d["filters"])
        d["methods"] = tuple(d["methods"])
        # Pre-global-methods payloads (checkpoints, IPC from older shards)
        # lack the sweep budget; the historical behaviour is the default.
        d.setdefault("global_sweeps", cls.global_sweeps)
        return cls(**d)

    def config_hash(self) -> str:
        """Stable short digest identifying this configuration.

        Checkpoint records are keyed by ``(machine, case_id, config_hash)``
        so a resumed campaign never reuses results produced under different
        experiment knobs.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass
class MethodRun:
    """Measured + modelled outcome of one preconditioner on one matrix."""

    method: str
    filter_value: Optional[float]
    iterations: int
    converged: bool
    relative_residual: float
    setup_seconds: float
    solve_seconds: float
    g_nnz: int
    pct_nnz: float
    x_misses_per_g_nnz: float
    gflops: float
    #: Global-iteration sweeps actually executed (``None`` for the local
    #: Frobenius methods; threaded from :attr:`FSAISetup.sweeps`).
    sweeps: Optional[int] = None

    def __repr__(self) -> str:
        f = "-" if self.filter_value is None else f"{self.filter_value:g}"
        return (
            f"MethodRun({self.method}/f={f}: {self.iterations} iters, "
            f"solve={self.solve_seconds:.3e}s)"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "filter_value": self.filter_value,
            "iterations": self.iterations,
            "converged": self.converged,
            "relative_residual": self.relative_residual,
            "setup_seconds": self.setup_seconds,
            "solve_seconds": self.solve_seconds,
            "g_nnz": self.g_nnz,
            "pct_nnz": self.pct_nnz,
            "x_misses_per_g_nnz": self.x_misses_per_g_nnz,
            "gflops": self.gflops,
            "sweeps": self.sweeps,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MethodRun":
        # Older payloads predate ``sweeps``; the field default covers them.
        return cls(**payload)


@dataclass
class CaseResult:
    """All method runs for one matrix on one machine."""

    case: MatrixCase
    n: int
    nnz: int
    machine: str
    baseline: MethodRun
    runs: Dict[Tuple[str, Optional[float]], MethodRun] = field(
        default_factory=dict
    )
    #: Per-case span tree, set when the case ran under ``trace.collecting``
    #: (campaign artifacts then carry phase breakdowns; see docs/tracing.md).
    trace_summary: Optional[TraceSummary] = None
    #: Name of the kernel backend that actually ran the solves
    #: (``numpy``/``reference``) — resolved *inside* the process
    #: that executed the case, so orchestrated campaigns record which
    #: implementation produced each result even across worker processes.
    kernel_backend: Optional[str] = None
    #: Concrete setup backend the FSAI local solves used, resolved the same
    #: way (inside the executing process, after env/auto resolution).
    setup_backend: Optional[str] = None

    def get(self, method: str, filter_value: Optional[float] = None) -> MethodRun:
        return self.runs[(method, filter_value)]

    def best_filter_run(self, method: str) -> MethodRun:
        """Run with the lowest modelled solve time for ``method``."""
        candidates = [r for (m, _), r in self.runs.items() if m == method]
        if not candidates:
            raise KeyError(f"no runs for method {method!r}")
        return min(candidates, key=lambda r: r.solve_seconds)

    def time_improvement(self, run: MethodRun) -> float:
        """Solve-time decrease vs the FSAI baseline, percent."""
        return 100.0 * (self.baseline.solve_seconds - run.solve_seconds) / self.baseline.solve_seconds

    def iter_improvement(self, run: MethodRun) -> float:
        """Iteration-count decrease vs the FSAI baseline, percent."""
        if self.baseline.iterations == 0:
            return 0.0
        return 100.0 * (self.baseline.iterations - run.iterations) / self.baseline.iterations

    def to_dict(self) -> Dict[str, object]:
        """JSON-able representation for checkpoint shards and IPC.

        The :class:`MatrixCase` is stored by id + name only — it is fully
        reconstructable from the suite registry, and storing the id keeps
        checkpoint records small and forward-compatible.
        """
        payload: Dict[str, object] = {
            "case_id": self.case.case_id,
            "case_name": self.case.name,
            "n": self.n,
            "nnz": self.nnz,
            "machine": self.machine,
            "baseline": self.baseline.to_dict(),
            "runs": [
                {"method": m, "filter_value": f, "run": r.to_dict()}
                for (m, f), r in self.runs.items()
            ],
        }
        if self.trace_summary is not None:
            payload["trace_summary"] = self.trace_summary.to_dict()
        if self.kernel_backend is not None:
            payload["kernel_backend"] = self.kernel_backend
        if self.setup_backend is not None:
            payload["setup_backend"] = self.setup_backend
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CaseResult":
        case = get_case(int(payload["case_id"]))
        if case.name != payload["case_name"]:
            raise ConfigurationError(
                f"checkpoint case id {payload['case_id']} names "
                f"{payload['case_name']!r} but the suite registry has "
                f"{case.name!r} — suite and checkpoint disagree"
            )
        return cls(
            case=case,
            n=int(payload["n"]),
            nnz=int(payload["nnz"]),
            machine=str(payload["machine"]),
            baseline=MethodRun.from_dict(payload["baseline"]),
            runs={
                (e["method"], e["filter_value"]): MethodRun.from_dict(e["run"])
                for e in payload["runs"]
            },
            trace_summary=(
                TraceSummary.from_dict(payload["trace_summary"])  # type: ignore[arg-type]
                if "trace_summary" in payload
                else None
            ),
            kernel_backend=payload.get("kernel_backend"),  # type: ignore[arg-type]
            setup_backend=payload.get("setup_backend"),  # type: ignore[arg-type]
        )


def make_rhs(a: CSRMatrix, seed: int) -> np.ndarray:
    """Paper §7.1 right-hand side: uniform in [-1, 1], max-norm normalised."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, a.n_rows)
    max_norm = a.max_norm()
    return b / max_norm if max_norm > 0 else b


def _evaluate(
    a: CSRMatrix,
    b: np.ndarray,
    setup: FSAISetup,
    model: CostModel,
    spmv_a_cost: KernelCost,
    config: ExperimentConfig,
) -> MethodRun:
    with trace.span(
        "case.evaluate",
        method=setup.method,
        filter_value=setup.filter_value,
    ):
        result = pcg(
            a, b,
            preconditioner=setup.application,
            rtol=config.rtol,
            max_iterations=config.max_iterations,
            record_history=False,
        )
        app_cost = model.fsai_application_cost(
            setup.application.g_pattern, setup.application.gt_pattern
        )
        vector_seconds = (12 * 8 * a.n_rows) / model.machine.memory_bandwidth_bps
        iter_seconds = spmv_a_cost.seconds + app_cost.seconds + vector_seconds
        x_misses = app_cost.bytes_x_misses // model.machine.line_bytes
        if trace.enabled():
            trace.add_counter("pattern.final_nnz", setup.final_pattern.nnz)
        return MethodRun(
            method=setup.method,
            filter_value=setup.filter_value,
            iterations=result.iterations,
            converged=result.converged,
            relative_residual=result.relative_residual,
            setup_seconds=model.setup_seconds(setup),
            solve_seconds=result.iterations * iter_seconds,
            g_nnz=setup.final_pattern.nnz,
            pct_nnz=setup.nnz_increase_pct,
            x_misses_per_g_nnz=x_misses / setup.final_pattern.nnz,
            gflops=app_cost.gflops(),
            sweeps=getattr(setup, "sweeps", None),
        )


def run_case(
    case: MatrixCase,
    config: ExperimentConfig,
    *,
    a: Optional[CSRMatrix] = None,
) -> CaseResult:
    """Run the full method × filter grid for one matrix.

    ``a`` can be passed to reuse an already-built matrix (campaign code
    shares it across machines).

    When tracing is enabled (``trace.collecting()``), the whole grid runs
    under a root ``"case"`` span whose tree is attached to the returned
    result as :attr:`CaseResult.trace_summary` — this is how per-case span
    trees survive serialisation through orchestrator shard records.
    """
    if not trace.enabled():
        return _run_case(case, config, a=a)
    with trace.span(
        "case", case_id=case.case_id, case_name=case.name, machine=config.machine
    ) as root:
        result = _run_case(case, config, a=a)
    result.trace_summary = TraceSummary.from_span(root)
    return result


def _run_case(
    case: MatrixCase,
    config: ExperimentConfig,
    *,
    a: Optional[CSRMatrix] = None,
) -> CaseResult:
    with trace.span("case.prepare"):
        a = a if a is not None else case.build()
        b = make_rhs(a, config.rhs_seed + case.case_id)
        machine = config.machine_model()
        placement = ArrayPlacement.aligned(machine.line_bytes)
        model = CostModel(
            machine, cache_scale=config.cache_scale, placement=placement
        )
        spmv_a_cost = model.spmv_cost(a.pattern)

    baseline_setup = setup_fsai(a, setup_backend=config.setup_backend)
    baseline = _evaluate(a, b, baseline_setup, model, spmv_a_cost, config)

    result = CaseResult(
        case=case, n=a.n_rows, nnz=a.nnz, machine=machine.name,
        baseline=baseline, kernel_backend=get_backend().name,
        setup_backend=resolve_setup_backend(config.setup_backend),
    )
    # Every Algorithm 4 setup of the case, the random baseline's reference
    # included, comes from one sweep that shares its common prefixes.
    reference = ("fsaie_full", 0.01)
    swept = setup_fsaie_sweep(
        a, placement,
        [m for m in config.methods if get_method(m).uses_filter],
        config.filters,
        extra=[reference] if config.include_random_baseline else [],
        precalc_rtol=config.precalc_rtol,
        precalc_iterations=config.precalc_iterations,
        setup_backend=config.setup_backend,
    )
    for method in config.methods:
        spec = get_method(method)
        if not spec.selectable:
            raise ConfigurationError(
                f"method {method!r} cannot be selected directly; "
                f"use the dedicated config switch for it"
            )
        if spec.uses_filter:
            setups = [swept[method, f] for f in config.filters]
        else:
            # Filter-free methods (baseline re-runs, global iterations)
            # execute once per case under the key ``(method, None)``.
            kwargs: Dict[str, object] = {"setup_backend": config.setup_backend}
            if spec.uses_sweeps:
                kwargs["sweeps"] = config.global_sweeps
            setups = [spec.builder(a, **kwargs)]
        for setup in setups:
            result.runs[(method, setup.filter_value)] = _evaluate(
                a, b, setup, model, spmv_a_cost, config
            )

    if config.include_random_baseline:
        random_setup = setup_fsaie_random(
            a, swept[reference], seed=case.case_id,
            setup_backend=config.setup_backend,
        )
        result.runs[("fsaie_random", 0.01)] = _evaluate(
            a, b, random_setup, model, spmv_a_cost, config
        )
    return result
