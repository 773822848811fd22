"""``campaign``: the default ``ExperimentConfig()`` grid on the quick slice.

This is the reproduction users run (``repro-fsai campaign --quick``):
FSAI plus FSAIE(sp) and FSAIE(full) × filters 0 / 0.001 / 0.01 / 0.1 on
the 12 quick cases, 108 preconditioners.  It makes the calls
``repro.experiments.runner.run_case`` makes, split in two phases:

* set-up: the registry builders for every preconditioner, then one
  product with every ``A`` and one application of every preconditioner
  (the lazy DIA/ELL views are built here, not in the first solve);
* measured unit: for every preconditioner, PCG to ``rtol`` plus its
  ``CostModel`` cost, exactly as ``run_case`` evaluates it.

The seed replaces ``ExperimentConfig.rhs_seed``; the matrices are the
suite's.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.harness import Ledger, Solve, Unit, check_setup, fresh
from perfbench.tracing import NULL, solve_pcg
from repro.arch.address import ArrayPlacement
from repro.collection.suite import get_case
from repro.experiments.campaign import QUICK_CASE_IDS
from repro.experiments.runner import ExperimentConfig, make_rhs
from repro.fsai.registry import get_method
from repro.perf.costmodel import CostModel
from repro.sparse.csr import CSRMatrix

#: Smallest quick case; the warm-up runs the whole grid on it.
WARM_UP_CASE = 72


def build_case(
    rec: Any, a: CSRMatrix, config: ExperimentConfig, placement: ArrayPlacement
) -> List[Any]:
    """Every preconditioner of ``run_case``'s grid, in its order."""
    spec = get_method("fsai")
    with rec.span("fsai.setup", method="fsai"):
        setups = [spec.builder(a, setup_backend=config.setup_backend)]
    for method in config.methods:
        spec = get_method(method)
        for filter_value in config.filters:
            with rec.span("fsai.setup", method=method):
                setup = spec.builder(
                    a, placement,
                    filter_value=filter_value,
                    precalc_rtol=config.precalc_rtol,
                    precalc_iterations=config.precalc_iterations,
                    setup_backend=config.setup_backend,
                )
            setups.append(setup)
    for setup in setups:
        rec.count("fsai.g_nnz", setup.g.nnz)
    return setups


def evaluate(
    rec: Any,
    a: CSRMatrix,
    b: np.ndarray,
    setup: Any,
    model: CostModel,
    spmv_a_seconds: float,
    config: ExperimentConfig,
) -> Tuple[Any, float]:
    """PCG plus the modelled solve seconds of ``run_case``'s evaluation."""
    result = solve_pcg(
        rec, setup.method, a, b,
        preconditioner=setup.application,
        rtol=config.rtol,
        max_iterations=config.max_iterations,
        record_history=False,
    )
    with rec.span("perf.costmodel"):
        app_cost = model.fsai_application_cost(
            setup.application.g_pattern, setup.application.gt_pattern
        )
        model.setup_seconds(setup)
    vector_seconds = (12 * 8 * a.n_rows) / model.machine.memory_bandwidth_bps
    iter_seconds = spmv_a_seconds + app_cost.seconds + vector_seconds
    return result, result.iterations * iter_seconds


class Campaign:
    name = "campaign"
    setup_repeats = 3
    repeat_measure = True

    def __init__(
        self,
        case_ids: Sequence[int] = QUICK_CASE_IDS,
        max_iterations: Optional[int] = None,
    ) -> None:
        self.case_ids = tuple(case_ids)
        self.max_iterations = max_iterations

    def prepare(self, seed: int, seconds: float) -> None:
        config = replace(ExperimentConfig(), rhs_seed=seed)
        if self.max_iterations is not None:
            config = replace(config, max_iterations=self.max_iterations)
        self.config = config
        machine = config.machine_model()
        self.placement = ArrayPlacement.aligned(machine.line_bytes)
        self.cases = [(cid, get_case(cid).build()) for cid in self.case_ids]
        self.rhs = {
            cid: make_rhs(a, config.rhs_seed + cid) for cid, a in self.cases
        }

    def warm_up(self) -> None:
        warm = Campaign((WARM_UP_CASE,), self.max_iterations)
        warm.prepare(self.config.rhs_seed, 0.0)
        warm.measure(warm.setup(warm.fresh(), NULL), NULL)

    def fresh(self) -> List[Tuple[int, CSRMatrix]]:
        return [(cid, fresh(a)) for cid, a in self.cases]

    def setup(self, inputs: List[Tuple[int, CSRMatrix]], rec: Any) -> List[Any]:
        state = []
        for cid, a in inputs:
            state.append((cid, a, build_case(rec, a, self.config, self.placement)))
        for cid, a, setups in state:
            a.matvec(self.rhs[cid])
            for setup in setups:
                setup.application.apply(self.rhs[cid])
        return state

    def check_setup(self, state: List[Any], ledger: Ledger) -> None:
        for cid, _, setups in state:
            for setup in setups:
                check_setup(ledger, f"case {cid} {setup.method}/{setup.filter_value}", setup)

    def measure(self, state: List[Any], rec: Any) -> Unit:
        unit = Unit()
        machine = self.config.machine_model()
        for cid, a, setups in state:
            b = self.rhs[cid]
            model = CostModel(
                machine, cache_scale=self.config.cache_scale, placement=self.placement
            )
            with rec.span("perf.costmodel"):
                spmv_a_seconds = model.spmv_cost(a.pattern).seconds
            for setup in setups:
                start = time.perf_counter()
                try:
                    result, _ = evaluate(
                        rec, a, b, setup, model, spmv_a_seconds, self.config
                    )
                    error = None
                except Exception as exc:  # counted as a failed operation
                    result, error = None, exc
                unit.latencies.append(time.perf_counter() - start)
                unit.solves.append(
                    Solve(
                        what=f"case {cid} {setup.method}/{setup.filter_value}",
                        a=a, b=b, rtol=self.config.rtol,
                        op=len(unit.latencies) - 1, result=result, error=error,
                        method=setup.method, app=setup.application,
                    )
                )
        return unit

    def close(self, state: Any) -> None:
        pass

    def layer_metrics(self, rec: Any, state: Any, unit: Unit) -> dict:
        return {}
