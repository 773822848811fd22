"""Tests of the benchmark's own code (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, tracing
from perfbench.campaign import Campaign, build_case, evaluate
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.serve import Serve
from repro.arch.address import ArrayPlacement
from repro.collection.suite import get_case
from repro.experiments.runner import ExperimentConfig, make_rhs, run_case
from repro.perf.costmodel import CostModel

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_campaign_decomposition_matches_run_case():
    case = get_case(72)
    config = ExperimentConfig()
    reference = run_case(case, config)
    a = case.build()
    b = make_rhs(a, config.rhs_seed + case.case_id)
    machine = config.machine_model()
    placement = ArrayPlacement.aligned(machine.line_bytes)
    model = CostModel(machine, cache_scale=config.cache_scale, placement=placement)
    spmv_a_seconds = model.spmv_cost(a.pattern).seconds
    setups = build_case(tracing.NULL, a, config, placement)
    assert len(setups) == 1 + len(config.methods) * len(config.filters)
    for setup in setups:
        result, modelled = evaluate(
            tracing.NULL, a, b, setup, model, spmv_a_seconds, config
        )
        expected = (
            reference.baseline if setup.method == "fsai"
            else reference.get(setup.method, setup.filter_value)
        )
        assert result.iterations == expected.iterations
        assert modelled == pytest.approx(expected.solve_seconds, rel=1e-12)


def test_metric_names_and_units_match_benchmark_json():
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def _restorable_state():
    from repro.fsai import extended
    from repro.kernels import ENV_VAR, get_backend
    from repro.perf import costmodel
    from repro.serve import dispatcher

    names = {
        extended: ("fsai_initial_pattern", "extend_pattern_cache_friendly",
                   "precalculate_g", "filter_extension_by_precalc", "compute_g"),
        costmodel: ("simulate_spmv", "simulate_fsai_application"),
        dispatcher: ("_default_solver", "cached_setup", "pcg", "pcg_multi"),
    }
    attrs = {(m.__name__, n): getattr(m, n) for m, ns in names.items() for n in ns}
    return attrs, get_backend(), os.environ.get(ENV_VAR)


def test_traced_run_reports_every_layer_and_restores_wrappers(tmp_path):
    before = _restorable_state()
    ledger = harness.Ledger()
    workload = Campaign((72,))
    workload.prepare(seed=3, seconds=0)
    metrics = harness.run_traced(workload, ledger, tmp_path / "trace.json")
    assert ledger.failed == 0, ledger.problems
    assert set(metrics) == set(PER_LAYER)
    assert all(m["unit"] == PER_LAYER[name] for name, m in metrics.items())
    assert metrics["kernels.spmv_calls"]["value"] > 0
    assert metrics["perf.costmodel_calls"]["value"] > 0
    assert (tmp_path / "trace.json").is_file()
    after = _restorable_state()
    assert after[0] == before[0]
    assert after[1] is before[1]
    assert after[2] == before[2]


def test_non_converging_solves_are_counted_not_raised():
    for workload in (Campaign((72,), max_iterations=2),
                     Serve((65, 72), max_iterations=2, requests=16)):
        workload.prepare(seed=5, seconds=0)
        ledger = harness.Ledger()
        metrics = harness.run_untraced(workload, 0, ledger)
        assert ledger.failed > 0
        assert ledger.attempted > ledger.failed
        assert metrics["latency_p99_ms"]["value"] == float("inf")


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
