"""Global iterative SAI methods: convergence to FSAI + orchestration flow.

The row-decoupling argument in ``src/repro/fsai/global_iter.py`` says the
whole-matrix iterations solve exactly the FSAI local systems, so the
tests pin (a) data-level convergence of all three iterations to the
direct factor, (b) PCG iteration parity with FSAI on the stencil suite
(the CI acceptance gate allows 20%), and (c) the orchestration plumbing:
method registry contracts, cache integration, the campaign runner's
``(method, None)`` run keys, and sweep metadata surviving the
``CaseResult`` serialisation boundary the orchestrator ships results
across.
"""

import numpy as np
import pytest

from repro import trace
from repro.collection.generators.fd import poisson2d
from repro.collection.suite import get_case
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    CaseResult,
    ExperimentConfig,
    MethodRun,
    run_case,
)
from repro.fsai.cache import PreconditionerCache, cached_setup
from repro.fsai.extended import setup_fsai
from repro.fsai.frobenius import compute_g
from repro.fsai.global_iter import (
    DEFAULT_SWEEPS,
    global_g_chebyshev,
    global_g_minres,
    global_g_newton_schulz,
    normalize_factor,
    setup_gsai_cheb,
    setup_gsai_ns,
    setup_gsai_st,
)
from repro.fsai.patterns import fsai_initial_pattern
from repro.fsai.registry import (
    available_methods,
    get_method,
    selectable_methods,
)
from repro.solvers.cg import pcg
from repro.sparse.construct import csr_from_dense

from tests.conftest import random_spd_dense

ITERATIONS = {
    "gsai_st": global_g_minres,
    "gsai_cheb": global_g_chebyshev,
    "gsai_ns": global_g_newton_schulz,
}
SETUPS = {
    "gsai_st": setup_gsai_st,
    "gsai_cheb": setup_gsai_cheb,
    "gsai_ns": setup_gsai_ns,
}


# ----------------------------------------------------------------------
# Convergence to the direct FSAI factor
# ----------------------------------------------------------------------


@pytest.mark.parametrize("method", sorted(ITERATIONS))
def test_converges_to_fsai_factor(method):
    a = poisson2d(12)
    pattern = fsai_initial_pattern(a)
    g_ref = compute_g(a, pattern)
    data, info = ITERATIONS[method](a, pattern, sweeps=200, rtol=1e-12)
    assert info.converged
    assert 1 <= info.sweeps <= 200
    assert info.flops > 0
    normalized, fallback_rows = normalize_factor(a, pattern, data)
    assert fallback_rows == 0
    np.testing.assert_allclose(normalized, g_ref.data, atol=1e-10)


@pytest.mark.parametrize("method", sorted(ITERATIONS))
def test_converges_on_random_spd(method):
    a = csr_from_dense(random_spd_dense(30, seed=3))
    pattern = fsai_initial_pattern(a)
    g_ref = compute_g(a, pattern)
    data, info = ITERATIONS[method](a, pattern, sweeps=500, rtol=1e-12)
    normalized, _ = normalize_factor(a, pattern, data)
    np.testing.assert_allclose(normalized, g_ref.data, atol=1e-8)
    assert info.residual <= 1e-10


def test_minres_residual_is_monotone():
    a = poisson2d(10)
    pattern = fsai_initial_pattern(a)
    residuals = [
        global_g_minres(a, pattern, sweeps=s, rtol=0.0)[1].residual
        for s in (1, 3, 6, 12)
    ]
    assert all(b <= a_ + 1e-15 for a_, b in zip(residuals, residuals[1:]))


# ----------------------------------------------------------------------
# End-to-end setups + PCG parity with FSAI (the acceptance gate)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("method", sorted(SETUPS))
@pytest.mark.parametrize("grid", [16, 24])
def test_pcg_iteration_parity_with_fsai(method, grid):
    a = poisson2d(grid)
    rng = np.random.default_rng(2021)
    b = rng.standard_normal(a.n_rows)
    fsai_iters = pcg(
        a, b, preconditioner=setup_fsai(a).application, rtol=1e-8
    ).iterations
    setup = SETUPS[method](a)
    result = pcg(a, b, preconditioner=setup.application, rtol=1e-8)
    assert result.converged
    # ISSUE 8 acceptance: within 20% of FSAI on matching patterns.
    assert result.iterations <= int(np.ceil(1.2 * fsai_iters))


@pytest.mark.parametrize("method", sorted(SETUPS))
def test_setup_metadata(method):
    a = poisson2d(10)
    setup = SETUPS[method](a)
    assert setup.method == method
    assert setup.filter_value is None
    assert setup.sweeps is not None and 1 <= setup.sweeps <= DEFAULT_SWEEPS
    assert set(setup.flops) == {"global"}
    assert setup.setup_flops > 0
    assert setup.final_pattern.is_lower_triangular()
    # Local methods keep the sweep slot empty.
    assert setup_fsai(a).sweeps is None


def test_sweep_budget_is_respected():
    a = poisson2d(12)
    setup = setup_gsai_st(a, sweeps=3, rtol=0.0)
    assert setup.sweeps == 3


def test_invalid_arguments():
    a = poisson2d(8)
    pattern = fsai_initial_pattern(a)
    with pytest.raises(ValueError, match="sweeps must be >= 1"):
        global_g_minres(a, pattern, sweeps=0)
    with pytest.raises(ValueError, match="rtol must be non-negative"):
        global_g_minres(a, pattern, rtol=-1.0)
    with pytest.raises(ValueError, match="lambda_lo"):
        global_g_chebyshev(a, pattern, lambda_lo=2.0, lambda_hi=1.0)


def test_setup_backend_names_resolve_through_registry():
    # Same resolution as compute_g: kernel-registry names only.
    a = poisson2d(8)
    ref = setup_gsai_st(a).g.data
    for name in ("reference", None, "numpy"):
        assert setup_gsai_st(a, setup_backend=name).g.data == pytest.approx(ref)
    for name in ("bucketed", "auto"):
        with pytest.raises(ConfigurationError):
            setup_gsai_st(a, setup_backend=name)


@pytest.mark.parametrize("method", sorted(ITERATIONS))
def test_global_iterations_agree_across_backends(method):
    """The full sweep budget on numpy against the reference oracle.

    ``rtol=0.0`` runs all nine sweeps; the only backend-dependent step is
    the capped product, which the reference backend derives from a dense
    matmul, so the iterates agree to rounding, not bits.
    """
    a = poisson2d(12)
    pattern = fsai_initial_pattern(a, level=1, threshold=0.0)
    data, info = ITERATIONS[method](a, pattern, sweeps=9, rtol=0.0,
                                    backend="numpy")
    ref, ref_info = ITERATIONS[method](a, pattern, sweeps=9, rtol=0.0,
                                       backend="reference")
    np.testing.assert_allclose(data, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    assert info.sweeps == ref_info.sweeps == 9
    assert info.residual == pytest.approx(ref_info.residual, rel=1e-10)


def test_trace_records_global_iteration():
    a = poisson2d(8)
    with trace.collecting() as collector:
        setup_gsai_cheb(a)
    summary = trace.TraceSummary.from_collector(collector)
    spans = {s.name for s in summary.iter_spans()}
    # The sweeps run through bound spgemm handles (no per-call span, like
    # every other bound handle) — the iteration span carries the counts.
    assert "fsai.setup" in spans
    assert "fsai.global_iter" in spans
    iter_span = next(
        s for s in summary.iter_spans() if s.name == "fsai.global_iter"
    )
    assert iter_span.attrs["method"] == "gsai_cheb"
    assert iter_span.attrs["sweeps"] >= 1


def test_trace_records_spgemm_public_entry():
    from repro.kernels import get_backend

    a = poisson2d(8)
    with trace.collecting() as collector:
        get_backend("numpy").spgemm(a, a)
    summary = trace.TraceSummary.from_collector(collector)
    span = next(s for s in summary.iter_spans() if s.name == "spgemm")
    assert span.attrs["backend"] == "numpy"
    assert span.attrs["products"] > 0
    assert span.attrs["capped"] is False


# ----------------------------------------------------------------------
# Registry contracts
# ----------------------------------------------------------------------


def test_registry_catalogue():
    assert set(available_methods()) >= {
        "fsai", "fsaie_sp", "fsaie_full", "fsaie_joint", "fsaie_random",
        "gsai_st", "gsai_cheb", "gsai_ns",
    }
    assert "fsaie_random" not in selectable_methods()
    spec = get_method("gsai_st")
    assert spec.uses_sweeps and not spec.uses_filter
    local = get_method("fsaie_full")
    assert local.uses_filter and not local.uses_sweeps


def test_registry_unknown_method():
    with pytest.raises(ConfigurationError, match="unknown FSAI setup method"):
        get_method("nope")
    # ConfigurationError is a ValueError: the historical contract holds.
    with pytest.raises(ValueError, match="unknown FSAI setup method"):
        get_method("nope")


def test_cached_setup_serves_global_methods():
    a = poisson2d(10)
    cache = PreconditionerCache(capacity=4)
    first = cached_setup(a, method="gsai_ns", cache=cache, sweeps=20)
    again = cached_setup(a, method="gsai_ns", cache=cache, sweeps=20)
    assert again is first
    other = cached_setup(a, method="gsai_ns", cache=cache, sweeps=5)
    assert other is not first
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 2


# ----------------------------------------------------------------------
# Campaign runner + serialisation boundary
# ----------------------------------------------------------------------


def test_run_case_records_global_methods():
    case = get_case(1)
    config = ExperimentConfig(
        methods=("fsaie_sp", "gsai_st"), filters=(0.01,), global_sweeps=25
    )
    result = run_case(case, config)
    assert ("fsaie_sp", 0.01) in result.runs
    assert ("gsai_st", None) in result.runs
    run = result.get("gsai_st")
    assert run.method == "gsai_st"
    assert run.filter_value is None
    assert run.sweeps is not None and 1 <= run.sweeps <= 25
    assert result.get("fsaie_sp", 0.01).sweeps is None
    assert run.converged


def test_run_case_rejects_unselectable_method():
    case = get_case(1)
    config = ExperimentConfig(methods=("fsaie_random",))
    with pytest.raises(ConfigurationError, match="cannot be selected"):
        run_case(case, config)


def test_case_result_round_trips_sweep_metadata():
    case = get_case(1)
    config = ExperimentConfig(
        methods=("gsai_cheb",), filters=(), global_sweeps=15
    )
    result = run_case(case, config)
    restored = CaseResult.from_dict(result.to_dict())
    run = restored.get("gsai_cheb")
    assert run.sweeps == result.get("gsai_cheb").sweeps
    assert run.sweeps is not None and run.sweeps >= 1
    assert run.to_dict()["sweeps"] == run.sweeps


def test_method_run_payloads_without_sweeps_still_load():
    payload = MethodRun(
        method="fsaie_sp", filter_value=0.01, iterations=10, converged=True,
        relative_residual=1e-9, setup_seconds=0.1, solve_seconds=0.2,
        g_nnz=100, pct_nnz=5.0, x_misses_per_g_nnz=0.1, gflops=1.0,
    ).to_dict()
    payload.pop("sweeps")  # pre-global-methods checkpoint record
    assert MethodRun.from_dict(payload).sweeps is None


def test_config_round_trip_and_old_payloads():
    config = ExperimentConfig(methods=("gsai_st",), global_sweeps=7)
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    old = config.to_dict()
    old.pop("global_sweeps")
    assert ExperimentConfig.from_dict(old).global_sweeps == 30
    # The sweep budget is part of the checkpoint identity.
    assert config.config_hash() != ExperimentConfig(
        methods=("gsai_st",), global_sweeps=8
    ).config_hash()
