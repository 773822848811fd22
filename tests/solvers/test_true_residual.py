"""PCG records the true residual ``‖b - A x‖ / ‖r₀‖`` of what it returns.

``converged`` keeps its recurrence meaning; the true residual sits beside
it.  On a 1-D Laplacian scaled by ``diag(10^linspace(-e, e))`` the
recurrence residual reaches the tolerance while the true residual stays
orders of magnitude above it, so a result reading ``converged=True`` is
only trustworthy together with ``true_relative_residual``.
"""

import numpy as np
import pytest

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.collection.generators.fd import poisson2d
from repro.fsai.extended import setup_fsai, setup_fsaie_full, setup_fsaie_sp
from repro.solvers.cg import DEFAULT_RTOL, pcg, pcg_multi
from repro.solvers.convergence import SolveResult
from repro.sparse.construct import csr_from_dense


def _scaled_laplacian(n, exponent):
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    s = np.diag(10.0 ** np.linspace(-exponent, exponent, n))
    return csr_from_dense(s @ lap @ s)


def _true(a, b, x):
    return np.linalg.norm(b - a.to_dense() @ x) / np.linalg.norm(b)


@pytest.mark.parametrize("exponent", [6, 12])
def test_badly_scaled_solve_converges_on_the_recurrence_only(exponent):
    a = _scaled_laplacian(200, exponent)
    b = np.random.default_rng(0).standard_normal(200)
    res = pcg(a, b, preconditioner=setup_fsai(a).application)
    assert res.converged and res.relative_residual <= DEFAULT_RTOL
    assert res.true_relative_residual > 1e-6
    assert res.true_relative_residual == pytest.approx(_true(a, b, res.x), rel=0.1)


def test_well_scaled_solve_reports_a_true_residual_near_rtol():
    a = poisson2d(20)
    b = np.random.default_rng(1).standard_normal(a.n_rows)
    res = pcg(a, b, preconditioner=setup_fsai(a).application)
    assert res.converged
    assert 0.0 < res.true_relative_residual <= 10 * DEFAULT_RTOL
    assert res.true_relative_residual == pytest.approx(_true(a, b, res.x), rel=1e-6)


def test_pcg_multi_rows_report_pcg_true_residuals():
    a = _scaled_laplacian(200, 6)
    rng = np.random.default_rng(2)
    block = rng.standard_normal((3, 200))
    app = setup_fsai(a).application
    multi = pcg_multi(a, block, preconditioner=app)
    for j in range(3):
        single = pcg(a, block[j], preconditioner=app)
        assert multi.columns[j].true_relative_residual == single.true_relative_residual


SETUPS = {
    "fsai": setup_fsai,
    "fsaie_sp": lambda a: setup_fsaie_sp(a, ArrayPlacement.aligned(64)),
    "fsaie_full": lambda a: setup_fsaie_full(a, ArrayPlacement.aligned(64)),
}


@pytest.mark.parametrize("method", sorted(SETUPS))
def test_converged_solve_far_from_the_truth_is_counted(method):
    """``cg.true_residual_gap``: converged, true residual above 10x the stop."""
    a = _scaled_laplacian(20, 12)
    app = SETUPS[method](a).application
    b = np.random.default_rng(4).standard_normal(20)
    with trace.collecting() as collector:
        res = pcg(a, b, preconditioner=app)
        multi = pcg_multi(a, np.stack([b, b]), preconditioner=app)
    assert res.converged and res.true_relative_residual > 10 * DEFAULT_RTOL
    assert all(c.converged for c in multi.columns)
    assert collector.total_counters()["cg.true_residual_gap"] == 3


def test_well_scaled_solves_record_no_gap():
    a = poisson2d(20)
    app = setup_fsai(a).application
    b = np.random.default_rng(5).standard_normal((2, a.n_rows))
    with trace.collecting() as collector:
        assert pcg(a, b[0], preconditioner=app).converged
        assert pcg_multi(a, b, preconditioner=app).converged
    counters = collector.total_counters()
    assert counters["cg.iterations"] > 0
    assert "cg.true_residual_gap" not in counters


def test_solve_that_starts_converged_needs_no_product():
    a = poisson2d(6)
    zero = pcg(a, np.zeros(a.n_rows))
    assert zero.true_relative_residual == 0.0
    b = np.random.default_rng(3).standard_normal(a.n_rows)
    # Within atol of the answer already: r0 = b - A x0 is the residual.
    close = pcg(a, b, x0=pcg(a, b, rtol=1e-12).x, atol=1e-6)
    assert close.iterations == 0 and close.true_relative_residual == 1.0
    multi = pcg_multi(a, np.zeros((2, a.n_rows)))
    assert [c.true_relative_residual for c in multi.columns] == [0.0, 0.0]


def test_hand_built_result_defaults_to_nan():
    res = SolveResult(
        x=np.zeros(2), converged=True, iterations=0, residual_norm=0.0,
        relative_residual=0.0,
    )
    assert np.isnan(res.true_relative_residual)
