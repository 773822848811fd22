"""Unit tests for repro.solvers.cg (CG / PCG)."""

import numpy as np
import pytest

from repro import trace
from repro.errors import ShapeError
from repro.solvers.cg import cg, pcg, pcg_multi
from repro.solvers.preconditioners import JacobiPreconditioner
from repro.sparse.construct import csr_from_dense
from tests.conftest import random_spd_dense


class TestPlainCG:
    def test_solves_spd(self, rng):
        d = random_spd_dense(20, seed=5)
        a = csr_from_dense(d)
        b = rng.standard_normal(20)
        res = cg(a, b)
        assert res.converged
        assert np.linalg.norm(d @ res.x - b) <= 1e-6 * np.linalg.norm(b)

    def test_exact_in_n_iterations(self):
        d = random_spd_dense(12, seed=6)
        res = cg(csr_from_dense(d), np.ones(12), rtol=1e-12)
        assert res.iterations <= 12 + 2  # finite termination (+ roundoff slack)

    def test_zero_rhs_immediate(self, poisson16):
        res = cg(poisson16, np.zeros(poisson16.n_rows))
        assert res.converged and res.iterations == 0
        assert np.allclose(res.x, 0)

    def test_warm_start(self, poisson16, rng):
        # rtol is relative to the *new* initial residual, so an absolute
        # tolerance expresses "already good enough" for a warm start.
        b = rng.standard_normal(poisson16.n_rows)
        cold = cg(poisson16, b)
        warm = cg(
            poisson16, b, x0=cold.x, rtol=0.0,
            atol=cold.residual_norm * 1.01,
        )
        assert warm.converged and warm.iterations == 0

    def test_budget_exhaustion_reported(self, poisson16, rng):
        b = rng.standard_normal(poisson16.n_rows)
        res = cg(poisson16, b, max_iterations=3)
        assert not res.converged
        assert res.iterations == 3

    def test_history_recorded(self, poisson16, rng):
        b = rng.standard_normal(poisson16.n_rows)
        res = cg(poisson16, b)
        assert res.history is not None
        assert len(res.history.norms) == res.iterations + 1
        assert res.history.reduction_order() >= 8.0

    def test_history_disabled(self, poisson16, rng):
        b = rng.standard_normal(poisson16.n_rows)
        assert cg(poisson16, b, record_history=False).history is None

    def test_monotone_a_norm_error(self, rng):
        # CG minimises the A-norm error over the Krylov space each step.
        d = random_spd_dense(15, seed=7)
        a = csr_from_dense(d)
        b = rng.standard_normal(15)
        x_star = np.linalg.solve(d, b)
        errs = []
        for k in range(1, 10):
            res = cg(a, b, max_iterations=k, rtol=0.0)
            e = res.x - x_star
            errs.append(float(e @ (d @ e)))
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_flops_counted(self, poisson16, rng):
        b = rng.standard_normal(poisson16.n_rows)
        res = cg(poisson16, b)
        # At least one SpMV worth of work per iteration.
        assert res.flops >= res.iterations * 2 * poisson16.nnz

    def test_shape_checks(self, poisson16):
        with pytest.raises(ShapeError):
            cg(poisson16, np.ones(3))
        with pytest.raises(ShapeError):
            cg(poisson16, np.ones(poisson16.n_rows), x0=np.ones(2))
        with pytest.raises(ShapeError):
            cg(csr_from_dense(np.ones((2, 3))), np.ones(3))

    def test_negative_tolerance_rejected(self, poisson16):
        with pytest.raises(ValueError):
            cg(poisson16, np.ones(poisson16.n_rows), rtol=-1.0)

    def test_indefinite_breakdown_stops(self):
        a = csr_from_dense(np.diag([1.0, -1.0]))
        res = cg(a, np.array([0.0, 1.0]), max_iterations=10)
        assert not res.converged


class TestBreakdownCounter:
    """``cg.breakdowns`` counts stops on ``d·q <= 0``, only while tracing."""

    INDEFINITE = np.diag([1.0, -1.0])

    def test_pcg_counts_its_breakdown(self):
        a = csr_from_dense(self.INDEFINITE)
        with trace.collecting() as collector:
            res = cg(a, np.array([0.0, 1.0]), max_iterations=10)
        assert not res.converged
        assert collector.total_counters()["cg.breakdowns"] == 1

    def test_pcg_multi_counts_each_frozen_column(self):
        # Row 0 converges in one step; rows 1 (d·q < 0) and 2 (d·q = 0)
        # break down and leave the block in the first iteration.
        a = csr_from_dense(self.INDEFINITE)
        b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with trace.collecting() as collector:
            res = pcg_multi(a, b, max_iterations=10)
        assert [c.converged for c in res.columns] == [True, False, False]
        assert collector.total_counters()["cg.breakdowns"] == 2

    def test_converged_solves_record_none(self, poisson16):
        b = np.ones(poisson16.n_rows)
        with trace.collecting() as collector:
            assert cg(poisson16, b).converged
            assert pcg_multi(poisson16, np.stack([b, -b])).converged
        assert "cg.breakdowns" not in collector.total_counters()


class TestPCG:
    def test_jacobi_reduces_iterations_on_scaled_problem(self, rng):
        # Badly diagonally scaled SPD system: Jacobi should help a lot.
        d = random_spd_dense(30, seed=8)
        s = np.diag(10.0 ** rng.uniform(-3, 3, 30))
        d = s @ d @ s
        a = csr_from_dense(d)
        b = rng.standard_normal(30)
        plain = cg(a, b, max_iterations=2000)
        jac = pcg(a, b, preconditioner=JacobiPreconditioner(a), max_iterations=2000)
        assert jac.converged
        assert jac.iterations < plain.iterations

    def test_same_solution_as_cg(self, poisson16, rng):
        b = rng.standard_normal(poisson16.n_rows)
        res_cg = cg(poisson16, b, rtol=1e-10)
        res_pcg = pcg(
            poisson16, b, preconditioner=JacobiPreconditioner(poisson16),
            rtol=1e-10,
        )
        assert np.allclose(res_cg.x, res_pcg.x, atol=1e-6)

    def test_preconditioner_flops_counted(self, poisson16, rng):
        b = rng.standard_normal(poisson16.n_rows)
        plain = cg(poisson16, b)
        jac = pcg(poisson16, b, preconditioner=JacobiPreconditioner(poisson16))
        flops_per_iter_plain = plain.flops / max(plain.iterations, 1)
        flops_per_iter_jac = jac.flops / max(jac.iterations, 1)
        assert flops_per_iter_jac > flops_per_iter_plain

    def test_result_repr(self, poisson16, rng):
        res = cg(poisson16, rng.standard_normal(poisson16.n_rows))
        assert "converged" in repr(res)

    def test_paper_tolerance_default(self, poisson16, rng):
        # §7.1: eight orders of magnitude.
        b = rng.standard_normal(poisson16.n_rows)
        res = cg(poisson16, b)
        assert res.relative_residual <= 1e-8
