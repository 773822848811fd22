"""Unit tests for the trivial preconditioners and convergence tracking."""

import numpy as np
import pytest

from repro.errors import NotSPDError, ShapeError
from repro.solvers.convergence import ConvergenceHistory, SolveResult
from repro.solvers.preconditioners import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    Preconditioner,
)
from repro.sparse.construct import csr_from_dense


class TestPreconditioners:
    def test_identity(self):
        p = IdentityPreconditioner(4)
        r = np.arange(4.0)
        z = p.apply(r)
        assert np.array_equal(z, r) and z is not r
        assert p.flops_per_application() == 0

    def test_identity_shape_check(self):
        with pytest.raises(ShapeError):
            IdentityPreconditioner(4).apply(np.ones(5))

    def test_jacobi(self):
        a = csr_from_dense(np.diag([2.0, 4.0]))
        p = JacobiPreconditioner(a)
        assert np.allclose(p.apply(np.array([2.0, 4.0])), [1.0, 1.0])
        assert p.flops_per_application() == 2

    def test_jacobi_requires_positive_diagonal(self):
        with pytest.raises(NotSPDError):
            JacobiPreconditioner(csr_from_dense(np.diag([1.0, 0.0])))

    def test_protocol_runtime_checkable(self):
        assert isinstance(IdentityPreconditioner(3), Preconditioner)
        a = csr_from_dense(np.eye(3))
        assert isinstance(JacobiPreconditioner(a), Preconditioner)


class TestConvergenceHistory:
    def test_iterations_counting(self):
        h = ConvergenceHistory()
        assert h.iterations == 0
        for v in (1.0, 0.5, 0.1):
            h.record(v)
        assert h.iterations == 2
        assert h.initial == 1.0 and h.final == 0.1

    def test_relative(self):
        h = ConvergenceHistory()
        for v in (2.0, 1.0, 0.02):
            h.record(v)
        assert np.allclose(h.relative(), [1.0, 0.5, 0.01])

    def test_reduction_order(self):
        h = ConvergenceHistory()
        h.record(1.0)
        h.record(1e-8)
        assert h.reduction_order() == pytest.approx(8.0)

    def test_reduction_order_degenerate(self):
        h = ConvergenceHistory()
        assert h.reduction_order() == 0.0
        h.record(1.0)
        h.record(0.0)
        assert h.reduction_order() == float("inf")

    def test_solve_result_repr(self):
        r = SolveResult(
            x=np.zeros(2), converged=False, iterations=7,
            residual_norm=1.0, relative_residual=0.5,
        )
        assert "NOT converged" in repr(r)
