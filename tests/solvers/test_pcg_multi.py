"""Blocked PCG: every right-hand side matches the single-RHS solver.

``pcg_multi`` takes a ``(k, n)`` block, one right-hand side per row, and
promises per-row equivalence with :func:`pcg` — same iteration counts,
same residual histories, iterates within 1e-10 on every backend and
byte-identical on numpy — while doing the work through blocked kernels.
The tests here pin that promise across every registered backend, drive
row retirement with a block whose rows converge at wildly different
rates (Laplacian eigenvectors finish in one iteration next to random
rows taking dozens) and with rows that break down, and cover the
aliasing contracts:
``apply_into(r, out=r)`` and ``pcg(..., x0=b)`` must be correct, never
silently corrupted.
"""

import numpy as np
import pytest

from repro.collection.generators.fd import poisson2d
from repro.collection.suite import get_case
from repro.errors import ShapeError
from repro.experiments.runner import make_rhs
from repro.fsai.extended import setup_fsai
from repro.fsai.frobenius import compute_g
from repro.fsai.patterns import fsai_initial_pattern
from repro.fsai.precond import FSAIApplication
from repro.kernels import available_backends, use_backend
from repro.solvers import JacobiPreconditioner, MultiSolveResult
from repro.solvers.cg import pcg, pcg_multi
from repro.solvers.ichol import IncompleteCholeskyPreconditioner
from repro.sparse.construct import csr_from_dense

BACKENDS = available_backends()


def _lap1d(n):
    d = np.zeros((n, n))
    i = np.arange(n)
    d[i, i] = 2.0
    d[i[:-1], i[:-1] + 1] = -1.0
    d[i[1:], i[1:] - 1] = -1.0
    return csr_from_dense(d)


def _assert_columns_match(multi, singles, *, x_tol=1e-10):
    assert isinstance(multi, MultiSolveResult)
    assert len(multi.columns) == len(singles)
    for j, (col, ref) in enumerate(zip(multi.columns, singles)):
        assert col.converged == ref.converged, f"column {j}"
        assert col.iterations == ref.iterations, f"column {j}"
        np.testing.assert_allclose(
            col.x, ref.x, rtol=x_tol, atol=x_tol, err_msg=f"column {j}"
        )
        np.testing.assert_allclose(multi.x[j], col.x, rtol=0, atol=0)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_matches_single_rhs_unpreconditioned(backend_name):
    a = poisson2d(12)
    b = np.random.default_rng(31).standard_normal((6, a.n_rows))
    with use_backend(backend_name):
        multi = pcg_multi(a, b, rtol=1e-10)
        singles = [pcg(a, b[j], rtol=1e-10) for j in range(6)]
    _assert_columns_match(multi, singles)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_matches_single_rhs_with_fsai(backend_name):
    a = poisson2d(12)
    g = compute_g(a, fsai_initial_pattern(a))
    b = np.random.default_rng(32).standard_normal((5, a.n_rows))
    with use_backend(backend_name):
        # Fresh applications per solve: the apply handles pin the backend
        # (and, for the blocked one, the block width) at first use.
        multi = pcg_multi(a, b, preconditioner=FSAIApplication(g))
        singles = [
            pcg(a, b[j], preconditioner=FSAIApplication(g)) for j in range(5)
        ]
    _assert_columns_match(multi, singles)


def test_matches_single_rhs_with_jacobi_and_x0():
    a = poisson2d(10)
    rng = np.random.default_rng(33)
    b = rng.standard_normal((4, a.n_rows))
    x0 = rng.standard_normal((4, a.n_rows))
    M = JacobiPreconditioner(a)
    multi = pcg_multi(a, b, preconditioner=M, x0=x0)
    singles = [pcg(a, b[j], preconditioner=M, x0=x0[j]) for j in range(4)]
    _assert_columns_match(multi, singles)
    # x0 must never be mutated (pcg copies; pcg_multi must too).
    np.testing.assert_array_equal(x0, np.array(x0))


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_rows_leaving_early_match_single_rhs(backend_name):
    """Rows converging at wildly different rates leave the block early.

    Laplacian eigenvectors make pcg converge in a single iteration, so six
    of the block's eight rows leave it after the first iteration — the
    exact-match assertion then also certifies the retirement bookkeeping
    (banking, reslicing, the prefix views of the shrinking block).
    """
    n = 64
    a = _lap1d(n)
    i = np.arange(1, n + 1)
    b = np.empty((8, n))
    for c, mode in enumerate((1, 2, 3, 5, 8, 13)):
        b[c] = np.sin(np.pi * mode * i / (n + 1))
    rng = np.random.default_rng(34)
    b[6] = rng.standard_normal(n)
    b[7] = rng.standard_normal(n)
    with use_backend(backend_name):
        multi = pcg_multi(a, b, rtol=1e-12)
        singles = [pcg(a, b[j], rtol=1e-12) for j in range(8)]
    iters = [c.iterations for c in multi.columns]
    assert min(iters) == 1 and max(iters) > 10  # rows leave at different times
    _assert_columns_match(multi, singles)


def _indefinite_tridiagonal(n=50):
    """Diagonal 4 (-1 on every 7th row), off-diagonals -1: CG breaks down."""
    d = np.diag(np.full(n, 4.0)) - np.eye(n, k=1) - np.eye(n, k=-1)
    i = np.arange(0, n, 7)
    d[i, i] = -1.0
    return csr_from_dense(d)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_breakdown_rows_count_pcg_flops(backend_name):
    """A row that breaks down reports pcg's flops, not just its iterate.

    pcg counts the SpMV and d·q of the iteration that breaks down; the
    blocked solver counts them too, so every field of the row agrees.
    """
    a = _indefinite_tridiagonal()
    b = np.random.default_rng(0).standard_normal((3, a.n_rows))
    with use_backend(backend_name):
        multi = pcg_multi(a, b)
        singles = [pcg(a, b[j]) for j in range(3)]
    assert not any(c.converged for c in multi.columns)
    assert [c.flops for c in singles] == [1392, 2288, 1392]
    for col, ref in zip(multi.columns, singles):
        assert col.x.tobytes() == ref.x.tobytes()
        assert (col.iterations, col.flops) == (ref.iterations, ref.flops)
        assert col.residual_norm == ref.residual_norm


def test_histories_match_single_rhs():
    a = poisson2d(8)
    b = np.random.default_rng(35).standard_normal((3, a.n_rows))
    multi = pcg_multi(a, b, rtol=1e-10)
    for j in range(3):
        ref = pcg(a, b[j], rtol=1e-10)
        got = multi.columns[j].history.norms
        np.testing.assert_allclose(got, ref.history.norms, rtol=1e-10)


def test_flops_within_tolerance_of_single_rhs():
    a = poisson2d(8)
    b = np.random.default_rng(36).standard_normal((3, a.n_rows))
    multi = pcg_multi(a, b)
    for j in range(3):
        ref = pcg(a, b[j])
        assert multi.columns[j].flops == ref.flops
    assert multi.flops == sum(c.flops for c in multi.columns)


def test_record_history_false():
    a = poisson2d(8)
    b = np.random.default_rng(37).standard_normal((2, a.n_rows))
    multi = pcg_multi(a, b, record_history=False)
    assert all(c.history is None for c in multi.columns)
    assert multi.converged


def test_one_dimensional_b_raises():
    a = poisson2d(8)
    with pytest.raises(ShapeError, match="use pcg"):
        pcg_multi(a, np.ones(a.n_rows))


def test_shape_mismatches_raise():
    a = poisson2d(8)
    b = np.ones((2, a.n_rows))
    with pytest.raises(ShapeError):
        pcg_multi(a, np.ones((2, a.n_rows + 1)))
    with pytest.raises(ShapeError):
        pcg_multi(a, b, x0=np.ones((3, a.n_rows)))


def test_zero_width_block():
    a = poisson2d(8)
    multi = pcg_multi(a, np.empty((0, a.n_rows)))
    assert multi.x.shape == (0, a.n_rows)
    assert multi.columns == []
    assert multi.converged  # vacuously
    assert multi.iterations == 0


def test_preconverged_columns_skip_iteration():
    """A zero row converges before iterating; others still solve."""
    a = poisson2d(8)
    b = np.zeros((3, a.n_rows))
    b[1] = np.random.default_rng(38).standard_normal(a.n_rows)
    multi = pcg_multi(a, b, rtol=1e-10)
    assert multi.columns[0].iterations == 0
    assert multi.columns[2].iterations == 0
    assert multi.columns[0].converged and multi.columns[2].converged
    ref = pcg(a, b[1], rtol=1e-10)
    assert multi.columns[1].iterations == ref.iterations
    np.testing.assert_allclose(multi.columns[1].x, ref.x, rtol=1e-10, atol=1e-10)


def test_iteration_budget_respected():
    a = poisson2d(12)
    b = np.random.default_rng(39).standard_normal((3, a.n_rows))
    multi = pcg_multi(a, b, rtol=1e-14, atol=0.0, max_iterations=5)
    assert not multi.converged
    assert multi.iterations == 5
    assert all(c.iterations == 5 for c in multi.columns)


def test_multi_result_repr_and_aggregates():
    a = poisson2d(8)
    b = np.random.default_rng(40).standard_normal((2, a.n_rows))
    multi = pcg_multi(a, b)
    assert "MultiSolveResult" in repr(multi)
    assert multi.iterations == max(c.iterations for c in multi.columns)
    assert multi.converged == all(c.converged for c in multi.columns)


# ----------------------------------------------------------------------
# Aliasing contracts (satellite: in-place application, x0 sharing b)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_fsai_apply_into_aliased_out(backend_name):
    """``apply_into(r, out=r)`` must be exact: both products stage
    through the separate ``tmp`` workspace, so in-place application is a
    supported way to save a buffer."""
    a = poisson2d(10)
    g = compute_g(a, fsai_initial_pattern(a))
    r = np.random.default_rng(41).standard_normal(a.n_rows)
    with use_backend(backend_name):
        app = FSAIApplication(g)
        expected = app.apply(r)
        buf = r.copy()
        got = app.apply_into(buf, buf)
    assert got is buf
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_fsai_apply_multi_into_aliased_out(backend_name):
    a = poisson2d(10)
    g = compute_g(a, fsai_initial_pattern(a))
    r = np.random.default_rng(42).standard_normal((4, a.n_rows))
    with use_backend(backend_name):
        app = FSAIApplication(g)
        expected = app.apply_multi_into(r, np.empty(r.shape))
        buf = r.copy()
        got = app.apply_multi_into(buf, buf)
    assert got is buf
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_fsai_apply_multi_into_takes_any_width(backend_name):
    """One blocked handle serves every narrower block; a wider one rebinds."""
    a = poisson2d(10)
    g = compute_g(a, fsai_initial_pattern(a))
    r = np.random.default_rng(46).standard_normal((6, a.n_rows))
    with use_backend(backend_name):
        app = FSAIApplication(g)
        single = [app.apply(rj) for rj in r]
        app.apply_multi_into(r[:4], np.empty((4, a.n_rows)))
        handle = app._multi_op
        for k in (4, 1, 3):
            got = app.apply_multi_into(r[:k], np.empty((k, a.n_rows)))
            assert app._multi_op is handle
            for j in range(k):
                assert got[j].tobytes() == single[j].tobytes()
        got = app.apply_multi_into(r, np.empty(r.shape))
    assert app._multi_op is not handle
    for j in range(6):
        assert got[j].tobytes() == single[j].tobytes()


def test_pcg_x0_aliasing_b():
    """``x0=b`` (same array object) must solve correctly and leave b intact."""
    a = poisson2d(10)
    b = np.random.default_rng(43).standard_normal(a.n_rows)
    b_orig = b.copy()
    res = pcg(a, b, x0=b, rtol=1e-10)
    assert res.converged
    np.testing.assert_array_equal(b, b_orig)
    ref = pcg(a, b, x0=b.copy(), rtol=1e-10)
    assert res.iterations == ref.iterations
    np.testing.assert_allclose(res.x, ref.x, rtol=1e-12, atol=1e-12)


def test_pcg_multi_x0_aliasing_b():
    a = poisson2d(10)
    b = np.random.default_rng(44).standard_normal((3, a.n_rows))
    b_orig = b.copy()
    multi = pcg_multi(a, b, x0=b, rtol=1e-10)
    assert multi.converged
    np.testing.assert_array_equal(b, b_orig)
    ref = pcg_multi(a, b, x0=b.copy(), rtol=1e-10)
    for col, rcol in zip(multi.columns, ref.columns):
        assert col.iterations == rcol.iterations
        np.testing.assert_array_equal(col.x, rcol.x)


def test_rows_equal_pcg_bit_for_bit_on_case_21():
    """Each row's iterate and count are pcg's own, bit for bit (numpy).

    G2_circuit-syn with FSAI takes ~1150 iterations, long enough for any
    difference in the reduction order of the dots to change the count.
    """
    a = get_case(21).build()
    app = setup_fsai(a).application
    b = np.stack([make_rhs(a, seed) for seed in range(5)])
    with use_backend("numpy"):
        multi = pcg_multi(a, b, preconditioner=app, record_history=False)
        for j in range(5):
            ref = pcg(a, b[j], preconditioner=app, record_history=False)
            assert multi.columns[j].iterations == ref.iterations > 1000
            assert multi.x[j].tobytes() == ref.x.tobytes()


def test_apply_only_preconditioner_takes_one_row_at_a_time():
    a = poisson2d(10)
    M = IncompleteCholeskyPreconditioner(a)
    assert not hasattr(M, "apply_multi_into")
    b = np.random.default_rng(45).standard_normal((3, a.n_rows))
    multi = pcg_multi(a, b, preconditioner=M, rtol=1e-10)
    singles = [pcg(a, b[j], preconditioner=M, rtol=1e-10) for j in range(3)]
    _assert_columns_match(multi, singles)
