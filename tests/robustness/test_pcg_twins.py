"""Each ``pcg_multi`` row is the ``pcg`` solve of that row, on hostile inputs.

The blocked solver promises that a row's result never depends on the
rows that share its block: on the numpy and reference backends every
:class:`~repro.solvers.convergence.SolveResult` field of a row equals
:func:`~repro.solvers.cg.pcg` on that row alone, bit for bit.  Hypothesis
draws the systems that stress that promise: small SPD matrices,
indefinite ones (so rows break down on ``d·q <= 0``), diagonal ones whose
unit right-hand sides converge or break down in the first iteration,
diagonal scalings across 1e±6, ``n`` from 1 to 40, zero or nonzero
starting guesses (also mixed within a block), no, Jacobi or FSAI
preconditioning, and blocks of 1 to 6 rows in random order, so rows that
converge, break down and run out of budget sit side by side.  Every
outcome is finite, or a typed :mod:`repro.errors` exception (a Jacobi
or FSAI setup refusing an indefinite matrix).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.fsai.extended import setup_fsai
from repro.kernels import use_backend
from repro.solvers import JacobiPreconditioner
from repro.solvers.cg import pcg, pcg_multi
from repro.sparse.construct import csr_from_dense

BACKENDS = ("numpy", "reference")


def _matrix(rng, n, kind, spread):
    """A ``kind`` matrix, scaled by ``D A D`` with ``D`` across 10^±spread."""
    if kind == "diagonal":
        dense = np.diag(rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n))
    else:
        off = np.tril(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3), -1)
        off += off.T
        diag = np.abs(off).sum(axis=1) + rng.uniform(0.1, 1.0, n)
        if kind == "indefinite":
            diag[rng.random(n) < 0.3] *= -1.0
        dense = off + np.diag(diag)
    scale = 10.0 ** rng.uniform(-spread, spread, n)
    return csr_from_dense(scale[:, None] * dense * scale[None, :])


def _rows(rng, n, k):
    """``k`` right-hand sides: random, unit vectors and zero rows, shuffled."""
    block = rng.standard_normal((k, n))
    kinds = rng.integers(0, 3, k)
    for j in np.flatnonzero(kinds == 1):
        block[j] = 0.0
        block[j, rng.integers(n)] = 1.0
    block[kinds == 2] = 0.0
    return block[rng.permutation(k)]


@st.composite
def twins_cases(draw):
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["spd", "indefinite", "diagonal"]))
    spread = draw(st.sampled_from([0.0, 1.0, 3.0]))  # entries across 10^±2·spread
    k = draw(st.integers(1, 6))
    start = draw(st.sampled_from(["none", "zero", "random", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = _matrix(rng, n, kind, spread)
    b = _rows(rng, n, k)
    x0 = None
    if start != "none":
        x0 = np.zeros((k, n)) if start == "zero" else rng.standard_normal((k, n))
        if start == "mixed":
            x0[rng.random(k) < 0.5] = 0.0
    solver = dict(
        preconditioner=draw(st.sampled_from([None, "jacobi", "fsai"])),
        rtol=draw(st.sampled_from([1e-8, 1e-4])),
        max_iterations=draw(st.sampled_from([0, 1, 2, 5, 100])),
    )
    return a, b, x0, solver


def _preconditioner(name, a):
    if name == "jacobi":
        return JacobiPreconditioner(a)
    if name == "fsai":
        return setup_fsai(a).application
    return None


def _assert_same_solve(got, ref):
    assert np.isfinite(ref.x).all()
    for value in (
        ref.residual_norm, ref.relative_residual, ref.true_relative_residual
    ):
        assert math.isfinite(value)
    assert got.x.tobytes() == ref.x.tobytes()
    assert got.iterations == ref.iterations
    assert got.converged == ref.converged
    assert got.residual_norm == ref.residual_norm
    assert got.relative_residual == ref.relative_residual
    assert got.true_relative_residual == ref.true_relative_residual
    assert got.flops == ref.flops
    assert got.history.norms == ref.history.norms


def _assert_rows_are_pcg(a, b, x0, solver):
    for name in BACKENDS:
        with use_backend(name):
            try:
                m = _preconditioner(solver["preconditioner"], a)
            except ReproError:
                continue  # a typed refusal of an indefinite matrix
            kwargs = dict(solver, preconditioner=m)
            multi = pcg_multi(a, b, x0=x0, **kwargs)
            for j, col in enumerate(multi.columns):
                ref = pcg(a, b[j], x0=None if x0 is None else x0[j], **kwargs)
                _assert_same_solve(col, ref)
                assert multi.x[j].tobytes() == col.x.tobytes()


@given(twins_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_pcg_multi_rows_are_pcg_solves(case):
    _assert_rows_are_pcg(*case)


@pytest.mark.parametrize("max_iterations", [1, 100])
def test_one_row_converges_as_another_breaks_down(max_iterations):
    """Iteration 1 retires row 0 (converged) and row 1 (``d·q < 0``)."""
    a = csr_from_dense(np.diag([1.0, -1.0, 2.0, 3.0]))
    b = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 1.0]])
    multi = pcg_multi(a, b, max_iterations=max_iterations)
    assert [c.converged for c in multi.columns] == [True, False, max_iterations > 1]
    assert [c.iterations for c in multi.columns] == [1, 0, min(max_iterations, 2)]
    solver = dict(preconditioner=None, rtol=1e-8, max_iterations=max_iterations)
    _assert_rows_are_pcg(a, b, None, solver)
