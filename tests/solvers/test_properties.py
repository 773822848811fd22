"""Property-based tests for the solvers (hypothesis).

Random SPD systems of varying conditioning: CG must terminate within n
iterations (exact arithmetic bound, with roundoff slack), FSAI-PCG must
converge and produce the same solution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fsai.extended import setup_fsai
from repro.solvers.cg import cg, pcg
from repro.sparse.construct import csr_from_dense


@st.composite
def spd_systems(draw):
    n = draw(st.integers(2, 16))
    seed = draw(st.integers(0, 2**31 - 1))
    spread = draw(st.floats(0.0, 3.0))  # log10 of diagonal scaling spread
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    s = np.diag(10.0 ** rng.uniform(-spread / 2, spread / 2, n))
    a = s @ a @ s
    b = rng.standard_normal(n)
    return a, b


class TestCGProperties:
    @given(spd_systems())
    @settings(max_examples=60, deadline=None)
    def test_finite_termination(self, system):
        a, b = system
        n = a.shape[0]
        res = cg(csr_from_dense(a), b, rtol=1e-8, max_iterations=4 * n)
        assert res.converged

    @given(spd_systems())
    @settings(max_examples=60, deadline=None)
    def test_solution_accuracy(self, system):
        a, b = system
        res = cg(csr_from_dense(a), b, rtol=1e-10, max_iterations=1000)
        assert np.linalg.norm(a @ res.x - b) <= 1e-6 * max(np.linalg.norm(b), 1e-30)

    @given(spd_systems())
    @settings(max_examples=40, deadline=None)
    def test_fsai_pcg_converges_and_agrees(self, system):
        a, b = system
        mat = csr_from_dense(a)
        setup = setup_fsai(mat)
        plain = cg(mat, b, rtol=1e-10, max_iterations=1000)
        precond = pcg(
            mat, b, preconditioner=setup.application,
            rtol=1e-10, max_iterations=1000,
        )
        assert precond.converged
        scale = max(np.linalg.norm(plain.x), 1e-30)
        assert np.linalg.norm(precond.x - plain.x) <= 1e-5 * scale

    @given(spd_systems())
    @settings(max_examples=40, deadline=None)
    def test_residual_history_final_matches(self, system):
        a, b = system
        res = cg(csr_from_dense(a), b)
        assert res.history is not None
        assert res.history.final == res.residual_norm

