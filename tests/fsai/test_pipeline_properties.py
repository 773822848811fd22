"""Property-based tests over the complete FSAIE pipelines (hypothesis).

Random sparse SPD matrices, random line sizes and alignments: the
structural invariants of the end-to-end setups must hold for all of them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.address import ArrayPlacement
from repro.fsai.extended import (
    setup_fsai,
    setup_fsaie_full,
    setup_fsaie_sp,
)
from repro.sparse.construct import csr_from_dense
from repro.solvers.cg import pcg
from tests.conftest import random_spd_dense


@st.composite
def spd_matrices(draw):
    n = draw(st.integers(6, 28))
    seed = draw(st.integers(0, 2**31 - 1))
    density = draw(st.floats(0.1, 0.6))
    return csr_from_dense(random_spd_dense(n, seed=seed, density=density))


@st.composite
def placements(draw):
    line = draw(st.sampled_from([64, 128, 256]))
    offset = draw(st.integers(0, 7))
    return ArrayPlacement.with_element_offset(line, offset)


class TestPipelineInvariants:
    @given(spd_matrices(), placements(), st.sampled_from([0.0, 0.01, 0.1]))
    @settings(max_examples=30, deadline=None)
    def test_sp_pattern_nesting(self, a, placement, f):
        setup = setup_fsaie_sp(a, placement, filter_value=f)
        assert setup.base_pattern.is_subset_of(setup.final_pattern)
        assert setup.final_pattern.is_lower_triangular()
        assert setup.final_pattern.has_full_diagonal()

    @given(spd_matrices(), placements())
    @settings(max_examples=20, deadline=None)
    def test_full_contains_sp(self, a, placement):
        sp = setup_fsaie_sp(a, placement, filter_value=0.01)
        fu = setup_fsaie_full(a, placement, filter_value=0.01)
        assert sp.final_pattern.is_subset_of(fu.final_pattern)

    @given(spd_matrices(), placements())
    @settings(max_examples=20, deadline=None)
    def test_unit_diagonal_of_gagt(self, a, placement):
        setup = setup_fsaie_full(a, placement, filter_value=0.01)
        gd = setup.g.to_dense()
        diag = np.diag(gd @ a.to_dense() @ gd.T)
        assert np.allclose(diag, 1.0, atol=1e-8)

    @given(spd_matrices(), placements())
    @settings(max_examples=20, deadline=None)
    def test_extension_never_hurts_convergence(self, a, placement):
        rng = np.random.default_rng(0)
        b = rng.uniform(-1, 1, a.n_rows) / a.max_norm()
        base = pcg(a, b, preconditioner=setup_fsai(a).application)
        ext = pcg(
            a, b,
            preconditioner=setup_fsaie_full(
                a, placement, filter_value=0.0
            ).application,
        )
        assert ext.converged
        # Unfiltered cache extension can only enrich the Frobenius space:
        # allow a tiny roundoff slack in iterations.
        assert ext.iterations <= base.iterations + 2

    @given(spd_matrices(), placements())
    @settings(max_examples=20, deadline=None)
    def test_filter_monotone_nnz(self, a, placement):
        sizes = [
            setup_fsaie_sp(a, placement, filter_value=f).final_pattern.nnz
            for f in (0.0, 0.01, 0.1)
        ]
        assert sizes == sorted(sizes, reverse=True)

    @given(spd_matrices(), placements())
    @settings(max_examples=15, deadline=None)
    def test_gt_storage_is_transpose(self, a, placement):
        setup = setup_fsaie_full(a, placement, filter_value=0.01)
        g = setup.application.g
        assert setup.application.gt_pattern == g.transpose().pattern
