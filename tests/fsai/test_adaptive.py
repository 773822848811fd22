"""Unit tests for the FSPAI-style adaptive patterns (repro.fsai.adaptive)."""

import numpy as np
import pytest

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.arch.cacheline import lines_touched
from repro.collection.generators.fd import poisson2d
from repro.errors import NotSPDError, ShapeError
from repro.fsai.adaptive import (
    adaptive_pattern,
    setup_fspai,
    setup_fspai_cache_extended,
)
from repro.fsai.extended import setup_fsai
from repro.kernels import ENV_VAR
from repro.solvers.cg import pcg
from repro.sparse.construct import csr_from_dense

from tests.conftest import random_spd_dense


@pytest.fixture(scope="module")
def a():
    return poisson2d(12)  # n = 144


def _tridiagonal(n=8):
    return csr_from_dense(2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))


def _greedy_oracle(a, budget, tolerance):
    """Per-row greedy growth with a dense solve of every local system."""
    dense = a.to_dense()
    rows = []
    for i in range(a.n_rows):
        support = [i]
        for _ in range(budget):
            J = np.array(sorted(support))
            g_hat = np.linalg.solve(dense[np.ix_(J, J)], (J == i).astype(float))
            cand = [
                j for j in range(i)
                if j not in support and np.any(dense[J, j] != 0.0)
            ]
            if not cand:
                break
            scores = np.abs(g_hat @ dense[np.ix_(J, cand)])
            scores /= np.sqrt(np.diag(dense)[cand])
            # Largest score; exact ties go to the largest column.
            score, j = max(zip(scores, cand))
            if score <= tolerance:
                break
            support.append(j)
        rows.append(sorted(support))
    return rows


ORACLE_MATRICES = {
    "poisson2d12": lambda: poisson2d(12),
    "tridiag8": _tridiagonal,
    "random_sparse30": lambda: csr_from_dense(
        random_spd_dense(30, seed=11, density=0.2)
    ),
}
ORACLE_SETTINGS = [(4, 1e-2), (8, 1e-4), (3, 0.0), (1, 1e-8), (6, 1e-3)]


@pytest.fixture(scope="module")
def b(a):
    rng = np.random.default_rng(3)
    return rng.uniform(-1, 1, a.n_rows) / a.max_norm()


class TestAdaptivePattern:
    def test_lower_triangular_with_diagonal(self, a):
        p = adaptive_pattern(a, max_new_per_row=4)
        assert p.is_lower_triangular()
        assert p.has_full_diagonal()

    def test_budget_zero_gives_diagonal(self, a):
        p = adaptive_pattern(a, max_new_per_row=0)
        assert p.nnz == a.n_rows

    def test_budget_respected(self, a):
        p = adaptive_pattern(a, max_new_per_row=3, tolerance=0.0)
        assert int(p.row_lengths().max()) <= 4

    def test_growth_monotone_in_budget(self, a):
        small = adaptive_pattern(a, max_new_per_row=2, tolerance=1e-4)
        large = adaptive_pattern(a, max_new_per_row=6, tolerance=1e-4)
        assert large.nnz >= small.nnz

    def test_tight_tolerance_grows_more(self, a):
        loose = adaptive_pattern(a, max_new_per_row=8, tolerance=0.5)
        tight = adaptive_pattern(a, max_new_per_row=8, tolerance=1e-4)
        assert tight.nnz >= loose.nnz

    def test_dense_inverse_row_selected(self):
        # For a tridiagonal SPD matrix, the most valuable lower entries of
        # row i are its immediate predecessors — the adaptive growth must
        # pick the (i, i-1) coupling first.
        p = adaptive_pattern(_tridiagonal(), max_new_per_row=1, tolerance=1e-8)
        for i in range(1, 8):
            assert (i, i - 1) in p

    @pytest.mark.parametrize("budget,tolerance", ORACLE_SETTINGS)
    @pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
    def test_matches_dense_greedy_oracle(self, name, budget, tolerance):
        m = ORACLE_MATRICES[name]()
        p = adaptive_pattern(m, max_new_per_row=budget, tolerance=tolerance)
        expected = _greedy_oracle(m, budget, tolerance)
        assert [p.row(i).tolist() for i in range(m.n_rows)] == expected

    def test_exact_tie_goes_to_largest_column(self):
        # Row 3 couples equally to columns 0, 1 and 2, which are mutually
        # uncoupled: its three candidate scores are bit-identical, and the
        # growth must take them largest column first.
        d = 4.0 * np.eye(4)
        d[3, :3] = d[:3, 3] = -1.0
        m = csr_from_dense(d)
        for budget, expected in ((1, [2, 3]), (2, [1, 2, 3]), (3, [0, 1, 2, 3])):
            p = adaptive_pattern(m, max_new_per_row=budget, tolerance=0.0)
            assert p.row(3).tolist() == expected

    def test_reference_backend_grows_the_same_pattern(self, a, monkeypatch):
        default = adaptive_pattern(a, max_new_per_row=4, tolerance=1e-3)
        monkeypatch.setenv(ENV_VAR, "reference")
        with trace.collecting() as collector:
            reference = adaptive_pattern(a, max_new_per_row=4, tolerance=1e-3)
        ops = [
            r for root in collector.roots for r in root.iter_spans()
            if r.name in ("fsai.frobenius", "spgemm")
        ]
        assert ops and {r.attrs["backend"] for r in ops} == {"reference"}
        assert reference == default

    def test_validations(self, a):
        with pytest.raises(ShapeError):
            adaptive_pattern(csr_from_dense(np.ones((2, 3))))
        with pytest.raises(ValueError):
            adaptive_pattern(a, max_new_per_row=-1)
        with pytest.raises(NotSPDError):
            adaptive_pattern(csr_from_dense(np.diag([1.0, -1.0])))


class TestSetups:
    def test_fspai_beats_static_fsai_iterations(self, a, b):
        static = setup_fsai(a)
        dynamic = setup_fspai(a, max_new_per_row=8, tolerance=1e-3)
        r_static = pcg(a, b, preconditioner=static.application)
        r_dynamic = pcg(a, b, preconditioner=dynamic.application)
        # §8: "dynamic approximate inverses are more powerful than their
        # static counterparts" — given enough budget.
        assert r_dynamic.iterations <= r_static.iterations

    def test_fspai_unit_diag_invariant(self, a):
        setup = setup_fspai(a, max_new_per_row=4)
        gd = setup.g.to_dense()
        gagt = gd @ a.to_dense() @ gd.T
        assert np.allclose(np.diag(gagt), 1.0, atol=1e-10)

    def test_cache_extension_composes(self, a, b):
        placement = ArrayPlacement.aligned(64)
        plain = setup_fspai(a, max_new_per_row=4, tolerance=1e-2)
        extended = setup_fspai_cache_extended(
            a, placement, max_new_per_row=4, tolerance=1e-2, filter_value=0.0
        )
        assert plain.base_pattern == extended.base_pattern
        assert plain.final_pattern.is_subset_of(extended.final_pattern)
        r_plain = pcg(a, b, preconditioner=plain.application)
        r_ext = pcg(a, b, preconditioner=extended.application)
        assert r_ext.iterations <= r_plain.iterations

    def test_cache_extension_preserves_line_footprint(self, a):
        placement = ArrayPlacement.aligned(64)
        extended = setup_fspai_cache_extended(
            a, placement, max_new_per_row=4, filter_value=0.0
        )
        base = extended.base_pattern
        final = extended.final_pattern
        for i in range(base.n_rows):
            assert np.array_equal(
                lines_touched(base.row(i), placement),
                lines_touched(final.row(i), placement),
            )

    def test_setups_trace_their_span_and_growth_steps(self, a):
        placement = ArrayPlacement.aligned(64)
        with trace.collecting() as collector:
            setup_fspai(a, max_new_per_row=4, tolerance=1e-2)
            setup_fspai_cache_extended(
                a, placement, max_new_per_row=3, tolerance=1e-2
            )
        spans = [r for root in collector.roots for r in root.iter_spans()]
        setups = [r for r in spans if r.name == "fsai.setup"]
        assert [r.attrs["method"] for r in setups] == ["fspai", "fspai_ext"]
        steps = [r.total_counters()["fsai.adaptive_steps"] for r in setups]
        assert steps == [4, 3]

    def test_flop_ledger(self, a):
        ext = setup_fspai_cache_extended(a, ArrayPlacement.aligned(64))
        assert set(ext.flops) == {"adaptive", "precalc1", "direct"}
        assert ext.setup_flops > setup_fspai(a).setup_flops
