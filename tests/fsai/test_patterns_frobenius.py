"""Unit tests for repro.fsai.patterns and repro.fsai.frobenius."""

import numpy as np
import pytest

from repro.errors import NotSPDError, PatternError, ShapeError
from repro.fsai.frobenius import (
    compute_g,
    precalculate_g,
    setup_flops_direct,
    setup_flops_precalc,
)
from repro.fsai.patterns import fsai_initial_pattern
from repro.sparse.construct import csr_from_dense
from repro.sparse.pattern import Pattern
from tests.conftest import random_spd_dense


@pytest.fixture
def spd8():
    return csr_from_dense(random_spd_dense(8, seed=11, density=0.5))


class TestInitialPattern:
    def test_level1_is_tril_of_a(self, spd8):
        p = fsai_initial_pattern(spd8)
        assert p == spd8.pattern.tril()

    def test_always_has_diagonal(self):
        # Matrix with a structural zero on the diagonal after thresholding.
        d = np.array([[1.0, 0.8], [0.8, 1.0]])
        a = csr_from_dense(d)
        p = fsai_initial_pattern(a, threshold=0.0)
        assert p.has_full_diagonal()

    def test_level2_grows(self, spd8):
        p1 = fsai_initial_pattern(spd8, level=1)
        p2 = fsai_initial_pattern(spd8, level=2)
        assert p1.is_subset_of(p2)
        assert p2.nnz >= p1.nnz

    def test_threshold_shrinks(self):
        a = csr_from_dense(random_spd_dense(10, seed=3))
        p0 = fsai_initial_pattern(a, threshold=0.0)
        pt = fsai_initial_pattern(a, threshold=0.5)
        assert pt.nnz < p0.nnz
        assert pt.has_full_diagonal()

    def test_requires_square(self):
        with pytest.raises(ShapeError):
            fsai_initial_pattern(csr_from_dense(np.ones((2, 3))))


class TestComputeG:
    def test_unit_diag_of_gagt(self, spd8):
        g = compute_g(spd8, fsai_initial_pattern(spd8))
        gd = g.to_dense()
        gagt = gd @ spd8.to_dense() @ gd.T
        assert np.allclose(np.diag(gagt), 1.0)

    def test_lower_triangular(self, spd8):
        g = compute_g(spd8, fsai_initial_pattern(spd8))
        assert g.pattern.is_lower_triangular()

    def test_full_pattern_gives_exact_inverse_factor(self):
        # With the full lower-triangular pattern, G^T G = A^{-1} exactly.
        d = random_spd_dense(6, seed=21)
        a = csr_from_dense(d)
        full = Pattern.from_dense_mask(np.tril(np.ones((6, 6), dtype=bool)))
        g = compute_g(a, full).to_dense()
        assert np.allclose(g.T @ g, np.linalg.inv(d), atol=1e-8)

    def test_frobenius_minimality(self):
        # Perturbing any stored entry of G must not decrease ||I - G L||_F.
        d = random_spd_dense(6, seed=22, density=0.6)
        a = csr_from_dense(d)
        L = np.linalg.cholesky(d)
        p = fsai_initial_pattern(a)
        g = compute_g(a, p)
        gd = g.to_dense()
        # The Frobenius-optimal G for pattern S minimises row-by-row; its
        # scaled variant keeps optimality direction-wise: check stationarity.
        base = np.linalg.norm(np.eye(6) - (gd @ L), "fro") ** 2
        rows, cols = p.coo()
        for r, c in zip(rows, cols):
            if r == c:
                continue  # diagonal is constrained by the normalisation
            for eps in (1e-4, -1e-4):
                gp = gd.copy()
                gp[r, c] += eps
                # re-normalise the row to keep (GAG^T)_rr = 1
                quad = gp[r] @ d @ gp[r]
                gp[r] /= np.sqrt(quad)
                perturbed = np.linalg.norm(np.eye(6) - gp @ L, "fro") ** 2
                assert perturbed >= base - 1e-10

    def test_diagonal_pattern_is_jacobi_sqrt(self, spd8):
        p = Pattern.identity(8)
        g = compute_g(spd8, p)
        assert np.allclose(g.diagonal(), 1.0 / np.sqrt(spd8.diagonal()))

    def test_rejects_indefinite(self):
        a = csr_from_dense(np.diag([1.0, -1.0]))
        with pytest.raises(NotSPDError):
            compute_g(a, Pattern.identity(2))

    def test_shape_mismatch(self, spd8):
        with pytest.raises(ShapeError):
            compute_g(spd8, Pattern.identity(5))

    def test_missing_diagonal_rejected(self, spd8):
        # Row 0 is empty and row 1 holds (1, 0) without its diagonal.
        bad = Pattern.from_coo(8, 8, np.array([1]), np.array([0]))
        with pytest.raises(PatternError, match="row 0"):
            compute_g(spd8, bad)
        with pytest.raises(PatternError, match="row 0"):
            precalculate_g(spd8, bad)

    def test_upper_pattern_rejected(self, spd8):
        with pytest.raises(PatternError):
            compute_g(spd8, spd8.pattern.triu())


class TestPrecalculateG:
    def test_same_pattern(self, spd8):
        p = fsai_initial_pattern(spd8)
        g = precalculate_g(spd8, p)
        assert g.pattern == p

    def test_high_budget_matches_exact(self, spd8):
        p = fsai_initial_pattern(spd8)
        exact = compute_g(spd8, p)
        approx = precalculate_g(spd8, p, rtol=1e-12, max_iterations=500)
        assert np.allclose(approx.data, exact.data, atol=1e-6)

    def test_loose_budget_classifies_magnitudes(self):
        d = random_spd_dense(12, seed=30, density=0.5)
        a = csr_from_dense(d)
        p = fsai_initial_pattern(a)
        exact = compute_g(a, p)
        approx = precalculate_g(a, p, rtol=1e-2, max_iterations=20)
        # Large entries of the exact G must appear large in the approx.
        big = np.abs(exact.data) > 0.5 * np.abs(exact.data).max()
        assert np.all(np.abs(approx.data[big]) > 0.1 * np.abs(exact.data[big]))

    def test_fallback_on_breakdown_keeps_positive_diag(self):
        # Use an indefinite matrix: truncated CG breaks down, the Jacobi
        # fallback must still produce a usable (positive-diagonal) row.
        a = csr_from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        g = precalculate_g(a, a.pattern.tril(), max_iterations=1)
        assert np.all(g.diagonal() > 0)


class TestFlopEstimates:
    def test_direct_scales_cubically(self):
        p1 = Pattern.from_rows(4, 4, [[0], [1], [2], [3]])
        p2 = Pattern.from_rows(4, 4, [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]])
        assert setup_flops_direct(p2) > setup_flops_direct(p1)

    def test_precalc_iterations_clamped_by_row_width(self):
        # CG on a k x k system takes at most k steps, so the estimate stops
        # growing once the budget exceeds the widest row.
        p = Pattern.from_rows(3, 3, [[0], [0, 1], [1, 2]])
        assert setup_flops_precalc(p, 20) == setup_flops_precalc(p, 10)
        assert setup_flops_precalc(p, 2) > setup_flops_precalc(p, 1)

    def test_precalc_linear_below_clamp(self):
        wide = Pattern.from_rows(
            8, 8, [list(range(i + 1)) for i in range(8)]
        )
        assert setup_flops_precalc(wide, 4) < setup_flops_precalc(wide, 8)
