"""Unit tests for repro.sparse.construct and repro.sparse.validate."""

import numpy as np
import pytest

from repro.errors import (
    MatrixFormatError,
    NotSPDError,
    NotSymmetricError,
    ShapeError,
)
from repro.sparse.construct import (
    csr_diagonal_matrix,
    csr_from_coo_arrays,
    csr_from_dense,
    csr_identity,
)
from repro.sparse.validate import (
    check_spd_sample,
    gershgorin_bounds,
    require_positive_diagonal,
    require_square,
    require_symmetric,
)


class TestConstruct:
    def test_from_dense_drop_tolerance(self):
        m = csr_from_dense(np.array([[1.0, 1e-12], [0.0, 2.0]]), drop_tolerance=1e-9)
        assert m.nnz == 2

    def test_from_dense_requires_2d(self):
        with pytest.raises(ShapeError):
            csr_from_dense(np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pos", [(2, 2), (3, 2)], ids=["diag", "offdiag"])
    def test_from_dense_rejects_non_finite(self, bad, pos):
        d = 2.0 * np.eye(6) - np.eye(6, k=1) - np.eye(6, k=-1)
        d[pos] = bad
        d[5, 0] = bad  # a later bad entry: the error names the first
        with pytest.raises(MatrixFormatError, match=rf"at \({pos[0]}, {pos[1]}\)"):
            csr_from_dense(d)

    def test_from_dense_nan_not_dropped_by_tolerance(self):
        d = 2.0 * np.eye(6) - np.eye(6, k=1) - np.eye(6, k=-1)
        d[1, 0] = d[0, 1] = np.nan
        with pytest.raises(MatrixFormatError, match="nan"):
            csr_from_dense(d, drop_tolerance=1e-9)

    def test_identity(self):
        assert np.allclose(csr_identity(3).to_dense(), np.eye(3))

    def test_diagonal_matrix(self):
        d = np.array([1.0, -2.0, 3.0])
        assert np.allclose(csr_diagonal_matrix(d).to_dense(), np.diag(d))

    def test_from_coo_arrays_sums_duplicates(self):
        m = csr_from_coo_arrays(2, 2, [0, 0], [0, 0], [1.0, 2.0])
        assert m.to_dense()[0, 0] == 3.0


class TestValidate:
    def test_require_square(self):
        require_square(csr_identity(3))
        with pytest.raises(ShapeError):
            require_square(csr_from_dense(np.ones((2, 3))))

    def test_require_symmetric_passes(self, small_spd):
        require_symmetric(small_spd)

    def test_require_symmetric_fails(self):
        m = csr_from_dense(np.array([[1.0, 2.0], [3.0, 1.0]]))
        with pytest.raises(NotSymmetricError):
            require_symmetric(m)

    def test_positive_diagonal(self, small_spd):
        require_positive_diagonal(small_spd)

    def test_positive_diagonal_fails(self):
        m = csr_from_dense(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(NotSPDError):
            require_positive_diagonal(m)

    def test_spd_sample_passes(self, small_spd):
        check_spd_sample(small_spd)

    def test_spd_sample_catches_indefinite(self):
        m = csr_from_dense(np.diag([1.0, -5.0, 1.0]))
        with pytest.raises(NotSPDError):
            check_spd_sample(m, n_probes=32)

    def test_gershgorin_encloses_spectrum(self, small_spd):
        lo, hi = gershgorin_bounds(small_spd)
        eigs = np.linalg.eigvalsh(small_spd.to_dense())
        assert lo <= eigs.min() + 1e-12
        assert hi >= eigs.max() - 1e-12
