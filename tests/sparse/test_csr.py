"""Unit tests for repro.sparse.csr."""

import copy
import pickle

import numpy as np
import pytest

from repro.collection.generators.fd import poisson2d, poisson3d
from repro.errors import ShapeError
from repro.sparse.construct import csr_from_dense, csr_identity
from repro.sparse.csr import CSRMatrix
from repro.sparse.ordering import permute_symmetric, reverse_cuthill_mckee
from repro.sparse.pattern import Pattern


@pytest.fixture
def dense():
    return np.array(
        [
            [4.0, 1.0, 0.0, 0.0],
            [1.0, 5.0, 2.0, 0.0],
            [0.0, 2.0, 6.0, -1.0],
            [0.0, 0.0, -1.0, 3.0],
        ]
    )


@pytest.fixture
def a(dense):
    return csr_from_dense(dense)


class TestStructure:
    def test_shape_nnz(self, a):
        assert a.shape == (4, 4)
        assert a.nnz == 10

    def test_pattern_shares_structure(self, a):
        p = a.pattern
        assert isinstance(p, Pattern)
        assert p.nnz == a.nnz

    def test_row_view(self, a, dense):
        cols, vals = a.row(1)
        assert list(cols) == [0, 1, 2]
        assert np.allclose(vals, [1, 5, 2])

    def test_data_index_length_mismatch(self):
        with pytest.raises(ShapeError):
            CSRMatrix(1, 2, [0, 1], [0], [1.0, 2.0])

    def test_row_ids(self, a):
        ids = a.row_ids()
        assert len(ids) == a.nnz
        assert list(np.bincount(ids)) == [2, 3, 3, 2]


class TestKernels:
    def test_matvec_matches_dense(self, a, dense, rng):
        x = rng.standard_normal(4)
        assert np.allclose(a.matvec(x), dense @ x)

    def test_matvec_out_param(self, a, dense):
        x = np.ones(4)
        out = np.empty(4)
        y = a.matvec(x, out=out)
        assert y is out
        assert np.allclose(out, dense @ x)

    def test_rmatvec_matches_dense(self, a, dense, rng):
        x = rng.standard_normal(4)
        assert np.allclose(a.rmatvec(x), dense.T @ x)

    def test_matmul_operator(self, a, dense):
        x = np.arange(4.0)
        assert np.allclose(a @ x, dense @ x)

    def test_matvec_wrong_shape(self, a):
        with pytest.raises(ShapeError):
            a.matvec(np.ones(5))

    def test_rmatvec_wrong_shape(self, a):
        with pytest.raises(ShapeError):
            a.rmatvec(np.ones(5))

    def test_empty_rows_give_zero(self):
        m = CSRMatrix(3, 3, [0, 0, 1, 1], [2], [5.0])
        y = m.matvec(np.array([1.0, 1.0, 1.0]))
        assert np.allclose(y, [0.0, 5.0, 0.0])

    def test_rectangular_matvec(self):
        m = csr_from_dense(np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]]))
        assert np.allclose(m.matvec(np.array([1.0, 1.0, 1.0])), [6.0, 1.0])
        assert np.allclose(m.rmatvec(np.array([1.0, 2.0])), [1.0, 4.0, 3.0])


class TestExtraction:
    def test_diagonal(self, a, dense):
        assert np.allclose(a.diagonal(), np.diag(dense))

    def test_diagonal_with_missing_entries(self):
        m = csr_from_dense(np.array([[0.0, 1.0], [0.0, 2.0]]))
        assert np.allclose(m.diagonal(), [0.0, 2.0])

    def test_tril_triu(self, a, dense):
        assert np.allclose(a.tril().to_dense(), np.tril(dense))
        assert np.allclose(a.triu().to_dense(), np.triu(dense))
        assert np.allclose(
            a.tril(keep_diagonal=False).to_dense(), np.tril(dense, -1)
        )

    def test_drop_small_keeps_diagonal(self, a):
        small = a.drop_small(100.0)
        assert np.allclose(small.diagonal(), a.diagonal())
        assert small.nnz == 4

    def test_drop_small_without_diagonal(self, a):
        assert a.drop_small(100.0, keep_diagonal=False).nnz == 0

    def test_prune_zeros(self):
        m = CSRMatrix(2, 2, [0, 2, 3], [0, 1, 1], [1.0, 0.0, 2.0])
        pruned = m.prune_zeros()
        assert pruned.nnz == 2
        assert np.allclose(pruned.to_dense(), m.to_dense())


class TestConversions:
    def test_transpose_matches_dense(self, a, dense):
        assert np.allclose(a.T.to_dense(), dense.T)

    def test_transpose_involution(self, a):
        assert np.allclose(a.T.T.to_dense(), a.to_dense())

    def test_to_coo_roundtrip(self, a):
        assert np.allclose(a.to_coo().to_csr().to_dense(), a.to_dense())

    def test_copy_is_independent(self, a):
        c = a.copy()
        c.data[0] = 99.0
        assert a.data[0] != 99.0

    def test_with_data(self, a):
        doubled = a.with_data(a.data * 2)
        assert np.allclose(doubled.to_dense(), 2 * a.to_dense())

    def test_from_pattern_zero_values(self, a):
        z = CSRMatrix.from_pattern(a.pattern)
        assert z.nnz == a.nnz
        assert np.allclose(z.data, 0.0)


class TestAlgebra:
    def test_scale_rows(self, a, dense):
        s = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(a.scale_rows(s).to_dense(), np.diag(s) @ dense)

    def test_scale_cols(self, a, dense):
        s = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(a.scale_cols(s).to_dense(), dense @ np.diag(s))

    def test_scale_wrong_length(self, a):
        with pytest.raises(ShapeError):
            a.scale_rows(np.ones(3))

    def test_frobenius_norm(self, a, dense):
        assert a.frobenius_norm() == pytest.approx(np.linalg.norm(dense, "fro"))

    def test_max_norm(self, a, dense):
        assert a.max_norm() == pytest.approx(np.abs(dense).max())

    def test_is_symmetric(self, a):
        assert a.is_symmetric()

    def test_is_symmetric_rejects_asymmetric_values(self):
        m = csr_from_dense(np.array([[1.0, 2.0], [3.0, 1.0]]))
        assert not m.is_symmetric()

    def test_identity(self):
        i = csr_identity(3, scale=2.0)
        assert np.allclose(i.to_dense(), 2 * np.eye(3))


class TestCopies:
    """pickle and deepcopy carry the CSR arrays, never the lazy views."""

    @staticmethod
    def _operators():
        rcm = poisson3d(6)
        return [
            poisson2d(20),  # DIA views
            permute_symmetric(rcm, reverse_cuthill_mckee(rcm)),  # ELL views
        ]

    @pytest.mark.parametrize("primed", [False, True], ids=["cold", "primed"])
    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_copy_gives_the_same_products(self, how, primed):
        for m in self._operators():
            x = np.random.default_rng(3).standard_normal(m.n_cols)
            if primed:
                m.matvec(x)
                m.rmatvec(x)
                m.fingerprint()
            c = (pickle.loads(pickle.dumps(m)) if how == "pickle"
                 else copy.deepcopy(m))
            assert c.matvec(x).tobytes() == m.matvec(x).tobytes()
            assert c.rmatvec(x).tobytes() == m.rmatvec(x).tobytes()
            assert c.fingerprint() == m.fingerprint()

    def test_pickle_carries_no_lazy_views(self):
        for m in self._operators():
            m.matvec(np.ones(m.n_cols))
            m.rmatvec(np.ones(m.n_rows))
            arrays = m.indptr.nbytes + m.indices.nbytes + m.data.nbytes
            assert len(pickle.dumps(m)) < arrays + 1024
            c = pickle.loads(pickle.dumps(m))
            assert c._ell is None and c._ell_t is None and c._row_ids is None
