"""CSR degenerate-shape contracts: empty rows, empty matrices, zero tails.

``matvec``/``rmatvec`` build the output with ``np.bincount(..., minlength=n)``
— these tests pin the contract that the result length is *always* the full
dimension, even when the trailing rows (or the whole matrix) hold no entries,
and that the scratch/gather fast path honours the same shapes.
"""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse.csr import CSRMatrix


def _csr(n_rows, n_cols, rows, cols, vals):
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.add.at(indptr, np.asarray(rows, dtype=np.int64) + 1, 1)
    indptr = np.cumsum(indptr)
    order = np.lexsort((cols, rows))
    return CSRMatrix(
        n_rows, n_cols, indptr,
        np.asarray(cols, dtype=np.int64)[order],
        np.asarray(vals, dtype=np.float64)[order],
    )


class TestEmptyRows:
    def test_interior_empty_row(self):
        a = _csr(3, 3, [0, 2], [1, 0], [2.0, 5.0])
        y = a.matvec(np.array([1.0, 3.0, -1.0]))
        assert y.shape == (3,)
        assert np.array_equal(y, [6.0, 0.0, 5.0])

    def test_trailing_all_zero_row(self):
        """bincount without minlength would return a short vector here."""
        a = _csr(4, 4, [0, 1], [0, 1], [1.0, 1.0])
        y = a.matvec(np.ones(4))
        assert y.shape == (4,)
        assert np.array_equal(y, [1.0, 1.0, 0.0, 0.0])

    def test_trailing_all_zero_column_rmatvec(self):
        a = _csr(4, 4, [0, 1], [0, 1], [3.0, 4.0])
        y = a.rmatvec(np.ones(4))
        assert y.shape == (4,)
        assert np.array_equal(y, [3.0, 4.0, 0.0, 0.0])

    def test_scratch_path_same_shapes(self):
        a = _csr(4, 4, [0, 1], [0, 1], [1.0, 2.0])
        scratch = np.empty(a.nnz)
        x = np.arange(4.0)
        assert np.array_equal(a.matvec(x), a.matvec(x, scratch=scratch))
        assert np.array_equal(a.rmatvec(x), a.rmatvec(x, scratch=scratch))


class TestEmptyMatrix:
    def test_zero_rows(self):
        a = CSRMatrix(0, 5, np.zeros(1, dtype=np.int64), [], [])
        y = a.matvec(np.ones(5))
        assert y.shape == (0,)
        yt = a.rmatvec(np.empty(0))
        assert yt.shape == (5,)
        assert np.array_equal(yt, np.zeros(5))

    def test_zero_cols(self):
        a = CSRMatrix(5, 0, np.zeros(6, dtype=np.int64), [], [])
        y = a.matvec(np.empty(0))
        assert y.shape == (5,)
        assert np.array_equal(y, np.zeros(5))

    def test_zero_by_zero(self):
        a = CSRMatrix(0, 0, np.zeros(1, dtype=np.int64), [], [])
        assert a.matvec(np.empty(0)).shape == (0,)
        assert a.rmatvec(np.empty(0)).shape == (0,)

    def test_no_entries_scratch(self):
        a = CSRMatrix(3, 3, np.zeros(4, dtype=np.int64), [], [])
        y = a.matvec(np.ones(3), scratch=np.empty(0))
        assert np.array_equal(y, np.zeros(3))


class TestGatherEntries:
    def test_stored_and_absent_entries(self):
        a = _csr(3, 3, [0, 0, 2], [0, 2, 1], [1.0, 2.0, 3.0])
        got = a.gather_entries([0, 0, 2, 1], [0, 2, 1, 1])
        assert np.array_equal(got, [1.0, 2.0, 3.0, 0.0])

    def test_empty_query(self):
        a = _csr(2, 2, [0], [0], [1.0])
        assert a.gather_entries([], []).shape == (0,)

    def test_empty_matrix_query(self):
        a = CSRMatrix(2, 2, np.zeros(3, dtype=np.int64), [], [])
        assert np.array_equal(a.gather_entries([0, 1], [1, 0]), [0.0, 0.0])

    def test_out_of_range_rejected(self):
        a = _csr(2, 2, [0], [0], [1.0])
        with pytest.raises(ShapeError):
            a.gather_entries([2], [0])
        with pytest.raises(ShapeError):
            a.gather_entries([0], [-1])

    def test_shape_mismatch_rejected(self):
        a = _csr(2, 2, [0], [0], [1.0])
        with pytest.raises(ShapeError):
            a.gather_entries([0, 1], [0])


class TestScratchValidation:
    def test_wrong_length_rejected(self):
        a = _csr(2, 2, [0, 1], [0, 1], [1.0, 1.0])
        with pytest.raises(ShapeError):
            a.matvec(np.ones(2), scratch=np.empty(a.nnz + 1))
        with pytest.raises(ShapeError):
            a.rmatvec(np.ones(2), scratch=np.empty(a.nnz - 1))

    def test_scratch_is_actually_used(self):
        # The reference backend's gather writes its products into scratch;
        # the numpy backend's views never touch it.
        a = _csr(2, 2, [0, 1], [0, 1], [2.0, 3.0])
        scratch = np.zeros(a.nnz)
        a.matvec(np.array([1.0, 1.0]), scratch=scratch, backend="reference")
        assert np.array_equal(scratch, [2.0, 3.0])
