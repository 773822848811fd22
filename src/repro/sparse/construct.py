"""Construction helpers for CSR matrices."""

from __future__ import annotations

import numpy as np

from repro._typing import as_index_array, as_value_array
from repro.errors import MatrixFormatError, ShapeError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

__all__ = [
    "csr_from_dense",
    "csr_identity",
    "csr_from_coo_arrays",
    "csr_diagonal_matrix",
]


def csr_from_dense(dense, *, drop_tolerance: float = 0.0) -> CSRMatrix:
    """Build a CSR matrix from a dense 2-D array.

    Entries with ``|a_ij| <= drop_tolerance`` are treated as structural zeros.
    A NaN or infinite entry raises :class:`~repro.errors.MatrixFormatError`
    naming the first one in row-major order (the drop test would silently
    discard a NaN).
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise ShapeError("dense input must be 2-D")
    bad = np.argwhere(~np.isfinite(dense))
    if len(bad):
        i, j = bad[0]
        raise MatrixFormatError(f"non-finite value {dense[i, j]} at ({i}, {j})")
    mask = np.abs(dense) > drop_tolerance
    rows, cols = np.nonzero(mask)
    return csr_from_coo_arrays(
        dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols]
    )


def csr_identity(n: int, *, scale: float = 1.0) -> CSRMatrix:
    """``scale * I`` of order ``n`` in CSR form."""
    idx = np.arange(n, dtype=np.int64)
    return CSRMatrix(
        n, n, np.arange(n + 1, dtype=np.int64), idx, np.full(n, float(scale)),
        _validated=True,
    )


def csr_diagonal_matrix(diag) -> CSRMatrix:
    """CSR matrix with the given main diagonal."""
    diag = as_value_array(diag)
    n = len(diag)
    return CSRMatrix(
        n, n, np.arange(n + 1, dtype=np.int64),
        np.arange(n, dtype=np.int64), diag, _validated=True,
    )


def csr_from_coo_arrays(n_rows: int, n_cols: int, row, col, data) -> CSRMatrix:
    """Assemble CSR from triplet arrays (duplicates summed)."""
    return COOMatrix(
        n_rows, n_cols, as_index_array(row), as_index_array(col),
        as_value_array(data),
    ).to_csr()
