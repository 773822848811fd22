"""Sparse-matrix substrate.

This subpackage is a self-contained sparse linear-algebra layer implemented
from scratch on top of NumPy.  It provides the coordinate and compressed
row containers (:class:`COOMatrix`, :class:`CSRMatrix`), a structure-only
:class:`Pattern` type used heavily by the FSAI pattern machinery,
vectorised SpMV kernels, symbolic operations (transpose, triangular
parts, union, pattern powers), thresholding, and Matrix Market I/O.

Design notes
------------
* All index arrays are ``int64`` and all value arrays ``float64``
  (see :mod:`repro._typing`); cache-line arithmetic elsewhere in the library
  assumes 8-byte elements.
* CSR rows always keep their column indices **sorted and unique**; this is
  validated on construction (cheaply, vectorised) and preserved by every
  operation in this package.  The cache-friendly fill-in algorithm relies on
  this invariant.
* Kernels avoid per-element Python work: SpMV is ``data * x[indices]``
  followed by a ``bincount`` segmented reduction, which is the fastest
  pure-NumPy formulation for matrices with many short rows (the common case
  for FE/FD discretisations).
"""

from repro.sparse.pattern import Pattern
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.construct import (
    csr_from_dense,
    csr_identity,
    csr_from_coo_arrays,
    csr_diagonal_matrix,
)
from repro.sparse.symbolic import (
    pattern_power,
    threshold_pattern,
    symmetrize_pattern,
)
from repro.sparse.io_mm import read_matrix_market, write_matrix_market

__all__ = [
    "Pattern",
    "COOMatrix",
    "CSRMatrix",
    "csr_from_dense",
    "csr_identity",
    "csr_from_coo_arrays",
    "csr_diagonal_matrix",
    "pattern_power",
    "threshold_pattern",
    "symmetrize_pattern",
    "read_matrix_market",
    "write_matrix_market",
]
