"""Structure-only sparsity patterns.

A :class:`Pattern` is the CSR *skeleton* of a sparse matrix — row pointers and
column indices, no values.  The FSAI pipeline manipulates patterns long before
any numerical value exists (pattern powers, cache-friendly extension,
filtering), so patterns are a first-class type here rather than an implicit
property of a matrix.

Invariants (checked at construction):

* ``indptr`` has length ``n_rows + 1``, starts at 0, is non-decreasing and
  ends at ``len(indices)``;
* within each row, column indices are strictly increasing (sorted + unique);
* all column indices lie in ``[0, n_cols)``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro._typing import IndexArray, as_index_array
from repro.errors import PatternError, ShapeError

__all__ = ["Pattern"]


def _validate_structure(
    n_rows: int, n_cols: int, indptr: IndexArray, indices: IndexArray
) -> None:
    if n_rows < 0 or n_cols < 0:
        raise ShapeError(f"negative dimensions ({n_rows}, {n_cols})")
    if indptr.ndim != 1 or indices.ndim != 1:
        raise PatternError("indptr and indices must be 1-D arrays")
    if len(indptr) != n_rows + 1:
        raise PatternError(
            f"indptr has length {len(indptr)}, expected n_rows+1={n_rows + 1}"
        )
    if n_rows == 0:
        if len(indices) != 0 or (len(indptr) and indptr[0] != 0):
            raise PatternError("empty pattern must have empty indices")
        return
    if indptr[0] != 0:
        raise PatternError("indptr must start at 0")
    if indptr[-1] != len(indices):
        raise PatternError(
            f"indptr ends at {indptr[-1]} but indices has {len(indices)} entries"
        )
    if np.any(np.diff(indptr) < 0):
        raise PatternError("indptr must be non-decreasing")
    if len(indices):
        if indices.min() < 0 or indices.max() >= n_cols:
            raise PatternError(
                f"column indices out of range [0, {n_cols}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        # Sorted-unique within each row <=> diff(indices) > 0 everywhere except
        # at row boundaries.  Vectorised check: positions where diff <= 0 must
        # coincide exactly with row starts.
        diffs = np.diff(indices)
        row_starts = indptr[1:-1]  # index into `indices` where each new row begins
        bad = np.flatnonzero(diffs <= 0) + 1  # positions in `indices`
        if len(bad) and not np.isin(bad, row_starts).all():
            raise PatternError("column indices must be sorted and unique per row")


class Pattern:
    """An immutable CSR-style sparsity pattern.

    Parameters
    ----------
    n_rows, n_cols:
        Matrix dimensions.
    indptr:
        ``int64`` array of row pointers, length ``n_rows + 1``.
    indices:
        ``int64`` array of column indices, sorted and unique within each row.
    _validated:
        Internal fast path: skip structural validation when the caller
        guarantees the invariants already hold (used by internal kernels that
        construct patterns from already-canonical data).
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        indptr,
        indices,
        *,
        _validated: bool = False,
    ) -> None:
        indptr = as_index_array(indptr)
        indices = as_index_array(indices)
        if not _validated:
            _validate_structure(n_rows, n_cols, indptr, indices)
        object.__setattr__(self, "n_rows", int(n_rows))
        object.__setattr__(self, "n_cols", int(n_cols))
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Pattern is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, n_rows: int, n_cols: int, rows: Iterable[Iterable[int]]) -> "Pattern":
        """Build a pattern from per-row iterables of column indices.

        Indices are sorted and de-duplicated per row.
        """
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        chunks: List[np.ndarray] = []
        for i, row in enumerate(rows):
            cols = np.unique(as_index_array(list(row)))
            chunks.append(cols)
            indptr[i + 1] = indptr[i] + len(cols)
        if len(chunks) != n_rows:
            raise ShapeError(f"got {len(chunks)} rows, expected {n_rows}")
        indices = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        return cls(n_rows, n_cols, indptr, indices)

    @classmethod
    def from_coo(
        cls, n_rows: int, n_cols: int, row: IndexArray, col: IndexArray
    ) -> "Pattern":
        """Build a pattern from (possibly unsorted, duplicated) COO index pairs."""
        row = as_index_array(row)
        col = as_index_array(col)
        if row.shape != col.shape:
            raise ShapeError("row and col arrays must have equal length")
        if len(row):
            if row.min() < 0 or row.max() >= n_rows:
                raise PatternError("row index out of range")
            if col.min() < 0 or col.max() >= n_cols:
                raise PatternError("col index out of range")
            # Sorting the row-major key sorts by (row, col); equal
            # neighbours are duplicate pairs.
            key = np.sort(row * np.int64(n_cols) + col)
            keep = np.ones(len(key), dtype=bool)
            keep[1:] = key[1:] != key[:-1]
            key = key[keep]
            row = key // n_cols
            col = key - row * n_cols
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=n_rows), out=indptr[1:])
        return cls(n_rows, n_cols, indptr, col, _validated=True)

    @classmethod
    def from_dense_mask(cls, mask) -> "Pattern":
        """Build a pattern from a 2-D boolean mask (nonzero = present)."""
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise ShapeError("mask must be 2-D")
        row, col = np.nonzero(mask)
        return cls.from_coo(mask.shape[0], mask.shape[1], row, col)

    @classmethod
    def empty(cls, n_rows: int, n_cols: int) -> "Pattern":
        """Pattern with no entries."""
        return cls(
            n_rows, n_cols, np.zeros(n_rows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64), _validated=True,
        )

    @classmethod
    def identity(cls, n: int) -> "Pattern":
        """Diagonal pattern of order ``n``."""
        return cls(
            n, n, np.arange(n + 1, dtype=np.int64), np.arange(n, dtype=np.int64),
            _validated=True,
        )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(len(self.indices))

    def row(self, i: int) -> IndexArray:
        """Column indices of row ``i`` (a view, do not mutate)."""
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {i} out of range [0, {self.n_rows})")
        return self.indices[self.indptr[i]: self.indptr[i + 1]]

    def row_lengths(self) -> IndexArray:
        """Vector of per-row entry counts."""
        return np.diff(self.indptr)

    def __contains__(self, ij: Tuple[int, int]) -> bool:
        i, j = ij
        row = self.row(i)
        pos = np.searchsorted(row, j)
        return bool(pos < len(row) and row[pos] == j)

    def iter_rows(self) -> Iterator[IndexArray]:
        """Yield the column-index array of each row in order."""
        for i in range(self.n_rows):
            yield self.indices[self.indptr[i]: self.indptr[i + 1]]

    def coo(self) -> Tuple[IndexArray, IndexArray]:
        """Return ``(row, col)`` coordinate arrays in row-major order."""
        rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr)
        )
        return rows, self.indices.copy()

    def density(self) -> float:
        """Fraction of stored entries over the full dense size."""
        total = self.n_rows * self.n_cols
        return self.nnz / total if total else 0.0

    # ------------------------------------------------------------------
    # Structural transforms
    # ------------------------------------------------------------------
    def transpose(self) -> "Pattern":
        """Pattern of the transposed matrix (CSR of the transpose)."""
        rows, cols = self.coo()
        return Pattern.from_coo(self.n_cols, self.n_rows, cols, rows)

    @property
    def T(self) -> "Pattern":
        return self.transpose()

    def _tri(self, *, lower: bool, keep_diagonal: bool) -> "Pattern":
        rows, cols = self.coo()
        if lower:
            keep = cols <= rows if keep_diagonal else cols < rows
        else:
            keep = cols >= rows if keep_diagonal else cols > rows
        return Pattern.from_coo(self.n_rows, self.n_cols, rows[keep], cols[keep])

    def tril(self, *, keep_diagonal: bool = True) -> "Pattern":
        """Lower-triangular restriction of the pattern."""
        return self._tri(lower=True, keep_diagonal=keep_diagonal)

    def triu(self, *, keep_diagonal: bool = True) -> "Pattern":
        """Upper-triangular restriction of the pattern."""
        return self._tri(lower=False, keep_diagonal=keep_diagonal)

    def with_full_diagonal(self) -> "Pattern":
        """Return a pattern guaranteed to include every diagonal position.

        FSAI requires ``i in S_i`` for every row; generators occasionally
        produce patterns with structurally-zero diagonal entries, which this
        repairs.
        """
        n = min(self.n_rows, self.n_cols)
        rows, cols = self.coo()
        diag = np.arange(n, dtype=np.int64)
        return Pattern.from_coo(
            self.n_rows,
            self.n_cols,
            np.concatenate([rows, diag]),
            np.concatenate([cols, diag]),
        )

    def union(self, other: "Pattern") -> "Pattern":
        """Set union of two patterns with identical shapes."""
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch {self.shape} vs {other.shape}")
        r1, c1 = self.coo()
        r2, c2 = other.coo()
        return Pattern.from_coo(
            self.n_rows, self.n_cols,
            np.concatenate([r1, r2]), np.concatenate([c1, c2]),
        )

    def intersection(self, other: "Pattern") -> "Pattern":
        """Set intersection of two patterns with identical shapes."""
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch {self.shape} vs {other.shape}")
        key_self = self._keys()
        key_other = other._keys()
        common = np.intersect1d(key_self, key_other, assume_unique=True)
        rows = (common // self.n_cols).astype(np.int64)
        cols = (common % self.n_cols).astype(np.int64)
        return Pattern.from_coo(self.n_rows, self.n_cols, rows, cols)

    def difference(self, other: "Pattern") -> "Pattern":
        """Entries of ``self`` not present in ``other``."""
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch {self.shape} vs {other.shape}")
        keys = np.setdiff1d(self._keys(), other._keys(), assume_unique=True)
        rows = (keys // self.n_cols).astype(np.int64)
        cols = (keys % self.n_cols).astype(np.int64)
        return Pattern.from_coo(self.n_rows, self.n_cols, rows, cols)

    def is_subset_of(self, other: "Pattern") -> bool:
        """True iff every entry of ``self`` appears in ``other``."""
        if self.shape != other.shape:
            return False
        return bool(np.isin(self._keys(), other._keys(), assume_unique=True).all())

    def _keys(self) -> IndexArray:
        """Linearised (row-major) position keys — sorted, unique."""
        rows, cols = self.coo()
        return rows * self.n_cols + cols

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------
    def is_lower_triangular(self) -> bool:
        rows, cols = self.coo()
        return bool(np.all(cols <= rows))

    def is_upper_triangular(self) -> bool:
        rows, cols = self.coo()
        return bool(np.all(cols >= rows))

    def has_full_diagonal(self) -> bool:
        """True iff every row ``i < min(shape)`` contains column ``i``."""
        n = min(self.n_rows, self.n_cols)
        for i in range(n):
            if (i, i) not in self:
                return False
        return True

    def is_structurally_symmetric(self) -> bool:
        """True iff the pattern equals its transpose (requires square)."""
        return self.n_rows == self.n_cols and self == self.transpose()

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.indices.tobytes(), self.indptr.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Pattern(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density():.4g})"
        )

    def to_dense_mask(self) -> np.ndarray:
        """Dense boolean mask of the pattern (small matrices / debugging)."""
        mask = np.zeros(self.shape, dtype=bool)
        rows, cols = self.coo()
        mask[rows, cols] = True
        return mask
