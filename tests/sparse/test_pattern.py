"""Unit tests for repro.sparse.pattern."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import PatternError, ShapeError
from repro.sparse.pattern import Pattern


def tri_pattern():
    # 4x4: diag + one subdiagonal entry
    return Pattern.from_coo(
        4, 4,
        np.array([0, 1, 1, 2, 3, 3]),
        np.array([0, 0, 1, 2, 1, 3]),
    )


@st.composite
def _coo_inputs(draw):
    """Unsorted COO pairs with repeats, over narrow and very wide shapes."""
    n_rows = draw(st.integers(1, 16))
    n_cols = draw(st.one_of(st.just(1), st.integers(1, 16), st.integers(1, 2**31)))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
        max_size=60,
    ))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=20))
    return n_rows, n_cols, [r for r, _ in pairs], [c for _, c in pairs]


class TestConstruction:
    def test_from_rows(self):
        p = Pattern.from_rows(3, 4, [[0, 2], [1], []])
        assert p.nnz == 3
        assert list(p.row(0)) == [0, 2]
        assert list(p.row(1)) == [1]
        assert list(p.row(2)) == []

    def test_from_rows_sorts_and_dedups(self):
        p = Pattern.from_rows(1, 5, [[3, 1, 3, 0]])
        assert list(p.row(0)) == [0, 1, 3]

    def test_from_rows_wrong_count_raises(self):
        with pytest.raises(ShapeError):
            Pattern.from_rows(2, 2, [[0]])

    def test_from_coo_dedups(self):
        p = Pattern.from_coo(2, 2, np.array([0, 0, 1]), np.array([1, 1, 0]))
        assert p.nnz == 2

    def test_from_coo_out_of_range(self):
        with pytest.raises(PatternError):
            Pattern.from_coo(2, 2, np.array([2]), np.array([0]))
        with pytest.raises(PatternError):
            Pattern.from_coo(2, 2, np.array([0]), np.array([5]))

    @given(_coo_inputs())
    @example((3, 4, [], []))
    @example((5, 1, [4, 0, 4, 2, 0], [0, 0, 0, 0, 0]))
    @settings(max_examples=150, deadline=None)
    def test_from_coo_matches_lexsort_reference(self, case):
        """One row-major key sort gives exactly the ``np.lexsort`` + dedup
        result on unsorted, duplicated, empty and single-column input."""
        n_rows, n_cols, row, col = case
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        order = np.lexsort((col, row))
        r, c = row[order], col[order]
        keep = np.ones(len(r), dtype=bool)
        keep[1:] = (np.diff(r) != 0) | (np.diff(c) != 0)
        r, c = r[keep], c[keep]
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=n_rows), out=indptr[1:])
        p = Pattern.from_coo(n_rows, n_cols, row, col)
        assert p.indptr.dtype == p.indices.dtype == np.int64
        np.testing.assert_array_equal(p.indptr, indptr)
        np.testing.assert_array_equal(p.indices, c)
        assert p == Pattern(n_rows, n_cols, indptr, c)

    def test_from_dense_mask(self):
        mask = np.array([[True, False], [True, True]])
        p = Pattern.from_dense_mask(mask)
        assert np.array_equal(p.to_dense_mask(), mask)

    def test_empty(self):
        p = Pattern.empty(3, 5)
        assert p.nnz == 0 and p.shape == (3, 5)

    def test_identity(self):
        p = Pattern.identity(4)
        assert p.nnz == 4 and p.has_full_diagonal()

    def test_invalid_indptr_rejected(self):
        with pytest.raises(PatternError):
            Pattern(2, 2, np.array([0, 1]), np.array([0]))

    def test_unsorted_row_rejected(self):
        with pytest.raises(PatternError):
            Pattern(1, 3, np.array([0, 2]), np.array([2, 0]))

    def test_duplicate_in_row_rejected(self):
        with pytest.raises(PatternError):
            Pattern(1, 3, np.array([0, 2]), np.array([1, 1]))

    def test_immutable(self):
        p = Pattern.identity(2)
        with pytest.raises(AttributeError):
            p.n_rows = 5


class TestQueries:
    def test_shape_nnz_density(self):
        p = tri_pattern()
        assert p.shape == (4, 4)
        assert p.nnz == 6
        assert p.density() == pytest.approx(6 / 16)

    def test_contains(self):
        p = tri_pattern()
        assert (1, 0) in p
        assert (0, 1) not in p

    def test_row_out_of_range(self):
        with pytest.raises(IndexError):
            tri_pattern().row(4)

    def test_row_lengths(self):
        assert list(tri_pattern().row_lengths()) == [1, 2, 1, 2]

    def test_coo_roundtrip(self):
        p = tri_pattern()
        r, c = p.coo()
        assert Pattern.from_coo(4, 4, r, c) == p

    def test_iter_rows(self):
        rows = list(tri_pattern().iter_rows())
        assert len(rows) == 4
        assert list(rows[1]) == [0, 1]


class TestTransforms:
    def test_transpose_involution(self):
        p = tri_pattern()
        assert p.transpose().transpose() == p

    def test_transpose_mask(self):
        p = tri_pattern()
        assert np.array_equal(p.T.to_dense_mask(), p.to_dense_mask().T)

    def test_tril_triu_partition(self):
        p = tri_pattern()
        lower = p.tril(keep_diagonal=False)
        upper = p.triu()
        assert lower.nnz + upper.nnz == p.nnz

    def test_tril_is_lower(self):
        assert tri_pattern().tril().is_lower_triangular()

    def test_with_full_diagonal(self):
        p = Pattern.from_coo(3, 3, np.array([1]), np.array([0]))
        q = p.with_full_diagonal()
        assert q.has_full_diagonal()
        assert (1, 0) in q

    def test_union_commutative(self):
        p = tri_pattern()
        q = Pattern.identity(4)
        assert p.union(q) == q.union(p)

    def test_union_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tri_pattern().union(Pattern.identity(3))

    def test_intersection(self):
        p = tri_pattern()
        q = Pattern.identity(4)
        inter = p.intersection(q)
        assert inter.nnz == 4  # the diagonal entries present in p

    def test_difference(self):
        p = tri_pattern()
        d = p.difference(Pattern.identity(4))
        assert d.nnz == p.nnz - 4
        assert all(i != j for i, j in zip(*d.coo()))

    def test_subset(self):
        p = tri_pattern()
        assert Pattern.identity(4).is_subset_of(p)
        assert not p.is_subset_of(Pattern.identity(4))

    def test_subset_different_shape_false(self):
        assert not Pattern.identity(3).is_subset_of(Pattern.identity(4))


class TestPredicates:
    def test_lower_upper(self):
        p = tri_pattern()
        assert p.is_lower_triangular()
        assert not p.is_upper_triangular()
        assert p.T.is_upper_triangular()

    def test_structural_symmetry(self):
        sym = Pattern.from_dense_mask(np.array([[1, 1], [1, 1]], dtype=bool))
        assert sym.is_structurally_symmetric()
        assert not tri_pattern().is_structurally_symmetric()

    def test_eq_and_hash(self):
        p, q = tri_pattern(), tri_pattern()
        assert p == q and hash(p) == hash(q)
        assert p != Pattern.identity(4)

    def test_repr(self):
        assert "nnz=6" in repr(tri_pattern())
