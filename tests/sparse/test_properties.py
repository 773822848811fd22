"""Property-based tests for the sparse substrate (hypothesis).

These pin down the core invariants every other subsystem builds on:
CSR/COO/dense round-trips, kernel agreement with dense algebra, and the
set-algebra laws of patterns.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sparse.construct import csr_from_dense
from repro.sparse.pattern import Pattern

# Small dense matrices with controllable sparsity.
dims = st.integers(min_value=1, max_value=12)


@st.composite
def sparse_dense(draw, square=False):
    n = draw(dims)
    m = n if square else draw(dims)
    values = draw(
        arrays(
            np.float64,
            (n, m),
            elements=st.floats(-10, 10, allow_nan=False, width=32).map(float),
        )
    )
    mask = draw(arrays(np.bool_, (n, m)))
    return values * mask


@st.composite
def patterns(draw, square=False):
    return Pattern.from_dense_mask(draw(sparse_dense(square=square)) != 0)


class TestCSRProperties:
    @given(sparse_dense())
    @settings(max_examples=60, deadline=None)
    def test_dense_roundtrip(self, d):
        assert np.array_equal(csr_from_dense(d).to_dense(), d)

    @given(sparse_dense())
    @settings(max_examples=60, deadline=None)
    def test_coo_roundtrip(self, d):
        a = csr_from_dense(d)
        assert np.array_equal(a.to_coo().to_csr().to_dense(), d)

    @given(sparse_dense(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matvec_matches_dense(self, d, seed):
        a = csr_from_dense(d)
        x = np.random.default_rng(seed).standard_normal(d.shape[1])
        assert np.allclose(a.matvec(x), d @ x, atol=1e-9)

    @given(sparse_dense(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rmatvec_is_transpose_matvec(self, d, seed):
        a = csr_from_dense(d)
        x = np.random.default_rng(seed).standard_normal(d.shape[0])
        assert np.allclose(a.rmatvec(x), a.T.matvec(x), atol=1e-9)

    @given(sparse_dense())
    @settings(max_examples=60, deadline=None)
    def test_transpose_involution(self, d):
        a = csr_from_dense(d)
        assert np.array_equal(a.T.T.to_dense(), d)

    @given(sparse_dense(square=True))
    @settings(max_examples=60, deadline=None)
    def test_tril_triu_reassemble(self, d):
        a = csr_from_dense(d)
        re = (
            a.tril(keep_diagonal=False).to_dense()
            + a.triu().to_dense()
        )
        assert np.array_equal(re, d)


class TestPatternProperties:
    @given(patterns())
    @settings(max_examples=60, deadline=None)
    def test_union_idempotent(self, p):
        assert p.union(p) == p

    @given(patterns())
    @settings(max_examples=60, deadline=None)
    def test_difference_with_self_empty(self, p):
        assert p.difference(p).nnz == 0

    @given(patterns())
    @settings(max_examples=60, deadline=None)
    def test_intersection_with_self(self, p):
        assert p.intersection(p) == p

    @given(patterns())
    @settings(max_examples=60, deadline=None)
    def test_transpose_preserves_nnz(self, p):
        assert p.T.nnz == p.nnz

    @given(patterns(square=True))
    @settings(max_examples=60, deadline=None)
    def test_tri_partition(self, p):
        assert p.tril().nnz + p.triu(keep_diagonal=False).nnz == p.nnz

    @given(patterns())
    @settings(max_examples=60, deadline=None)
    def test_subset_reflexive(self, p):
        assert p.is_subset_of(p)

    @given(patterns(square=True))
    @settings(max_examples=60, deadline=None)
    def test_union_difference_partition(self, p):
        q = Pattern.identity(p.n_rows)
        u = p.union(q)
        assert p.is_subset_of(u) and q.is_subset_of(u)
        assert u.difference(p).is_subset_of(q)
