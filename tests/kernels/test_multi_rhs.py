"""Blocked (multi-RHS) handles agree with dense algebra on every backend.

A block holds one vector per row: ``(k, n)``, C-contiguous.  The blocked
products exist only as bound handles — ``spmm_op`` and the fused
``fsai_apply_multi_op``, whose second half is the blocked transpose
product — and reuse the matrix zoo from ``test_backends`` so each format
(exact DIA, HYB with COO or ELL remainder, one-block and multi-bucket
ELL, and the adversarial small shapes) is driven through its blocked
twin at several block widths, including ``k=1`` (degenerate block) and a
width wide enough to matter for the serving workload (``k=32``).  Beyond
dense agreement, every row of a blocked product must be byte-identical
to the single-vector handle's product of that row — the contract that
makes a served request's answer independent of its batch.

The second half covers operand validation at the single-vector entry
points: float32 and integer vectors upcast with
:class:`KernelInputWarning`, non-contiguous vectors are compacted
silently, and unusable ``out`` buffers raise instead of being silently
copied around.
"""

import warnings

import numpy as np
import pytest

from repro.collection.generators.fd import poisson2d
from repro.kernels import KernelInputWarning, get_backend
from repro.sparse.construct import csr_from_dense
from repro.sparse.csr import _DIA_BLOCK_BYTES
from tests.kernels.test_backends import (
    BACKENDS,
    TRI_ZOO,
    ZOO,
    _assert_close,
)

WIDTHS = (1, 3, 32)


def _block(rng, n, k):
    return rng.standard_normal((k, n))


def _spmm(backend, a, x, scratch=None):
    out = np.full((len(x), a.n_rows), np.nan)
    assert backend.spmm_op(a, scratch)(x, out) is out
    return out


def _fsai_apply_multi(backend, g, r, width=None):
    """``G^T (G r[j])`` per row, through a handle bound for ``width`` rows."""
    tmp = np.empty((width or len(r), g.n_rows))
    out = np.full((len(r), g.n_cols), np.nan)
    assert backend.fsai_apply_multi_op(g, tmp, np.empty(g.nnz))(r, out) is out
    return out


def _fsai_apply(backend, g, r):
    out = np.full(g.n_cols, np.nan)
    return backend.fsai_apply_op(g, np.empty(g.n_rows), np.empty(g.nnz))(r, out)


# ----------------------------------------------------------------------
# Dense agreement over the zoo, all backends x all widths
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", ZOO, ids=[name for name, _ in ZOO])
@pytest.mark.parametrize("k", WIDTHS)
def test_spmm_matches_dense(backend_name, case, k):
    _, a = case
    backend = get_backend(backend_name)
    x = _block(np.random.default_rng(15), a.n_cols, k)
    _assert_close(_spmm(backend, a, x), x @ a.to_dense().T)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", ZOO, ids=[name for name, _ in ZOO])
@pytest.mark.parametrize("k", WIDTHS)
def test_spmm_t_matches_dense(backend_name, case, k):
    """The blocked transpose product, as the second half of the FSAI handle.

    Bound over any (also rectangular) ``A``, ``fsai_apply_multi_op``
    computes ``A^T (A x[j])``, so the zoo drives every transposed view
    through its blocked form.
    """
    _, a = case
    backend = get_backend(backend_name)
    x = _block(np.random.default_rng(16), a.n_cols, k)
    dense = a.to_dense()
    _assert_close(_fsai_apply_multi(backend, a, x), (x @ dense.T) @ dense)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", ZOO, ids=[name for name, _ in ZOO])
def test_spmm_workspace_variant_is_identical(backend_name, case):
    """scratch= must change allocation, never the numbers."""
    _, a = case
    backend = get_backend(backend_name)
    x = _block(np.random.default_rng(17), a.n_cols, 5)
    np.testing.assert_array_equal(
        _spmm(backend, a, x, np.empty(a.nnz)), _spmm(backend, a, x)
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_spmm_op_binds_the_same_kernel(backend_name):
    backend = get_backend(backend_name)
    k = 4
    for _, a in ZOO:
        x = _block(np.random.default_rng(18), a.n_cols, k)
        out = np.empty((k, a.n_rows))
        op = backend.spmm_op(a, np.empty(a.nnz))
        assert op(x, out) is out
        _assert_close(out, x @ a.to_dense().T)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", TRI_ZOO, ids=[name for name, _ in TRI_ZOO])
@pytest.mark.parametrize("k", WIDTHS)
def test_fsai_apply_multi_matches_dense(backend_name, case, k):
    _, g = case
    backend = get_backend(backend_name)
    gd = g.to_dense()
    r = _block(np.random.default_rng(19), g.n_rows, k)
    expected = (r @ gd.T) @ gd
    _assert_close(_fsai_apply_multi(backend, g, r), expected)
    # A handle bound for a wider block takes this one in a prefix of tmp.
    _assert_close(_fsai_apply_multi(backend, g, r, width=k + 2), expected)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_spmm_row_agrees_with_spmv(backend_name):
    """Row ``j`` of a bound-handle product is ``spmv`` of row ``j``."""
    backend = get_backend(backend_name)
    for _, a in ZOO:
        x = _block(np.random.default_rng(20), a.n_cols, 7)
        block = np.empty((7, a.n_rows))
        backend.spmm_op(a, np.empty(a.nnz))(x, block)
        for j in range(7):
            assert block[j].tobytes() == backend.spmv(a, x[j]).tobytes()


# ----------------------------------------------------------------------
# Per-row identity: each row of a blocked product, byte for byte
# ----------------------------------------------------------------------


def _assert_rows_identical(block, single, x):
    for j in range(len(x)):
        assert block[j].tobytes() == single(x[j].copy()).tobytes(), f"row {j}"


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", ZOO, ids=[name for name, _ in ZOO])
@pytest.mark.parametrize("k", WIDTHS)
def test_spmm_rows_are_spmv_bytes(backend_name, case, k):
    _, a = case
    backend = get_backend(backend_name)
    rng = np.random.default_rng(21)
    x = _block(rng, a.n_cols, k)
    spmv_op = backend.spmv_op(a, np.empty(a.nnz))
    _assert_rows_identical(
        _spmm(backend, a, x), lambda v: spmv_op(v, np.empty(a.n_rows)), x
    )
    # The transposed products, as the FSAI handles' second halves.
    _assert_rows_identical(
        _fsai_apply_multi(backend, a, x), lambda v: _fsai_apply(backend, a, v), x
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", TRI_ZOO, ids=[name for name, _ in TRI_ZOO])
@pytest.mark.parametrize("k", WIDTHS)
def test_fsai_apply_multi_rows_are_fsai_apply_bytes(backend_name, case, k):
    _, g = case
    backend = get_backend(backend_name)
    r = _block(np.random.default_rng(22), g.n_rows, k)
    _assert_rows_identical(
        _fsai_apply_multi(backend, g, r), lambda v: _fsai_apply(backend, g, v), r
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_rows_past_the_dia_block_budget(backend_name):
    """Stencils whose single row exceeds the einsum budget: row loop."""
    a = poisson2d(120)  # n = 14400: 5 (A) and 3 (G) diagonals
    g = a.tril()
    for view in (a.dia_view(), g.dia_view(), g.dia_t_view()):
        assert view.data.nbytes > _DIA_BLOCK_BYTES
        assert view.block_rows == 0
    backend = get_backend(backend_name)
    rng = np.random.default_rng(23)
    x = _block(rng, a.n_cols, 3)
    _assert_rows_identical(
        _spmm(backend, a, x), lambda v: backend.spmv(a, v), x
    )
    _assert_rows_identical(
        _fsai_apply_multi(backend, g, x), lambda v: _fsai_apply(backend, g, v), x
    )


# ----------------------------------------------------------------------
# Operand validation at the kernel boundary (satellite: dtype/contiguity)
# ----------------------------------------------------------------------

A_SMALL = csr_from_dense(
    np.array([[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 4.0]])
)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_float32_vector_upcast_with_warning(backend_name):
    backend = get_backend(backend_name)
    x64 = np.array([1.5, -2.0, 0.25])
    with pytest.warns(KernelInputWarning, match="float64"):
        got = backend.spmv(A_SMALL, x64.astype(np.float32))
    _assert_close(got, A_SMALL.to_dense() @ x64)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_integer_rhs_upcast_with_warning(backend_name):
    backend = get_backend(backend_name)
    x = np.array([1, 2, 3])
    with pytest.warns(KernelInputWarning):
        got = backend.spmv(A_SMALL, x)
    _assert_close(got, A_SMALL.to_dense() @ x.astype(np.float64))


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_fortran_ordered_block_accepted_silently(backend_name):
    """A row of a Fortran-ordered block is a strided vector: compacted."""
    backend = get_backend(backend_name)
    x = np.asfortranarray(np.random.default_rng(24).standard_normal((6, 3)))
    assert not x[2].flags.c_contiguous
    with warnings.catch_warnings():
        warnings.simplefilter("error", KernelInputWarning)
        got = backend.spmv(A_SMALL, x[2])
    _assert_close(got, A_SMALL.to_dense() @ x[2])


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_wrong_dtype_out_raises(backend_name):
    backend = get_backend(backend_name)
    x = np.ones(3)
    with pytest.raises(TypeError, match="float64"):
        backend.spmv(A_SMALL, x, np.empty(3, dtype=np.float32))
    with pytest.raises(TypeError, match="float64"):
        backend.spmv_t(A_SMALL, x, np.empty(3, dtype=np.float32))


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_wrong_shape_out_raises(backend_name):
    backend = get_backend(backend_name)
    with pytest.raises(ValueError, match="shape"):
        backend.spmv(A_SMALL, np.ones(3), np.empty(4))
    with pytest.raises(ValueError, match="shape"):
        backend.spmv_t(A_SMALL, np.ones(3), np.empty((3, 1)))


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_wrong_rank_operand_raises(backend_name):
    backend = get_backend(backend_name)
    with pytest.raises(ValueError, match="1-D"):
        backend.spmv(A_SMALL, np.ones((3, 2)))
    with pytest.raises(ValueError, match="1-D"):
        backend.spmv_t(A_SMALL, np.ones((2, 3)))
