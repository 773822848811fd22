"""Every available backend agrees with dense algebra to 1e-13 (ISSUE 4).

The matrix zoo below is chosen to drive each backend through *every* code
path it owns: the adversarial small shapes (empty rows/columns, explicit
zeros, single-row/column, fully empty) all sit under the 256-nnz DIA
gate and take the numpy backend's ELL view at its smallest, while the
large structured cases are built to trip, respectively, the exact DIA
view, the HYB split with a COO remainder, the HYB split with an ELL
remainder, the one-block ELL view, a multi-bucket ELL view over skewed
rows with empty ones among them, and a multi-bucket view shaped like an
extended FSAI factor (mostly 5-entry rows, a few long ones, empty
columns).  A structure probe asserts each case really takes the path it
was designed for, so a gate-constant tweak cannot silently turn the zoo
into copies of the same test.  Wherever the numpy backend runs an ELL
view, its products are held to more than 1e-13: they must be the
reference backend's bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.address import ArrayPlacement
from repro.collection.generators.fd import poisson2d, poisson3d
from repro.fsai.extended import setup_fsai, setup_fsaie_full
from repro.fsai.frobenius import compute_g
from repro.fsai.patterns import fsai_initial_pattern
from repro.fsai.precond import FSAIApplication
from repro.kernels import available_backends, get_backend, use_backend
from repro.solvers.cg import pcg
from repro.sparse.construct import csr_from_dense
from repro.sparse.csr import CSRMatrix
from repro.sparse.ordering import permute_symmetric, reverse_cuthill_mckee

BACKENDS = available_backends()


def _assert_close(actual, expected):
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=1e-13, atol=1e-13 * scale)


# ----------------------------------------------------------------------
# Matrix zoo
# ----------------------------------------------------------------------


def _with_explicit_zeros():
    """4x4 with stored 0.0 entries (FSAI patterns routinely carry them)."""
    indptr = [0, 3, 3, 5, 6]
    indices = [0, 1, 3, 1, 2, 0]
    data = [2.0, 0.0, -1.0, 0.0, 3.5, 1.25]
    return CSRMatrix(4, 4, indptr, indices, data)


def _rectangular_with_gaps(rng):
    """9x13 random with forced empty rows *and* empty columns."""
    d = rng.standard_normal((9, 13)) * (rng.random((9, 13)) < 0.3)
    d[2, :] = 0.0
    d[7, :] = 0.0
    d[:, 0] = 0.0
    d[:, 11] = 0.0
    return csr_from_dense(d)


def _pure_stencil(n=400):
    """Pentadiagonal: every diagonal dense -> exact DIA view."""
    d = np.zeros((n, n))
    i = np.arange(n)
    for off, val in ((-2, 0.5), (-1, -1.0), (0, 4.0), (1, -1.0), (2, 0.5)):
        sel = (i + off >= 0) & (i + off < n)
        d[i[sel], i[sel] + off] = val + 0.01 * i[sel]
    return csr_from_dense(d)


def _hyb_coo_remainder(n=400, rng=None):
    """Tridiagonal band plus ~40 scattered couplings.

    The scattered entries are too few for an ELL remainder (the 256-nnz
    floor), so the HYB split must fall back to the COO scatter.
    """
    rng = np.random.default_rng(3) if rng is None else rng
    d = np.zeros((n, n))
    i = np.arange(n)
    for off, val in ((-1, -1.0), (0, 4.0), (1, -1.0)):
        sel = (i + off >= 0) & (i + off < n)
        d[i[sel], i[sel] + off] = val
    rows = rng.integers(0, n, size=40)
    cols = (rows + rng.integers(5, n - 5, size=40)) % n
    d[rows, cols] = rng.standard_normal(40)
    return csr_from_dense(d)


def _hyb_ell_remainder(n=400):
    """Tridiagonal band plus one scattered coupling per row.

    ~400 off-band entries spread over ~400 distinct diagonals, one per
    row: enough for the remainder's ELL form (width 1, no padding).
    """
    d = np.zeros((n, n))
    i = np.arange(n)
    for off, val in ((-1, -1.0), (0, 4.0), (1, -1.0)):
        sel = (i + off >= 0) & (i + off < n)
        d[i[sel], i[sel] + off] = val
    far = (i * 13 + 7) % n
    keep = np.abs(far - i) > 1  # don't collide with the band
    d[i[keep], far[keep]] = 0.25 + 0.001 * i[keep]
    return csr_from_dense(d)


def _ell_uniform_rows(rng, n=100, per_row=8):
    """Uniform row lengths, unstructured columns -> row-padded ELL view."""
    d = np.zeros((n, n))
    for i in range(n):
        cols = rng.choice(n, size=per_row, replace=False)
        d[i, cols] = rng.standard_normal(per_row)
    return csr_from_dense(d)


def _skewed_rows(rng, n=300):
    """One huge row, many short ones, some empty -> multi-bucket ELL.

    Its zoo id, ``reduceat_skewed``, names the segment-sum kernel this
    matrix was first built for; the id is kept so the parametrized test
    ids stay stable.
    """
    d = np.zeros((n, n))
    d[0, rng.choice(n, size=100, replace=False)] = rng.standard_normal(100)
    for i in range(1, n):
        if i % 5 == 0:
            continue  # empty row
        d[i, rng.choice(n, size=2, replace=False)] = rng.standard_normal(2)
    return csr_from_dense(d)


def _factor_like_rows(rng, n=400):
    """Lower triangular, mostly 5-entry rows, a few dozen of 7-16 entries.

    The shape of an extended FSAI factor after a bandwidth-reducing
    renumbering: one bulk row length with a thin tail of long rows, so
    neither ``A`` nor ``A.T`` pads into one block.  Every 37th column is
    left empty (its diagonal entry too), so the transposed view carries
    empty groups.
    """
    d = np.zeros((n, n))
    usable = np.arange(n) % 37 != 5
    long_rows = set(rng.choice(np.arange(40, n), size=30, replace=False))
    for i in range(n):
        window = np.flatnonzero(usable[max(0, i - 40):i + 1]) + max(0, i - 40)
        want = int(rng.integers(7, 17)) if i in long_rows else 5
        cols = rng.choice(window, size=min(want, len(window)), replace=False)
        d[i, cols] = rng.standard_normal(len(cols))
    return csr_from_dense(d)


def _zoo():
    rng = np.random.default_rng(11)
    return [
        ("one_by_one", csr_from_dense(np.array([[3.0]]))),
        ("single_row", csr_from_dense(rng.standard_normal((1, 7)))),
        ("single_col", csr_from_dense(rng.standard_normal((7, 1)))),
        ("all_zero", csr_from_dense(np.zeros((5, 5)))),
        ("explicit_zeros", _with_explicit_zeros()),
        ("rect_gaps", _rectangular_with_gaps(rng)),
        ("dia_stencil", _pure_stencil()),
        ("hyb_coo", _hyb_coo_remainder()),
        ("hyb_ell", _hyb_ell_remainder()),
        ("ell_uniform", _ell_uniform_rows(rng)),
        ("reduceat_skewed", _skewed_rows(rng)),
        ("factor_like", _factor_like_rows(rng)),
    ]


ZOO = _zoo()


def test_zoo_exercises_every_format():
    """Structure probe: each case takes the path it was designed for."""
    by_name = dict(ZOO)
    dia = by_name["dia_stencil"].dia_view()
    assert dia is not None and dia.rem_out is None and dia.rem_ell is None
    hyb_coo = by_name["hyb_coo"].dia_view()
    assert hyb_coo is not None and hyb_coo.rem_out is not None
    hyb_ell = by_name["hyb_ell"].dia_view()
    assert hyb_ell is not None and hyb_ell.rem_ell is not None
    ell = by_name["ell_uniform"]
    assert ell.dia_view() is None
    (block,) = ell.ell_view().buckets
    assert block.rows is None  # one (width, n) block, written in place
    width = int(np.diff(ell.indptr).max())
    ids = np.zeros((width, ell.n_rows), dtype=np.int64)
    data = np.zeros((width, ell.n_rows))
    for i in range(ell.n_rows):
        cols, vals = ell.row(i)
        ids[:len(cols), i] = cols
        data[:len(vals), i] = vals
    assert np.array_equal(block.gather_ids, ids)
    assert np.array_equal(block.data, data)
    skewed = by_name["reduceat_skewed"]
    assert skewed.dia_view() is None
    assert np.any(np.diff(skewed.indptr) == 0)
    _assert_buckets_cover(skewed.ell_view(), np.diff(skewed.indptr))
    factor = by_name["factor_like"]
    assert factor.dia_view() is None and factor.nnz >= 256
    assert np.any(np.bincount(factor.indices, minlength=factor.n_cols) == 0)
    _assert_buckets_cover(factor.ell_view(), np.diff(factor.indptr))
    _assert_buckets_cover(
        factor.ell_t_view(), np.bincount(factor.indices, minlength=factor.n_cols)
    )


def _assert_buckets_cover(view, lengths):
    """Several buckets, every row in exactly one, each within the pad bound.

    A bucket holding a single row stores it twice (see ``EllBucket``), so
    coverage counts each bucket's distinct rows.
    """
    assert len(view.buckets) > 1
    rows = np.concatenate([np.unique(b.rows) for b in view.buckets])
    assert np.array_equal(np.sort(rows), np.arange(len(lengths)))
    for b in view.buckets:
        assert np.array_equal(np.count_nonzero(b.data, axis=0), lengths[b.rows])
        assert b.data.size <= 1.5 * lengths[b.rows].sum()


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", ZOO, ids=[name for name, _ in ZOO])
def test_spmv_matches_dense(backend_name, case):
    _, a = case
    backend = get_backend(backend_name)
    dense = a.to_dense()
    x = np.random.default_rng(5).standard_normal(a.n_cols)
    _assert_close(backend.spmv(a, x), dense @ x)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", ZOO, ids=[name for name, _ in ZOO])
def test_spmv_t_matches_dense(backend_name, case):
    _, a = case
    backend = get_backend(backend_name)
    dense = a.to_dense()
    x = np.random.default_rng(6).standard_normal(a.n_rows)
    _assert_close(backend.spmv_t(a, x), dense.T @ x)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", ZOO, ids=[name for name, _ in ZOO])
def test_workspace_variant_is_identical(backend_name, case):
    """out=/scratch= must change allocation, never the numbers."""
    _, a = case
    backend = get_backend(backend_name)
    x = np.random.default_rng(7).standard_normal(a.n_cols)
    out = np.full(a.n_rows, np.nan)
    scratch = np.empty(a.nnz)
    plain = backend.spmv(a, x)
    buffered = backend.spmv(a, x, out=out, scratch=scratch)
    assert buffered is out
    np.testing.assert_array_equal(buffered, plain)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_spmv_op_binds_the_same_kernel(backend_name):
    backend = get_backend(backend_name)
    for _, a in ZOO:
        x = np.random.default_rng(8).standard_normal(a.n_cols)
        out = np.empty(a.n_rows)
        op = backend.spmv_op(a, np.empty(a.nnz))
        assert op(x, out) is out
        _assert_close(out, a.to_dense() @ x)


# ----------------------------------------------------------------------
# Fused FSAI application
# ----------------------------------------------------------------------


def _lower_triangular_zoo():
    return [
        (name, a.tril())
        for name, a in ZOO
        if a.n_rows == a.n_cols and a.nnz > 0
    ]


TRI_ZOO = _lower_triangular_zoo()


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", TRI_ZOO, ids=[name for name, _ in TRI_ZOO])
def test_fsai_apply_matches_dense(backend_name, case):
    _, g = case
    backend = get_backend(backend_name)
    gd = g.to_dense()
    r = np.random.default_rng(9).standard_normal(g.n_rows)
    expected = gd.T @ (gd @ r)
    # The bound handle the solver loop uses, with and without scratch.
    for scratch in (None, np.empty(g.nnz)):
        op = backend.fsai_apply_op(g, np.empty(g.n_rows), scratch)
        out = np.empty(g.n_rows)
        assert op(r, out) is out
        _assert_close(out, expected)


# ----------------------------------------------------------------------
# ELL products are the reference backend's bytes
# ----------------------------------------------------------------------

#: ``(product, case)`` pairs whose numpy view is ELL in that direction.
ELL_PRODUCTS = [
    (product, name, a)
    for product, dia in (("spmv", "dia_view"), ("spmv_t", "dia_t_view"))
    for name, a in ZOO
    if getattr(a, dia)() is None
]
ELL_TRI_ZOO = [
    (name, g) for name, g in TRI_ZOO
    if g.dia_view() is None and g.dia_t_view() is None
]


def test_zoo_has_lone_row_buckets():
    """The byte tests below reach every kind of single-row bucket."""
    by_name = dict(ZOO)

    def lone(view):
        return any(
            (b.data.shape[1] if b.rows is None else len(np.unique(b.rows))) == 1
            for b in view.buckets
        )

    assert lone(by_name["single_row"].ell_view())  # a one-row matrix
    assert lone(by_name["single_col"].ell_t_view())  # its transpose
    assert lone(by_name["reduceat_skewed"].ell_view())  # the 100-entry row


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize(
    "product, name, a", ELL_PRODUCTS,
    ids=[f"{product}-{name}" for product, name, _ in ELL_PRODUCTS],
)
def test_ell_products_are_the_oracles_bytes(backend_name, product, name, a):
    """Slot-major ELL sums each row in stored order from 0.0, as bincount does."""
    n_in = a.n_cols if product == "spmv" else a.n_rows
    x = np.random.default_rng(12).standard_normal(n_in)
    got = getattr(get_backend(backend_name), product)(a, x)
    expected = getattr(get_backend("reference"), product)(a, x)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("case", ELL_TRI_ZOO, ids=[name for name, _ in ELL_TRI_ZOO])
def test_ell_fsai_apply_is_the_oracles_bytes(backend_name, case):
    _, g = case
    r = np.random.default_rng(13).standard_normal(g.n_rows)
    out, expected = np.empty(g.n_rows), np.empty(g.n_rows)
    get_backend(backend_name).fsai_apply_op(g, np.empty(g.n_rows))(r, out)
    get_backend("reference").fsai_apply_op(g, np.empty(g.n_rows))(r, expected)
    assert out.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# Hypothesis: random small CSR, all backends vs dense
# ----------------------------------------------------------------------

dims = st.integers(min_value=1, max_value=12)


@given(dims, dims, st.floats(0.0, 1.0), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_random_csr_agrees_across_backends(n_rows, n_cols, density, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < density)
    a = csr_from_dense(d)
    x = rng.standard_normal(n_cols)
    xt = rng.standard_normal(n_rows)
    for name in BACKENDS:
        backend = get_backend(name)
        _assert_close(backend.spmv(a, x), d @ x)
        _assert_close(backend.spmv_t(a, xt), d.T @ xt)
    # Every matrix here is under the 256-nnz DIA gate, so numpy runs ELL.
    numpy_backend, ref = get_backend("numpy"), get_backend("reference")
    assert numpy_backend.spmv(a, x).tobytes() == ref.spmv(a, x).tobytes()
    assert numpy_backend.spmv_t(a, xt).tobytes() == ref.spmv_t(a, xt).tobytes()


# ----------------------------------------------------------------------
# PCG: identical iterates across backends
# ----------------------------------------------------------------------


def test_pcg_iterates_match_across_backends():
    """The solver must converge identically whatever backend runs it."""
    a = poisson2d(16)
    b = np.random.default_rng(21).standard_normal(a.n_rows)
    g = compute_g(a, fsai_initial_pattern(a))
    results = {}
    for name in BACKENDS:
        with use_backend(name):
            # Fresh application per backend: the apply handle is pinned
            # at first use, so reuse would leak the previous backend in.
            results[name] = pcg(a, b, preconditioner=FSAIApplication(g))
    baseline = results[BACKENDS[0]]
    assert baseline.converged
    for name, res in results.items():
        assert res.converged, name
        assert res.iterations == baseline.iterations, name
        np.testing.assert_allclose(res.x, baseline.x, rtol=1e-10, atol=1e-12)


def test_pcg_unpreconditioned_matches_across_backends():
    a = poisson2d(12)
    b = np.random.default_rng(22).standard_normal(a.n_rows)
    results = {}
    for name in BACKENDS:
        with use_backend(name):
            results[name] = pcg(a, b, rtol=1e-10)
    baseline = results[BACKENDS[0]]
    assert baseline.converged
    for name, res in results.items():
        assert res.iterations == baseline.iterations, name
        np.testing.assert_allclose(res.x, baseline.x, rtol=1e-10, atol=1e-12)


def test_pcg_on_ell_views_is_the_oracles_bits():
    """numpy and reference PCG agree bit for bit when every view is ELL."""
    a = poisson3d(8)
    a = permute_symmetric(a, reverse_cuthill_mckee(a))
    b = np.random.default_rng(23).standard_normal(a.n_rows)
    factors = [
        setup_fsai(a).g,
        setup_fsaie_full(a, ArrayPlacement.aligned(64)).g,
    ]
    assert a.dia_view() is None
    for g in factors:
        assert g.dia_view() is None and g.dia_t_view() is None
    assert len(factors[1].ell_view().buckets) > 1
    for g in factors:
        results = {}
        for name in ("numpy", "reference"):
            with use_backend(name):
                results[name] = pcg(a, b, preconditioner=FSAIApplication(g))
        fast, oracle = results["numpy"], results["reference"]
        assert fast.converged
        assert fast.iterations == oracle.iterations
        assert fast.x.tobytes() == oracle.x.tobytes()
        assert fast.history.norms == oracle.history.norms
        assert fast.true_relative_residual == oracle.true_relative_residual

