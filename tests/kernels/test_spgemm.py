"""The ``spgemm`` kernel op: CSR×CSR products with optional output caps.

Contract under test (see ``src/repro/kernels/spgemm.py``):

* every backend agrees with the dense product to 1e-13;
* every backend whose numeric phase honours the plan's Gustavson
  accumulation order (numpy) gives **byte-identical** data; the
  reference backend's dense oracle is exempt and held to the tolerance
  only;
* a capped product's output structure is the cap *itself* — products
  landing outside are dropped, cap entries no product reaches hold an
  explicit ``0.0``;
* plans are reusable: a bound ``spgemm_op`` handle repeats the numeric
  phase bit-for-bit, and ``pattern_multiply`` (now delegating to the
  planner) matches the brute-force boolean product.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection.generators.fd import poisson2d
from repro.errors import ShapeError
from repro.kernels import available_backends, get_backend
from repro.kernels.spgemm import plan_spgemm, spgemm_numeric, spgemm_pattern
from repro.sparse.construct import csr_from_dense
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import Pattern
from repro.sparse.symbolic import pattern_multiply

from tests.conftest import random_spd_dense

BACKENDS = available_backends()

#: Backends whose numeric phase must be byte-identical (the dense-oracle
#: reference backend only promises 1e-13 agreement).
EXACT_BACKENDS = tuple(b for b in BACKENDS if b != "reference")


def _random_csr(n_rows, n_cols, density, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) >= density] = 0.0
    return csr_from_dense(dense)


def _dense_product(a, b):
    return a.to_dense() @ b.to_dense()


CASES = [
    ("square", _random_csr(24, 24, 0.2, 0), _random_csr(24, 24, 0.2, 1)),
    ("rect", _random_csr(13, 29, 0.3, 2), _random_csr(29, 7, 0.3, 3)),
    ("sparse", _random_csr(40, 40, 0.03, 4), _random_csr(40, 40, 0.03, 5)),
    ("poisson", poisson2d(8), poisson2d(8)),
]


# ----------------------------------------------------------------------
# Uncapped products
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name,a,b", CASES, ids=[c[0] for c in CASES])
def test_uncapped_matches_dense(backend, name, a, b):
    out = get_backend(backend).spgemm(a, b)
    rows, cols = out.pattern.coo()
    expected = _dense_product(a, b)
    np.testing.assert_allclose(out.data, expected[rows, cols], atol=1e-13)
    # Everything the pattern omits really is zero in the dense product.
    mask = out.pattern.to_dense_mask()
    assert np.all(expected[~mask] == 0.0)


@pytest.mark.parametrize("name,a,b", CASES, ids=[c[0] for c in CASES])
def test_exact_backends_byte_identical(name, a, b):
    blobs = {
        backend: get_backend(backend).spgemm(a, b).data.tobytes()
        for backend in EXACT_BACKENDS
    }
    reference = blobs[EXACT_BACKENDS[0]]
    assert all(blob == reference for blob in blobs.values())


def test_pattern_multiply_matches_boolean_product():
    a, b = CASES[2][1], CASES[2][2]
    out = pattern_multiply(a.pattern, b.pattern)
    expected = (a.pattern.to_dense_mask() @ b.pattern.to_dense_mask()) > 0
    assert np.array_equal(out.to_dense_mask(), expected)
    assert out == spgemm_pattern(a.pattern, b.pattern)


# ----------------------------------------------------------------------
# Capped products
# ----------------------------------------------------------------------


def _lower_cap(n):
    return Pattern.from_dense_mask(np.tril(np.ones((n, n), dtype=bool)))


@pytest.mark.parametrize("backend", BACKENDS)
def test_capped_output_is_cap_exactly(backend):
    a, b = CASES[0][1], CASES[0][2]
    cap = _lower_cap(a.n_rows)
    out = get_backend(backend).spgemm(a, b, cap=cap)
    # The structure is the cap verbatim — not the subset products reach.
    assert out.pattern == cap
    rows, cols = cap.coo()
    np.testing.assert_allclose(
        out.data, _dense_product(a, b)[rows, cols], atol=1e-13
    )


def test_cap_entries_without_products_are_explicit_zeros():
    # A = e_00 only, B = e_00 only -> product has a single entry (0, 0);
    # a full lower-triangular cap must keep every other slot as 0.0.
    n = 5
    dense = np.zeros((n, n))
    dense[0, 0] = 3.0
    a = csr_from_dense(dense)
    cap = _lower_cap(n)
    out = get_backend("numpy").spgemm(a, a, cap=cap)
    assert out.pattern == cap
    assert out.data[0] == 9.0
    assert np.all(out.data[1:] == 0.0)


def test_cap_drops_outside_products():
    a, b = CASES[1][1], CASES[1][2]
    # Cap = a strict subset of the true product pattern.
    full = spgemm_pattern(a.pattern, b.pattern)
    rows, cols = full.coo()
    keep = np.arange(full.nnz) % 2 == 0
    cap = Pattern.from_coo(full.n_rows, full.n_cols, rows[keep], cols[keep])
    out = get_backend("numpy").spgemm(a, b, cap=cap)
    assert out.pattern == cap
    crows, ccols = cap.coo()
    np.testing.assert_allclose(
        out.data, _dense_product(a, b)[crows, ccols], atol=1e-13
    )


# ----------------------------------------------------------------------
# Plan reuse and bound handles
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_bound_handle_reuses_plan_bit_for_bit(backend):
    a, b = CASES[3][1], CASES[3][2]
    kb = get_backend(backend)
    plan = plan_spgemm(a.pattern, b.pattern)
    op = kb.spgemm_op(plan=plan)
    assert op.plan is plan
    first = kb.spgemm(a, b).data
    assert op(a.data, b.data).tobytes() == first.tobytes()
    # Fresh values through the same plan: full numeric correctness.
    rng = np.random.default_rng(7)
    new_data = rng.standard_normal(a.nnz)
    a2 = CSRMatrix.from_pattern(a.pattern, new_data)
    rows, cols = plan.out.coo()
    np.testing.assert_allclose(
        op(new_data, b.data), _dense_product(a2, b)[rows, cols], atol=1e-13
    )


def test_spgemm_op_from_patterns():
    a, b = CASES[0][1], CASES[0][2]
    kb = get_backend("numpy")
    op = kb.spgemm_op(a.pattern, b.pattern)
    assert op(a.data, b.data).tobytes() == kb.spgemm(a, b).data.tobytes()
    with pytest.raises(ValueError, match="prebuilt plan or both patterns"):
        kb.spgemm_op(a.pattern)


def test_plan_metadata():
    a, b = CASES[0][1], CASES[0][2]
    plan = plan_spgemm(a.pattern, b.pattern)
    assert plan.n_products == len(plan.a_sel) == len(plan.b_sel)
    assert plan.flops == 2 * plan.n_products
    assert not plan.capped
    capped = plan_spgemm(a.pattern, b.pattern, cap=_lower_cap(a.n_rows))
    assert capped.capped
    assert capped.n_products <= plan.n_products


# ----------------------------------------------------------------------
# Degenerate structures
# ----------------------------------------------------------------------


def test_empty_rows_and_columns():
    dense_a = np.zeros((6, 4))
    dense_a[0, 1] = 2.0
    dense_a[4, 3] = -1.0
    dense_b = np.zeros((4, 5))
    dense_b[1, 0] = 3.0
    a, b = csr_from_dense(dense_a), csr_from_dense(dense_b)
    out = get_backend("numpy").spgemm(a, b)
    rows, cols = out.pattern.coo()
    np.testing.assert_allclose(out.data, _dense_product(a, b)[rows, cols])


def test_fully_empty_operands():
    a = CSRMatrix.from_pattern(Pattern.empty(3, 4))
    b = CSRMatrix.from_pattern(Pattern.empty(4, 2))
    out = get_backend("numpy").spgemm(a, b)
    assert out.nnz == 0
    assert out.shape == (3, 2)
    plan = plan_spgemm(a.pattern, b.pattern)
    assert plan.n_products == 0
    assert spgemm_numeric(plan, a.data, b.data).shape == (0,)


def test_one_by_one():
    a = csr_from_dense(np.array([[2.0]]))
    out = get_backend("numpy").spgemm(a, a)
    assert out.to_dense() == pytest.approx(np.array([[4.0]]))


def test_shape_validation():
    a = _random_csr(3, 4, 1.0, 0)
    b = _random_csr(5, 3, 1.0, 1)
    with pytest.raises(ShapeError, match="inner dimensions disagree"):
        plan_spgemm(a.pattern, b.pattern)
    with pytest.raises(ShapeError, match="inner dimensions disagree"):
        get_backend("numpy").spgemm(a, b)
    square = _random_csr(4, 4, 1.0, 2)
    with pytest.raises(ShapeError, match="cap shape"):
        plan_spgemm(a.pattern, square.pattern, cap=_lower_cap(5))


# ----------------------------------------------------------------------
# Property-based sweep
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    density=st.floats(min_value=0.05, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_all_backends_agree(n, density, seed):
    rng = np.random.default_rng(seed)
    dense_a = rng.standard_normal((n, n))
    dense_a[rng.random((n, n)) >= density] = 0.0
    a = csr_from_dense(dense_a)
    b = csr_from_dense(random_spd_dense(n, seed=seed, density=density))
    expected = _dense_product(a, b)
    blobs = {}
    for backend in BACKENDS:
        out = get_backend(backend).spgemm(a, b)
        rows, cols = out.pattern.coo()
        np.testing.assert_allclose(
            out.data, expected[rows, cols], atol=1e-12
        )
        blobs[backend] = out.data.tobytes()
    exact = [blobs[b_] for b_ in EXACT_BACKENDS]
    assert all(blob == exact[0] for blob in exact)
