"""The ``fsai_precalc`` kernel op: byte-identical estimates (ISSUE 10).

Same contract shape as the ``fsai_setup`` suite: every available backend
must produce **byte-for-byte equal** data for the §5 truncated-CG
estimates, pinned with ``tobytes()`` over generator matrices, suite
cases, cache-friendly *extended* patterns (the workload the op exists
for) and the degenerate shapes — size-1 rows, a single-system batch
(exercising the width-2 identity pad), zero iterations, systems that
converge on the very first step, and curvature breakdowns that must fall
back to the Jacobi guess and be counted as ``fsai.precalc_fallback_rows``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.collection.generators.fd import poisson2d
from repro.collection.suite import get_case
from repro.fsai.fillin import extend_pattern_cache_friendly
from repro.fsai.frobenius import (
    DEFAULT_PRECALC_ITERATIONS,
    DEFAULT_PRECALC_RTOL,
    precalculate_g,
)
from repro.fsai.patterns import fsai_initial_pattern
from repro.kernels import available_backends, get_backend
from repro.kernels.precalc import solve_precalc_stack, symmetrize
from repro.sparse.construct import csr_from_dense
from repro.sparse.pattern import Pattern

from tests.conftest import random_spd_dense

BACKENDS = available_backends()


def _precalc_bytes(backend_name, a, pattern, **kw):
    kw.setdefault("rtol", DEFAULT_PRECALC_RTOL)
    kw.setdefault("max_iterations", DEFAULT_PRECALC_ITERATIONS)
    return get_backend(backend_name).fsai_precalc(a, pattern, **kw).tobytes()


def _extended(a):
    return extend_pattern_cache_friendly(
        fsai_initial_pattern(a), ArrayPlacement.aligned(64)
    )


def _cases():
    """Initial *and* cache-friendly extended patterns per matrix."""
    mats = [
        ("one_by_one", csr_from_dense(np.array([[4.0]]))),
        ("poisson16", poisson2d(16)),
        ("suite_5", get_case(5).build()),
        ("suite_24", get_case(24).build()),
        ("random_dense", csr_from_dense(random_spd_dense(60, 9, density=0.2))),
    ]
    cases = []
    for name, a in mats:
        cases.append((f"{name}/initial", a, fsai_initial_pattern(a)))
        cases.append((f"{name}/extended", a, _extended(a)))
    return cases


CASES = _cases()
IDS = [name for name, _, _ in CASES]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_backends_byte_identical(case):
    _, a, pattern = case
    blobs = {name: _precalc_bytes(name, a, pattern) for name in BACKENDS}
    baseline = blobs[BACKENDS[0]]
    for name, blob in blobs.items():
        assert blob == baseline, f"{name} diverges from {BACKENDS[0]}"


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_precalculate_g_routes_through_op(case):
    """The public §5 entry point returns the op's bytes unchanged."""
    _, a, pattern = case
    g = precalculate_g(a, pattern, backend="numpy")
    assert g.data.tobytes() == _precalc_bytes("numpy", a, pattern)


def _fallback_rows(collector):
    counters = trace.TraceSummary.from_collector(collector).counter_totals()
    return counters.get("fsai.precalc_fallback_rows", 0)


def test_zero_iterations_is_all_jacobi():
    """``max_iterations = 0`` leaves every estimate at zero, so every row
    takes the Jacobi fallback: zeros except ``1/sqrt(a_ii)`` last."""
    a = poisson2d(6)
    pattern = fsai_initial_pattern(a)
    expected = np.zeros(pattern.nnz)
    expected[pattern.indptr[1:] - 1] = 1.0 / np.sqrt(a.diagonal())
    for name in BACKENDS:
        with trace.collecting() as collector:
            data = get_backend(name).fsai_precalc(
                a, pattern, rtol=DEFAULT_PRECALC_RTOL, max_iterations=0
            )
        np.testing.assert_array_equal(data, expected)
        assert _fallback_rows(collector) == a.n_rows


def test_diagonal_matrix_converges_at_first_step():
    """Size-1 systems solve exactly on iteration one; the normalised
    estimate is the exact Jacobi scaling on every backend."""
    diag = np.array([4.0, 0.25, 9.0, 2.0])
    a = csr_from_dense(np.diag(diag))
    pattern = Pattern.identity(a.n_rows)
    expected = 1.0 / np.sqrt(diag)
    for name in BACKENDS:
        np.testing.assert_array_equal(
            get_backend(name).fsai_precalc(
                a, pattern, rtol=DEFAULT_PRECALC_RTOL, max_iterations=5
            ),
            expected,
        )


def test_breakdown_falls_back_to_jacobi():
    """A curvature breakdown (indefinite restriction) never raises; the
    offending row takes the Jacobi guess (1.0 for a non-positive
    diagonal) and is the one counted fallback row."""
    d = np.array([
        [4.0, 0.0, 0.0],
        [0.0, -1.0, 0.0],   # dᵀq = -1 on the first step -> frozen at zero
        [1.0, 0.0, 3.0],
    ])
    a = csr_from_dense(d)
    pattern = fsai_initial_pattern(a)
    lo, hi = pattern.indptr[1], pattern.indptr[2]
    for name in BACKENDS:
        with trace.collecting() as collector:
            g = precalculate_g(a, pattern, backend=name)
        assert g.data[lo:hi].tolist() == [1.0]
        assert _fallback_rows(collector) == 1


def test_width_one_identity_pad_is_bitwise_neutral():
    """A single-system stack (batch width 1) pads to width 2 so the
    einsum reductions stay sequential; the padded solve must equal the
    same system solved inside a genuine width-2 batch."""
    rng = np.random.default_rng(23)
    k = 5
    q = rng.standard_normal((k, k))
    sys1 = np.tril(q @ q.T + k * np.eye(k))[:, :, None]
    sys2 = np.concatenate([sys1, sys1], axis=2)
    alone = solve_precalc_stack(sys1, DEFAULT_PRECALC_RTOL, 20)
    paired = solve_precalc_stack(sys2, DEFAULT_PRECALC_RTOL, 20)
    assert alone[:, 0].tobytes() == paired[:, 0].tobytes()
    assert paired[:, 0].tobytes() == paired[:, 1].tobytes()


def test_symmetrize_clears_negative_zero_off_diagonals():
    """The transpose add turns a stored ``-0.0`` off-diagonal into
    ``+0.0`` while keeping the diagonal bits exact — the rule the scalar
    replays mirror with their ``+ 0.0`` reads."""
    systems = np.zeros((2, 2, 2))
    systems[0, 0, :] = 4.0
    systems[1, 1, :] = -0.0     # diagonal keeps its sign bit
    systems[1, 0, :] = -0.0     # off-diagonal loses it
    full = symmetrize(systems)
    assert np.signbit(full[1, 1]).all()
    assert not np.signbit(full[1, 0]).any()
    assert not np.signbit(full[0, 1]).any()


dims = st.integers(min_value=1, max_value=24)


@given(dims, st.floats(0.05, 1.0), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_random_spd_byte_identity(n, density, seed):
    a = csr_from_dense(random_spd_dense(n, seed, density=density))
    pattern = fsai_initial_pattern(a)
    blobs = {name: _precalc_bytes(name, a, pattern) for name in BACKENDS}
    assert len(set(blobs.values())) == 1
