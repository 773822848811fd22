"""The ``fsai_setup`` kernel op: byte-identical ``G`` across backends (ISSUE 6).

The op's contract is stronger than the solve-side kernels': not "agrees to
1e-13" but **byte-for-byte equal CSR data** on every available backend.
The tests pin that down with ``tobytes()`` equality over generator
matrices, campaign suite cases, hypothesis-random SPD matrices and the
degenerate bucket shapes (size-1 rows, single-bucket patterns, ``n = 1``,
empty FSAIE extensions), then check the pieces the guarantee rests on:
identity padding must be bitwise neutral, the group plan must be a pure
function of the row-length histogram, and non-SPD failures must surface
as a ``NotSPDError`` naming the first bad row.  Dense agreement is held
against a per-row LAPACK solve written here, independent of the op.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection.generators.fd import poisson2d
from repro.collection.suite import get_case
from repro.errors import ConfigurationError, NotSPDError
from repro.fsai.frobenius import (
    DEFAULT_PRECALC_ITERATIONS,
    DEFAULT_PRECALC_RTOL,
    compute_g,
    precalculate_g,
    resolve_setup_backend,
)
from repro.fsai.patterns import fsai_initial_pattern
from repro.kernels import ENV_VAR, available_backends, get_backend, use_backend
from repro.kernels.setup import (
    MIN_GROUP_ROWS,
    PAD_CAP,
    gather_group_stack,
    plan_groups,
    solve_group_stack,
)
from repro.solvers.direct import solve_spd
from repro.sparse.construct import csr_from_dense
from repro.sparse.pattern import Pattern

from tests.conftest import random_spd_dense

BACKENDS = available_backends()


def _setup_bytes(backend_name, a, pattern):
    return get_backend(backend_name).fsai_setup(a, pattern).tobytes()


def _tril_pattern_of(a):
    """The matrix's own lower triangle as a pattern (diagonal included)."""
    return fsai_initial_pattern(a)


# ----------------------------------------------------------------------
# Case zoo: generator matrices + degenerate bucket shapes
# ----------------------------------------------------------------------


def _uniform_band(n=40):
    """Tridiagonal SPD -> every pattern row (past the first) has length 2:
    a single-bucket, single-group plan."""
    d = np.zeros((n, n))
    i = np.arange(n)
    d[i, i] = 4.0 + 0.01 * i
    d[i[1:], i[1:] - 1] = -1.0
    d[i[:-1], i[:-1] + 1] = -1.0
    return csr_from_dense(d)


def _spread_lengths(n=120, seed=3):
    """Row lengths spread 1..~20 so the greedy plan pads and merges."""
    return csr_from_dense(random_spd_dense(n, seed, density=0.15))


def _cases():
    cases = [
        ("one_by_one", csr_from_dense(np.array([[4.0]]))),
        ("uniform_band", _uniform_band()),
        ("spread_lengths", _spread_lengths()),
        ("poisson16", poisson2d(16)),
        ("suite_5", get_case(5).build()),
        ("suite_24", get_case(24).build()),
    ]
    return [(name, a, _tril_pattern_of(a)) for name, a in cases]


CASES = _cases()
IDS = [name for name, _, _ in CASES]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_backends_byte_identical(case):
    _, a, pattern = case
    blobs = {name: _setup_bytes(name, a, pattern) for name in BACKENDS}
    baseline = blobs[BACKENDS[0]]
    for name, blob in blobs.items():
        assert blob == baseline, f"{name} diverges from {BACKENDS[0]}"


def _dense_oracle(a, pattern):
    """Per-row LAPACK solve of ``A[S_i, S_i] ĝ = e_last``, normalised."""
    data = np.empty(pattern.nnz)
    for i in range(pattern.n_rows):
        cols = pattern.row(i)
        e_last = np.zeros(len(cols))
        e_last[-1] = 1.0
        sol = solve_spd(a.submatrix(cols, cols), e_last)
        data[pattern.indptr[i]:pattern.indptr[i + 1]] = sol / np.sqrt(sol[-1])
    return data


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_op_matches_dense_oracle(case):
    """Different factorisation, same minimiser: the op and a per-row
    LAPACK solve agree to solver roundoff.  Near-zero entries need the
    absolute tolerance — the two round them differently around exact
    cancellation."""
    _, a, pattern = case
    oracle = _dense_oracle(a, pattern)
    op = get_backend(BACKENDS[0]).fsai_setup(a, pattern)
    scale = float(np.max(np.abs(oracle)))
    np.testing.assert_allclose(op, oracle, rtol=1e-9, atol=1e-9 * scale)


def test_identity_pattern_is_jacobi():
    """Size-1 rows only — the fully degenerate bucket.  The op must give
    the exact Jacobi scaling 1/sqrt(a_ii) on every backend."""
    a = poisson2d(8)
    pattern = Pattern.identity(a.n_rows)
    expected = 1.0 / np.sqrt(a.diagonal())
    for name in BACKENDS:
        np.testing.assert_array_equal(
            get_backend(name).fsai_setup(a, pattern), expected
        )


def test_empty_extension_pattern_unchanged():
    """FSAIE with zero extension entries reuses the initial pattern; the
    op must produce the same bytes for the same (matrix, pattern) pair."""
    a = get_case(52).build()
    pattern = _tril_pattern_of(a)
    extended = Pattern.from_rows(
        pattern.n_rows, pattern.n_cols,
        [pattern.row(i) for i in range(pattern.n_rows)],
    )
    for name in BACKENDS:
        assert _setup_bytes(name, a, pattern) == _setup_bytes(name, a, extended)


dims = st.integers(min_value=1, max_value=24)


@given(dims, st.floats(0.05, 1.0), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_random_spd_byte_identity_and_unit_diagonal(n, density, seed):
    a = csr_from_dense(random_spd_dense(n, seed, density=density))
    pattern = _tril_pattern_of(a)
    blobs = {name: _setup_bytes(name, a, pattern) for name in BACKENDS}
    assert len(set(blobs.values())) == 1
    # And the result is a valid FSAI factor: diag(G A G^T) = 1.
    g = compute_g(a, pattern)
    gd = g.to_dense()
    np.testing.assert_allclose(
        np.diag(gd @ a.to_dense() @ gd.T), np.ones(n), rtol=1e-8, atol=1e-8
    )


# ----------------------------------------------------------------------
# Group planning + identity padding
# ----------------------------------------------------------------------


class TestPlanGroups:
    def test_small_buckets_merge(self):
        groups = plan_groups([1, 2, 3], [10, 10, 10])
        assert groups == [[1, 2, 3]]

    def test_flush_on_row_count(self):
        groups = plan_groups([4, 5], [MIN_GROUP_ROWS, 7])
        assert groups == [[4], [5]]

    def test_flush_on_pad_cap(self):
        wide = int(PAD_CAP * 2 + 2)  # violates PAD_CAP * k0 + 1 for k0=2
        groups = plan_groups([2, wide], [3, 3])
        assert groups == [[2], [wide]]

    def test_covers_all_sizes_in_order(self):
        sizes = list(range(1, 30))
        groups = plan_groups(sizes, [5] * len(sizes))
        flat = [k for g in groups for k in g]
        assert flat == sizes
        for g in groups:
            assert g == sorted(g)
            assert g[-1] <= PAD_CAP * g[0] + 1

    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=15, unique=True),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_partitions_any_histogram(self, sizes, seed):
        sizes = sorted(sizes)
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 400, size=len(sizes)).tolist()
        groups = plan_groups(sizes, counts)
        assert [k for g in groups for k in g] == sizes
        for g in groups[:-1]:
            rows = sum(counts[sizes.index(k)] for k in g)
            # a non-final group only closes for one of the two reasons
            assert rows >= MIN_GROUP_ROWS or g[-1] <= PAD_CAP * g[0] + 1

    def test_identity_padding_is_bitwise_neutral(self):
        """Solving a bucket alone vs padded into a larger K must produce
        the same bytes for the real systems."""
        rng = np.random.default_rng(17)
        k, m, pad = 4, 6, 3
        small = np.empty((k, k, m))
        for s in range(m):
            q = rng.standard_normal((k, k))
            small[:, :, s] = np.tril(q @ q.T + k * np.eye(k))
        K = k + pad
        padded = np.zeros((K, K, m))
        padded[pad:, pad:, :] = small
        diag = np.arange(pad)
        padded[diag, diag, :] = 1.0
        alone = solve_group_stack(small)
        embedded = solve_group_stack(padded)
        assert embedded[pad:].tobytes() == alone.tobytes()
        np.testing.assert_array_equal(embedded[:pad], 0.0)


def test_gather_matches_dense_restriction():
    a = poisson2d(6)
    pattern = _tril_pattern_of(a)
    lengths = np.diff(pattern.indptr)
    keys = np.concatenate([a.entry_keys(), np.asarray([-1], dtype=np.int64)])
    k = int(lengths.max())
    rows = np.flatnonzero(lengths == k)
    systems = gather_group_stack(
        keys, a.data, np.int64(a.n_cols), pattern.indptr, pattern.indices,
        [rows], [k], k,
    )
    dense = a.to_dense()
    for s, i in enumerate(rows):
        cols = pattern.row(int(i))
        local = np.tril(dense[np.ix_(cols, cols)])
        np.testing.assert_array_equal(systems[:, :, s], local)


# ----------------------------------------------------------------------
# Failure + resolution semantics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_not_spd_names_first_bad_row(backend_name):
    d = np.array([
        [4.0, 0.0, 0.0],
        [0.0, -1.0, 0.0],   # indefinite restriction at row 1
        [1.0, 0.0, 3.0],
    ])
    a = csr_from_dense(d)
    pattern = _tril_pattern_of(a)
    with pytest.raises(NotSPDError, match="row 1"):
        get_backend(backend_name).fsai_setup(a, pattern)


class TestResolution:
    def test_default_resolves_through_registry(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_setup_backend() == get_backend("auto").name

    def test_env_var_wins_over_auto(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert resolve_setup_backend() == "numpy"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert resolve_setup_backend("reference") == "reference"

    def test_bucketed_rejected(self):
        """The removed LAPACK path's name is not a registry backend."""
        with pytest.raises(ConfigurationError):
            resolve_setup_backend("bucketed")
        with pytest.raises(ConfigurationError):
            compute_g(poisson2d(4), _tril_pattern_of(poisson2d(4)),
                      backend="bucketed")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_g(poisson2d(4), _tril_pattern_of(poisson2d(4)),
                      backend="magic")

    def test_setup_threads_reported(self):
        assert get_backend("numpy").setup_threads() == 1
        assert get_backend("reference").setup_threads() == 1


def test_default_compute_g_equals_direct_op():
    """The public entry point routes through the op byte-for-byte."""
    a = get_case(37).build()
    pattern = _tril_pattern_of(a)
    g = compute_g(a, pattern)
    name = resolve_setup_backend()
    assert g.data.tobytes() == _setup_bytes(name, a, pattern)


def test_precalc_kernel_path_runs_the_op():
    """``precalculate_g`` routes through ``fsai_precalc`` byte-for-byte."""
    a = poisson2d(10)
    pattern = _tril_pattern_of(a)
    with use_backend("numpy"):
        kernel = precalculate_g(a, pattern, backend="numpy")
    op = get_backend("numpy").fsai_precalc(
        a, pattern, rtol=DEFAULT_PRECALC_RTOL,
        max_iterations=DEFAULT_PRECALC_ITERATIONS,
    )
    assert kernel.data.tobytes() == op.tobytes()
