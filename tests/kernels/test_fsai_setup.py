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

from repro import trace
from repro.arch.address import ArrayPlacement
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
from repro.fsai.extended import setup_fsai, setup_fsaie_sp
from repro.fsai.fillin import extend_pattern_cache_friendly
from repro.fsai.patterns import fsai_initial_pattern
from repro.kernels import ENV_VAR, available_backends, get_backend, use_backend
from repro.kernels.setup import (
    MIN_GROUP_ROWS,
    PAD_CAP,
    gather_group_stack,
    lower_ends,
    plan_groups,
    solve_group_stack,
)
from repro.sparse.construct import csr_from_coo_arrays, csr_from_dense
from repro.sparse.csr import CSRMatrix
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
    """Per-row dense solve of ``A[S_i, S_i] ĝ = e_last``, normalised."""
    dense = a.to_dense()
    data = np.empty(pattern.nnz)
    for i in range(pattern.n_rows):
        cols = pattern.row(i)
        e_last = np.zeros(len(cols))
        e_last[-1] = 1.0
        sol = np.linalg.solve(dense[np.ix_(cols, cols)], e_last)
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


# ----------------------------------------------------------------------
# The shared gather: exact copies, both sides of the walk/probe bound
# ----------------------------------------------------------------------


def _bordered_spd(n, border):
    """Tridiagonal SPD plus a dense row and column ``border``.

    The lower part of row ``border`` holds ``border + 1`` entries, and
    every later pattern row contains column ``border`` — so an unbounded
    row walk would examine all of them once per system.
    """
    i = np.arange(n)
    j = i[:-1][(i[:-1] != border) & (i[1:] != border)]
    others = np.delete(i, border)
    rows = np.concatenate([i, j + 1, j, np.full(n - 1, border), others])
    cols = np.concatenate([i, j, j + 1, others, np.full(n - 1, border)])
    diag = np.full(n, 4.0)
    diag[border] = float(n)
    vals = np.concatenate([diag, -np.ones(2 * len(j)), np.full(2 * (n - 1), 0.01)])
    return csr_from_coo_arrays(n, n, rows, cols, vals)


def _signed_zeros():
    """``poisson2d(8)`` with symmetric off-diagonal pairs stored as explicit
    ``-0.0`` and ``+0.0`` — the gather must copy both signs exactly."""
    a = poisson2d(8)
    rows = a.row_ids()
    off = rows != a.indices
    pick = np.minimum(rows, a.indices) % 3
    data = a.data.copy()
    data[off & (pick == 0)] = -0.0
    data[off & (pick == 1)] = 0.0
    return CSRMatrix(a.n_rows, a.n_cols, a.indptr, a.indices, data)


def _fsaie_sp_pattern(a):
    return extend_pattern_cache_friendly(
        _tril_pattern_of(a), ArrayPlacement.aligned(64)
    )


def _fsaie_full_pattern(a):
    placement = ArrayPlacement.aligned(64)
    ext_t = extend_pattern_cache_friendly(
        _fsaie_sp_pattern(a).transpose(), placement, triangular="upper"
    )
    return ext_t.transpose()


def _gather_all(a, pattern):
    """Every system's gathered slice (keyed by pattern row) from the shared
    gather, over the driver's own group plan, plus its trace counters."""
    lengths = np.diff(pattern.indptr)
    low_end = lower_ends(a)
    sizes, counts = np.unique(lengths, return_counts=True)
    slices = {}
    with trace.collecting() as collector:
        for group in plan_groups(sizes.tolist(), counts.tolist()):
            K = group[-1]
            rows_parts = [np.flatnonzero(lengths == k) for k in group]
            systems = gather_group_stack(
                a, low_end, pattern.indptr, pattern.indices,
                rows_parts, group, K,
            )
            for s, i in enumerate(np.concatenate(rows_parts)):
                slices[int(i)] = systems[:, :, s]
    return slices, trace.TraceSummary.from_collector(collector).counter_totals()


def _sides(a, pattern):
    """Which gather each row-length part of two or more slots takes under
    the documented bound ``Σ lowlen ≤ m·k(k+1)/2``."""
    lowlen = lower_ends(a) - a.indptr[:-1]
    lengths = np.diff(pattern.indptr)
    sides = set()
    for k in np.unique(lengths[lengths > 1]):
        rows = np.flatnonzero(lengths == k)
        slots = pattern.indices[pattern.indptr[rows][:, None] + np.arange(k)]
        walked = lowlen[slots].sum()
        sides.add("walk" if walked <= len(rows) * k * (k + 1) // 2 else "probe")
    return sides


GATHER_CASES = [
    ("fsai_poisson6", lambda: poisson2d(6), _tril_pattern_of, {"probe"}),
    ("fsaie_sp_suite24", lambda: get_case(24).build(), _fsaie_sp_pattern,
     {"walk", "probe"}),
    ("fsaie_full_suite24", lambda: get_case(24).build(), _fsaie_full_pattern,
     {"walk"}),
    ("fsaie_full_poisson16", lambda: poisson2d(16), _fsaie_full_pattern,
     {"walk"}),
    ("n1", lambda: csr_from_dense(np.array([[4.0]])), _tril_pattern_of, set()),
    ("bordered", lambda: _bordered_spd(2000, 200), _tril_pattern_of,
     {"walk", "probe"}),
    ("signed_zeros_fsai", _signed_zeros, _tril_pattern_of, {"probe"}),
    ("signed_zeros_fsaie_sp", _signed_zeros, _fsaie_sp_pattern, {"walk"}),
]


@pytest.mark.parametrize(
    "build,make_pattern,sides",
    [case[1:] for case in GATHER_CASES],
    ids=[case[0] for case in GATHER_CASES],
)
def test_gather_matches_dense_restriction(build, make_pattern, sides):
    """Each gathered system is byte-equal to the lower triangle of the dense
    restriction ``A[S_i, S_i]``, identity-padded top-left to its group's
    ``K`` — on the row-walk side, the pair-probe side and across
    multi-size groups.  ``tobytes()`` pins the sign of every zero: stored
    ``±0.0`` entries are copied, absent ones read ``+0.0``."""
    a = build()
    pattern = make_pattern(a)
    assert _sides(a, pattern) == sides
    slices, counters = _gather_all(a, pattern)
    dense = a.to_dense()
    padded = 0
    for i, got in slices.items():
        cols = pattern.row(i)
        K, k = got.shape[0], len(cols)
        expected = np.zeros((K, K))
        expected[np.arange(K - k), np.arange(K - k)] = 1.0
        expected[K - k:, K - k:] = np.tril(dense[np.ix_(cols, cols)])
        assert got.tobytes() == expected.tobytes(), f"row {i}"
        padded += K > k
    assert len(slices) == a.n_rows
    if len(np.unique(np.diff(pattern.indptr))) > 2:
        assert padded, "expected identity-padded multi-size groups"
    pair_keys = np.concatenate([
        np.add.outer(cols * a.n_cols, cols)[np.tril_indices(len(cols))]
        for cols in map(pattern.row, range(a.n_rows))
    ])
    stored = np.count_nonzero(np.isin(pair_keys, a.entry_keys()))
    assert counters["fsai.gather_hits"] == stored


def _pairs_total(pattern):
    k = np.diff(pattern.indptr)
    return int((k * (k + 1) // 2).sum())


def test_gather_bound_keeps_bordered_matrix_on_probe_side():
    """A dense row and column near the top: walking every row would
    examine >10x the ``Σ k(k+1)/2`` pairs, the bounded gather never more."""
    a = _bordered_spd(20000, 2000)
    pattern = _tril_pattern_of(a)
    lowlen = lower_ends(a) - a.indptr[:-1]
    unbounded = int(lowlen[pattern.indices].sum())
    pairs = _pairs_total(pattern)
    assert unbounded > 10 * pairs
    _, counters = _gather_all(a, pattern)
    assert counters["fsai.gather_candidates"] <= pairs
    assert counters["fsai.gather_hits"] <= counters["fsai.gather_candidates"]


def test_gather_counters_on_quick_case_37():
    """Both ops gather through the shared gather on the numpy backend;
    while tracing they record at most ``Σ k(k+1)/2`` candidates each."""
    a = get_case(37).build()
    pattern = _fsaie_sp_pattern(a)
    backend = get_backend("numpy")
    with trace.collecting() as collector:
        backend.fsai_setup(a, pattern)
        backend.fsai_precalc(
            a, pattern, rtol=DEFAULT_PRECALC_RTOL,
            max_iterations=DEFAULT_PRECALC_ITERATIONS,
        )
    counters = trace.TraceSummary.from_collector(collector).counter_totals()
    candidates = counters["fsai.gather_candidates"]
    assert 0 < candidates <= 2 * _pairs_total(pattern)
    assert 0 < counters["fsai.gather_hits"] <= candidates


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


def _setup_span_backends(**setup_backend):
    """``(span, backend)`` of the set-up op spans of one FSAI and one
    FSAIE(sp) set-up on ``poisson2d(8)``."""
    a = poisson2d(8)
    with trace.collecting() as collector:
        setup_fsai(a, **setup_backend)
        setup_fsaie_sp(a, ArrayPlacement.aligned(64), **setup_backend)
    return {
        (s.name, s.attrs["backend"])
        for root in collector.roots for s in root.iter_spans()
        if s.name in ("fsai.frobenius", "fsai.precalc")
    }


class TestResolution:
    """Set-up resolves like the solves: explicit > use_backend > env > numpy."""

    def test_default_resolves_through_registry(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_setup_backend() == get_backend().name == "numpy"

    def test_env_var_wins_over_auto(self, monkeypatch):
        """The env var beats the numpy default."""
        monkeypatch.setenv(ENV_VAR, "reference")
        assert resolve_setup_backend() == "reference"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        assert resolve_setup_backend("reference") == "reference"

    def test_use_backend_reaches_the_setup_ops(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        with use_backend("reference"):
            assert resolve_setup_backend() == "reference"
            spans = _setup_span_backends()
        assert spans == {
            ("fsai.frobenius", "reference"), ("fsai.precalc", "reference"),
        }

    def test_explicit_beats_use_backend_and_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "reference")
        with use_backend("reference"):
            assert resolve_setup_backend("numpy") == "numpy"
            spans = _setup_span_backends(setup_backend="numpy")
        assert spans == {("fsai.frobenius", "numpy"), ("fsai.precalc", "numpy")}

    def test_auto_rejected(self):
        """``"auto"`` is an unknown name for set-up as for the solves."""
        with pytest.raises(ConfigurationError):
            resolve_setup_backend("auto")
        with pytest.raises(ConfigurationError):
            compute_g(poisson2d(4), _tril_pattern_of(poisson2d(4)),
                      backend="auto")

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
