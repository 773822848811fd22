"""Property tests: the vectorized engine is bit-exact vs the reference loop.

The window-scan hit mask (:func:`repro.cachesim.engine.lru_hits`) must
reproduce the per-access ``OrderedDict`` oracle
(``replay(..., backend="reference")``) *exactly* — same hit mask — over
randomized traces spanning set counts, associativities and line ranges,
over the repeat-heavy traces the collapse fast-path targets, over long
windows that hold few distinct lines (where the scan runs through several
doubling blocks), over traces large enough to chunk a pass, and over
production traces of the campaign.  The engine is called directly, as
the default ``replay`` backend does for every trace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.address import ArrayPlacement
from repro.arch.machine import CacheLevelSpec
from repro.arch.presets import A64FX, SKYLAKE
from repro.cachesim import engine
from repro.cachesim.cache import replay
from repro.cachesim.engine import lru_hits, stack_distances_vectorized
from repro.cachesim.stackdist import stack_distances
from repro.cachesim.trace import fsai_apply_trace, spmv_trace
from repro.collection.suite import get_case
from repro.errors import ConfigurationError
from repro.fsai.extended import setup_fsai, setup_fsaie_full
from repro.perf.costmodel import scale_caches

# Traces long enough to cross the vector-dispatch threshold and short enough
# for hypothesis throughput; line ids deliberately collide across sets.
traces = st.lists(st.integers(0, 40), min_size=0, max_size=220).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)

#: Repeat-heavy traces (spatial locality): each drawn id is run-length
#: expanded, exercising the immediate-repeat collapse fast path.
repeaty = st.lists(
    st.tuples(st.integers(0, 25), st.integers(1, 6)), min_size=1, max_size=80
).map(
    lambda ps: np.repeat(
        np.asarray([p[0] for p in ps], dtype=np.int64),
        np.asarray([p[1] for p in ps], dtype=np.int64),
    )
)


def _hot_and_rare(spec) -> np.ndarray:
    """A rare line, then ``gap`` accesses cycling over the hot lines, per
    segment; every line is a multiple of 64, so all share one set."""
    n_hot, segments = spec
    out = []
    for rare, gap in segments:
        out.append(64 * (n_hot + rare))
        out.extend(64 * (np.arange(gap) % n_hot))
    return np.asarray(out, dtype=np.int64)


#: A few hot lines with rare lines between them: a rare line's window runs
#: over many hot accesses yet holds few distinct lines, so its scan spans
#: several doubling blocks before the window ends (or the ways-th line).
hot_and_rare = st.tuples(
    st.integers(2, 4),
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 60)),
        min_size=1, max_size=24,
    ),
).map(_hot_and_rare)

ALL_WAYS = (1, 2, 3, 4, 8, 16)
geometries = st.tuples(st.sampled_from([1, 2, 8, 64]), st.sampled_from(ALL_WAYS))


def _spec(n_sets: int, ways: int) -> CacheLevelSpec:
    return CacheLevelSpec("REF", n_sets * ways * 64, ways, 64)


def _assert_engine_matches_oracle(trace: np.ndarray, n_sets: int, ways: int):
    """Engine mask (no short-trace dispatch) and ``replay`` equal the oracle."""
    spec = _spec(n_sets, ways)
    ref_hits = replay(trace, spec, backend="reference")
    assert np.array_equal(lru_hits(trace, n_sets, ways), ref_hits)
    assert np.array_equal(replay(trace, spec), ref_hits)


class TestEngineVsReference:
    @given(traces, geometries)
    @settings(max_examples=120, deadline=None)
    def test_simulate_matches_reference_replay(self, trace, geom):
        _assert_engine_matches_oracle(trace, *geom)

    @given(repeaty, geometries)
    @settings(max_examples=120, deadline=None)
    def test_repeat_heavy_traces(self, trace, geom):
        _assert_engine_matches_oracle(trace, *geom)

    @given(hot_and_rare, geometries)
    @settings(max_examples=100, deadline=None)
    def test_long_windows_with_few_lines(self, trace, geom):
        _assert_engine_matches_oracle(trace, *geom)

    @given(traces)
    @settings(max_examples=100, deadline=None)
    def test_stack_distances_match_fenwick(self, trace):
        vec = stack_distances_vectorized(trace)
        ref = stack_distances(trace, backend="reference")
        assert np.array_equal(vec, ref)

    @given(traces, st.sampled_from([1, 2, 8, 64]))
    @settings(max_examples=80, deadline=None)
    def test_hits_match_reference_at_every_ways(self, trace, n_sets):
        """One trace, every associativity: the scan stops at the right line."""
        for ways in ALL_WAYS:
            ref_hits = replay(trace, _spec(n_sets, ways), backend="reference")
            assert np.array_equal(lru_hits(trace, n_sets, ways), ref_hits)

    @given(hot_and_rare, st.sampled_from([1, 3, 16, 256]))
    @settings(max_examples=40, deadline=None)
    def test_small_budget_chunks_and_caps_blocks(self, trace, ways):
        """A 64-element budget splits every pass into chunks of a few rows
        and stops blocks doubling at 64 positions (below 256 ways)."""
        ref_hits = replay(trace, _spec(1, ways), backend="reference")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_SCAN_BUDGET", 64)
            assert np.array_equal(lru_hits(trace, 1, ways), ref_hits)

    def test_first_pass_over_budget_is_chunked(self):
        """At the real budget, a first pass too large for one chunk."""
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 300, 60_000)
        ways = 8
        runs = trace[np.r_[True, trace[1:] != trace[:-1]]]
        prev = engine.previous_occurrence(runs)
        scanned = np.count_nonzero(
            (prev >= 0) & (np.arange(len(runs)) - prev > ways)
        )
        assert scanned * ways > engine._SCAN_BUDGET
        _assert_engine_matches_oracle(trace, 1, ways)

    def test_one_set_256_ways(self):
        rng = np.random.default_rng(4)
        trace = rng.integers(0, 400, 5_000)
        _assert_engine_matches_oracle(trace, 1, 256)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            replay(np.arange(4), _spec(4, 2), backend="turbo")


#: The campaign's cost-model L1: Skylake at 1/8 cache scale, 8 sets x 8 ways.
CAMPAIGN_L1 = scale_caches(SKYLAKE, 0.125).cache_levels[0]

#: A64FX at 1/8 cache scale: 8 sets x 4 ways of 256 B lines.
A64FX_L1 = scale_caches(A64FX, 0.125).cache_levels[0]


def _campaign_traces(case_id: int, line_bytes: int):
    """SpMV of ``A`` plus the FSAI and FSAIE(full) ``G^T(G p)`` traces."""
    a = get_case(case_id).build()
    placement = ArrayPlacement.aligned(line_bytes)
    traces = [spmv_trace(a.pattern, placement)]
    for setup in (
        setup_fsai(a), setup_fsaie_full(a, placement, filter_value=0.01)
    ):
        app = setup.application
        traces.append(fsai_apply_trace(app.g_pattern, app.gt_pattern, placement))
    return traces


def _assert_backends_agree(traces, spec: CacheLevelSpec):
    for trace in traces:
        vec = replay(trace.lines, spec)
        ref = replay(trace.lines, spec, backend="reference")
        assert np.array_equal(vec, ref)


class TestProductionTraces:
    """Both backends agree on the campaign's own SpMV and G^T(G p) traces."""

    @pytest.mark.parametrize("case_id", [37, 72])
    def test_backends_agree_on_campaign_traces(self, case_id):
        assert (CAMPAIGN_L1.n_sets, CAMPAIGN_L1.associativity) == (8, 8)
        _assert_backends_agree(
            _campaign_traces(case_id, SKYLAKE.line_bytes), CAMPAIGN_L1
        )

    def test_backends_agree_on_a64fx_traces(self):
        assert (A64FX_L1.n_sets, A64FX_L1.associativity) == (8, 4)
        assert A64FX_L1.line_bytes == 256
        _assert_backends_agree(
            _campaign_traces(28, A64FX.line_bytes), A64FX_L1
        )
