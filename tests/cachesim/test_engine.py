"""Property tests: the vectorized engine is bit-exact vs the reference loop.

The offline sort/merge-count engine (:mod:`repro.cachesim.engine`) must
reproduce the per-access ``OrderedDict`` oracle
(``replay(..., backend="reference")``) *exactly* — same hit mask — over
randomized traces spanning set counts, associativities and line ranges,
over the repeat-heavy traces the collapse fast-path targets, and over
production traces of the campaign.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.address import ArrayPlacement
from repro.arch.machine import CacheLevelSpec
from repro.arch.presets import SKYLAKE
from repro.cachesim.cache import replay
from repro.cachesim.engine import set_stack_distances, stack_distances_vectorized
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

geometries = st.tuples(st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 4, 8]))


def _spec(n_sets: int, ways: int) -> CacheLevelSpec:
    return CacheLevelSpec("REF", n_sets * ways * 64, ways, 64)


def _assert_engine_matches_oracle(trace: np.ndarray, n_sets: int, ways: int):
    """Engine mask (no short-trace dispatch) and ``replay`` equal the oracle."""
    spec = _spec(n_sets, ways)
    ref_hits = replay(trace, spec, backend="reference")
    sd, _ = set_stack_distances(trace, n_sets)
    assert np.array_equal((sd >= 0) & (sd < ways), ref_hits)
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

    @given(traces)
    @settings(max_examples=100, deadline=None)
    def test_stack_distances_match_fenwick(self, trace):
        vec = stack_distances_vectorized(trace)
        ref = stack_distances(trace, backend="reference")
        assert np.array_equal(vec, ref)

    @given(traces, st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=80, deadline=None)
    def test_set_distances_imply_reference_hits(self, trace, n_sets):
        """hit iff per-set stack distance < ways, for every ways at once."""
        sd, sets = set_stack_distances(trace, n_sets)
        assert np.array_equal(sets, trace % n_sets)
        for ways in (1, 2, 4):
            ref_hits = replay(trace, _spec(n_sets, ways), backend="reference")
            assert np.array_equal((sd >= 0) & (sd < ways), ref_hits)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            replay(np.arange(4), _spec(4, 2), backend="turbo")


#: The campaign's cost-model L1: Skylake at 1/8 cache scale, 8 sets x 8 ways.
CAMPAIGN_L1 = scale_caches(SKYLAKE, 0.125).cache_levels[0]


class TestProductionTraces:
    """Both backends agree on the campaign's own SpMV and G^T(G p) traces."""

    @pytest.mark.parametrize("case_id", [37, 72])
    def test_backends_agree_on_campaign_traces(self, case_id):
        assert (CAMPAIGN_L1.n_sets, CAMPAIGN_L1.associativity) == (8, 8)
        a = get_case(case_id).build()
        placement = ArrayPlacement.aligned(SKYLAKE.line_bytes)
        traces = [spmv_trace(a.pattern, placement)]
        for setup in (
            setup_fsai(a), setup_fsaie_full(a, placement, filter_value=0.01)
        ):
            app = setup.application
            traces.append(
                fsai_apply_trace(app.g_pattern, app.gt_pattern, placement)
            )
        for trace in traces:
            vec = replay(trace.lines, CAMPAIGN_L1)
            ref = replay(trace.lines, CAMPAIGN_L1, backend="reference")
            assert np.array_equal(vec, ref)
