"""Property tests: the vectorized engine is bit-exact vs the reference loop.

The offline sort/merge-count engine (:mod:`repro.cachesim.engine`) must
reproduce the per-access ``OrderedDict`` oracle *exactly* — same hit mask,
same counters, same final cache state including per-set LRU order — over
randomized traces spanning set counts, associativities and line ranges, and
over the repeat-heavy traces the collapse fast-path targets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.machine import CacheLevelSpec
from repro.cachesim.cache import SetAssociativeCache
from repro.cachesim.engine import (
    set_stack_distances,
    simulate_set_lru,
    stack_distances_vectorized,
)
from repro.cachesim.stackdist import stack_distances
from repro.errors import ConfigurationError

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


def _reference_cache(n_sets: int, ways: int) -> SetAssociativeCache:
    spec = CacheLevelSpec("REF", n_sets * ways * 64, ways, 64)
    return SetAssociativeCache(spec, backend="reference")


def _state_of(cache: SetAssociativeCache):
    """(set index, line, LRU rank) triples of the live OrderedDict state."""
    out = []
    for idx, s in enumerate(cache._sets):
        for rank, line in enumerate(s.keys()):
            out.append((idx, line, rank))
    return out


class TestEngineVsReference:
    @given(traces, geometries)
    @settings(max_examples=120, deadline=None)
    def test_simulate_matches_reference_replay(self, trace, geom):
        n_sets, ways = geom
        ref = _reference_cache(n_sets, ways)
        ref_hits = ref.access_many(trace)
        outcome = simulate_set_lru(trace, n_sets, ways)
        assert np.array_equal(outcome.hits, ref_hits)
        assert outcome.evictions == ref.stats.evictions
        engine_state = list(
            zip(outcome.state_sets.tolist(), outcome.state_lines.tolist())
        )
        ref_state = [(s, line) for s, line, _ in _state_of(ref)]
        assert engine_state == ref_state  # same residents, same LRU order

    @given(repeaty, geometries)
    @settings(max_examples=120, deadline=None)
    def test_repeat_heavy_traces(self, trace, geom):
        n_sets, ways = geom
        ref = _reference_cache(n_sets, ways)
        ref_hits = ref.access_many(trace)
        outcome = simulate_set_lru(trace, n_sets, ways)
        assert np.array_equal(outcome.hits, ref_hits)
        assert outcome.evictions == ref.stats.evictions

    @given(traces, traces, geometries)
    @settings(max_examples=80, deadline=None)
    def test_warm_start_equals_stateful_continuation(self, first, second, geom):
        """Splitting a trace across two access_many calls (vector backend
        carries state via the warm prefix) must match one reference run."""
        n_sets, ways = geom
        ref = _reference_cache(n_sets, ways)
        h1 = ref.access_many(first)
        h2 = ref.access_many(second)
        spec = CacheLevelSpec("VEC", n_sets * ways * 64, ways, 64)
        vec = SetAssociativeCache(spec, backend="vector")
        # Bypass the short-trace dispatch so the engine path is always used.
        v1 = vec._access_many_vector(np.asarray(first, dtype=np.int64))
        v2 = vec._access_many_vector(np.asarray(second, dtype=np.int64))
        assert np.array_equal(v1, h1) and np.array_equal(v2, h2)
        assert vec.stats == ref.stats
        assert _state_of(vec) == _state_of(ref)

    @given(traces, st.lists(st.integers(0, 40), min_size=1, max_size=8), geometries)
    @settings(max_examples=60, deadline=None)
    def test_mixed_scalar_and_batch(self, trace, probes, geom):
        """Scalar accesses interleaved with vector batches stay exact."""
        n_sets, ways = geom
        ref = _reference_cache(n_sets, ways)
        spec = CacheLevelSpec("VEC", n_sets * ways * 64, ways, 64)
        vec = SetAssociativeCache(spec, backend="vector")
        ref.access_many(trace)
        vec._access_many_vector(np.asarray(trace, dtype=np.int64))
        for p in probes:
            assert vec.contains(p) == ref.contains(p)
            assert vec.access(p) == ref.access(p)
        assert vec.stats == ref.stats

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
            ref = _reference_cache(n_sets, ways)
            ref_hits = ref.access_many(trace)
            assert np.array_equal((sd >= 0) & (sd < ways), ref_hits)

    def test_unknown_backend_rejected(self):
        spec = CacheLevelSpec("X", 4 * 2 * 64, 2, 64)
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(spec, backend="turbo")

