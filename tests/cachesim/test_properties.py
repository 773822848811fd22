"""Property-based tests for the cache simulator (hypothesis).

Classical cache-theory invariants that any correct LRU implementation must
satisfy — these catch subtle replacement/indexing bugs that example-based
tests miss.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.address import ArrayPlacement
from repro.arch.machine import CacheLevelSpec
from repro.cachesim.cache import replay
from repro.cachesim.trace import spmv_trace
from repro.sparse.pattern import Pattern

streams = st.lists(st.integers(0, 63), min_size=1, max_size=300).map(np.asarray)


def misses(stream, ways: int, sets: int) -> int:
    """L1 misses of one cold replay of ``stream``."""
    hits = replay(stream, CacheLevelSpec("T", sets * ways * 64, ways, 64))
    return int((~hits).sum())


def never_evicting_misses(stream) -> int:
    """Misses of a cache that never evicts: one set, a way per line."""
    return misses(stream, len(np.unique(stream)), 1)


class TestLRUInclusion:
    @given(streams, st.sampled_from([1, 2, 4]), st.sampled_from([2, 4]))
    @settings(max_examples=80, deadline=None)
    def test_more_ways_never_more_misses(self, stream, ways, sets):
        """LRU inclusion property: with the set count fixed, adding ways can
        only turn misses into hits (true-LRU is a stack algorithm per set)."""
        assert misses(stream, 2 * ways, sets) <= misses(stream, ways, sets)

    @given(streams, st.sampled_from([1, 2, 4]))
    @settings(max_examples=80, deadline=None)
    def test_infinite_cache_lower_bounds_misses(self, stream, ways):
        assert never_evicting_misses(stream) <= misses(stream, ways, 4)

    @given(streams)
    @settings(max_examples=60, deadline=None)
    def test_compulsory_misses_equal_distinct_lines(self, stream):
        assert never_evicting_misses(stream) == len(np.unique(stream))

    @given(streams, st.sampled_from([2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_counters_are_consistent(self, stream, ways):
        """The mask covers the trace, and no cache misses less than once
        per distinct line."""
        hits = replay(stream, CacheLevelSpec("T", 2 * ways * 64, ways, 64))
        assert hits.shape == (len(stream),)
        assert int((~hits).sum()) >= len(np.unique(stream))

    @given(streams, st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_replay_determinism(self, stream, ways):
        spec = CacheLevelSpec("T", 4 * ways * 64, ways, 64)
        assert np.array_equal(replay(stream, spec), replay(stream, spec))


@st.composite
def small_patterns(draw):
    n = draw(st.integers(2, 24))
    seed = draw(st.integers(0, 2**31 - 1))
    density = draw(st.floats(0.05, 0.5))
    rng = np.random.default_rng(seed)
    mask = rng.uniform(size=(n, n)) < density
    np.fill_diagonal(mask, True)
    return Pattern.from_dense_mask(mask)


class TestTraceProperties:
    @given(small_patterns(), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_x_access_count_is_nnz(self, p, offset):
        pl = ArrayPlacement.with_element_offset(64, offset)
        tr = spmv_trace(p, pl, include_streams=True)
        assert int(tr.is_x.sum()) == p.nnz

    @given(small_patterns())
    @settings(max_examples=60, deadline=None)
    def test_stream_and_x_regions_disjoint(self, p):
        pl = ArrayPlacement.aligned(64)
        tr = spmv_trace(p, pl, include_streams=True)
        x_lines = set(tr.lines[tr.is_x].tolist())
        s_lines = set(tr.lines[~tr.is_x].tolist())
        assert not (x_lines & s_lines)

    @given(small_patterns(), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_compulsory_x_misses_equal_lines_touched(self, p, offset):
        pl = ArrayPlacement.with_element_offset(64, offset)
        tr = spmv_trace(p, pl, include_streams=False)
        expected = len(np.unique(np.asarray(pl.line_of(p.indices))))
        assert never_evicting_misses(tr.lines) == expected
