"""Unit + property tests for the stack-distance profiler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.address import ArrayPlacement
from repro.arch.machine import CacheLevelSpec
from repro.cachesim.cache import replay
from repro.cachesim.stackdist import (
    profile_stack_distances,
    stack_distances,
)
from repro.cachesim.trace import spmv_trace
from repro.fsai.fillin import extend_pattern_cache_friendly
from repro.fsai.random_ext import extend_pattern_random
from repro.sparse.pattern import Pattern


class TestStackDistances:
    def test_textbook_example(self):
        # Stream a b c a: distance of the second 'a' is 2 (b, c touched).
        d = stack_distances([0, 1, 2, 0])
        assert list(d) == [-1, -1, -1, 2]

    def test_immediate_reuse_is_zero(self):
        d = stack_distances([5, 5, 5])
        assert list(d) == [-1, 0, 0]

    def test_all_distinct(self):
        d = stack_distances([1, 2, 3, 4])
        assert (d == -1).all()

    def test_interleaved(self):
        # a b a b: each reuse skips exactly one distinct line.
        d = stack_distances([0, 1, 0, 1])
        assert list(d) == [-1, -1, 1, 1]

    def test_empty(self):
        assert len(stack_distances([])) == 0


class TestProfile:
    def test_compulsory_counts_distinct_lines(self):
        p = profile_stack_distances([3, 1, 3, 2, 1])
        assert p.compulsory == 3
        assert p.n_accesses == 5

    def test_misses_at_capacity(self):
        # Cyclic stream over 3 lines: capacity >= 3 -> only compulsory.
        stream = [0, 1, 2] * 4
        p = profile_stack_distances(stream)
        assert p.misses_at(3) == 3
        assert p.misses_at(2) == len(stream)  # LRU thrashes under capacity
        assert p.misses_at(0) == len(stream)

    def test_miss_ratio_curve_monotone(self):
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 50, 500)
        p = profile_stack_distances(stream)
        curve = p.miss_ratio_curve([1, 2, 4, 8, 16, 32, 64])
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
        assert curve[-1] == pytest.approx(p.compulsory / 500)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_fully_associative_lru(self, stream):
        """Cross-validation: misses_at(C) must equal an exact C-line
        fully-associative LRU simulation, for every C."""
        p = profile_stack_distances(stream)
        for ways in (1, 2, 4, 8):
            spec = CacheLevelSpec("FA", ways * 64, ways, 64)  # 1 set, `ways` lines
            hits = replay(np.asarray(stream, dtype=np.int64), spec)
            assert p.misses_at(ways) == int((~hits).sum())


class TestPaperLens:
    def test_extension_adds_only_tiny_distances(self):
        """Cache-friendly extension accesses reuse just-touched lines, so
        the median finite distance must stay small; random extensions
        inflate it."""
        n = 256
        rows = [[max(0, i - 1), i] for i in range(n)]
        base = Pattern.from_rows(n, n, rows)
        pl = ArrayPlacement.aligned(64)
        ext = extend_pattern_cache_friendly(base, pl)
        added = np.asarray(ext.row_lengths() - base.row_lengths())
        rnd = extend_pattern_random(base, added, seed=1)

        def median_dist(pattern):
            tr = spmv_trace(pattern, pl, include_streams=False)
            return profile_stack_distances(tr.lines).median_finite_distance()

        assert median_dist(ext) <= median_dist(base) + 1e-9
        assert median_dist(rnd) > 2 * median_dist(ext)
