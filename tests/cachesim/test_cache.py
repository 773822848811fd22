"""Unit tests for repro.cachesim.cache (cold true-LRU replay)."""

import numpy as np

from repro.arch.machine import CacheLevelSpec
from repro.cachesim.cache import CACHE_BACKENDS, replay


def tiny_spec(ways=2, sets=2):
    # sets*ways lines of 64B.
    return CacheLevelSpec("T", sets * ways * 64, ways, 64)


def hits_of(stream, spec):
    """Hit mask on every backend, asserted equal; returns it as a list."""
    masks = [replay(stream, spec, backend=b) for b in CACHE_BACKENDS]
    for mask in masks[1:]:
        assert np.array_equal(mask, masks[0])
    return masks[0].tolist()


class TestSetAssociative:
    def test_compulsory_miss_then_hit(self):
        assert hits_of([0, 0], tiny_spec()) == [False, True]

    def test_set_mapping(self):
        spec = tiny_spec(ways=1, sets=2)
        # lines 0 and 2 both map to set 0 with 1 way -> conflict ...
        assert hits_of([0, 2, 0], spec) == [False, False, False]
        # ... while line 1 lives in set 1 and leaves line 0 resident.
        assert hits_of([0, 1, 0], spec) == [False, False, True]

    def test_lru_order(self):
        spec = tiny_spec(ways=2, sets=1)
        # After 0 1 0, line 1 is LRU, so 2 evicts it and 0 survives.
        assert hits_of([0, 1, 0, 2, 0, 1], spec) == [
            False, False, True, False, True, False,
        ]

    def test_access_many_matches_scalar(self):
        """The vector replay equals the per-access walk on a trace long
        enough to take the engine path."""
        stream = np.tile([0, 1, 2, 0, 3, 1, 0, 2, 5, 0], 8)
        spec = tiny_spec()
        assert np.array_equal(
            replay(stream, spec), replay(stream, spec, backend="reference")
        )

    def test_capacity_eviction(self):
        spec = tiny_spec(ways=2, sets=2)  # capacity 4 lines
        # A cyclic sweep over 8 lines thrashes LRU: every access misses.
        assert not any(hits_of(np.tile(np.arange(8), 2), spec))
        # Four lines fit: the second sweep hits throughout.
        assert hits_of(np.tile(np.arange(4), 2), spec) == [False] * 4 + [True] * 4

    def test_working_set_within_capacity_all_hits(self):
        stream = np.tile(np.arange(16), 5)
        hits = hits_of(stream, tiny_spec(ways=4, sets=4))  # 16 lines
        assert hits.count(False) == 16  # compulsory only
        assert hits.count(True) == 64

    def test_reset(self):
        """Every replay starts from an empty cache."""
        spec = tiny_spec()
        assert hits_of([0], spec) == [False]
        assert hits_of([0], spec) == [False]
