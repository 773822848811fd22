"""Preconditioner cache: hits skip setup entirely, capacity is a bound.

The authoritative witness that a hit skipped the work is the trace
collector — ``setup_fsai`` and friends open an ``fsai.setup`` span, so a
probe that returns from the cache must leave **no** such span behind,
only an ``fsai.cache_hit`` counter.
"""

import numpy as np
import pytest

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.collection.generators.fd import poisson2d
from repro.fsai.cache import (
    DEFAULT_CAPACITY,
    PreconditionerCache,
    cached_setup,
    default_cache,
)
from repro.sparse.construct import csr_from_dense


def _span_names(collector):
    names = []

    def walk(span):
        names.append(span.name)
        for child in span.children:
            walk(child)

    for root in collector.roots:
        walk(root)
    return names


def _spd(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return csr_from_dense(m @ m.T + n * np.eye(n))


class TestGetOrBuild:
    def test_hit_returns_same_object_without_building(self):
        cache = PreconditionerCache(capacity=4)
        a = _spd(8, 1)
        calls = []

        def build():
            calls.append(1)
            return object()

        first = cache.get_or_build(a, build, method="fsai")
        second = cache.get_or_build(a, build, method="fsai")
        assert second is first
        assert len(calls) == 1
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "size": 1, "capacity": 4,
        }

    def test_method_and_config_participate_in_key(self):
        cache = PreconditionerCache(capacity=8)
        a = _spd(8, 2)
        values = {
            ("fsai", None): object(),
            ("fsai", "lvl2"): object(),
            ("fsaie_sp", None): object(),
        }
        got_a = cache.get_or_build(
            a, lambda: values[("fsai", None)], method="fsai"
        )
        got_b = cache.get_or_build(
            a, lambda: values[("fsai", "lvl2")], method="fsai",
            config={"level": 2},
        )
        got_c = cache.get_or_build(
            a, lambda: values[("fsaie_sp", None)], method="fsaie_sp"
        )
        assert got_a is not got_b and got_a is not got_c
        assert cache.misses == 3
        # Same config in a different dict order is the same key.
        a2 = cache.get_or_build(
            a, lambda: object(), method="fsai",
            config={"level": 2},
        )
        assert a2 is got_b
        assert cache.hits == 1

    def test_different_matrices_do_not_collide(self):
        cache = PreconditionerCache(capacity=8)
        a, b = _spd(8, 3), _spd(8, 4)
        va = cache.get_or_build(a, object, method="fsai")
        vb = cache.get_or_build(b, object, method="fsai")
        assert va is not vb
        assert cache.get_or_build(a, object, method="fsai") is va

    def test_capacity_bound_evicts_lru(self):
        cache = PreconditionerCache(capacity=2)
        mats = [_spd(6, seed) for seed in range(5, 9)]
        built = [cache.get_or_build(m, object, method="fsai") for m in mats]
        assert len(cache) == 2  # never exceeds capacity
        assert cache.evictions == 2
        # The two most recent survive; the oldest were evicted.
        assert cache.get_or_build(mats[3], object, method="fsai") is built[3]
        assert cache.get_or_build(mats[2], object, method="fsai") is built[2]
        assert cache.get_or_build(mats[0], object, method="fsai") is not built[0]

    def test_hit_refreshes_recency(self):
        cache = PreconditionerCache(capacity=2)
        a, b, c = _spd(6, 10), _spd(6, 11), _spd(6, 12)
        va = cache.get_or_build(a, object, method="fsai")
        cache.get_or_build(b, object, method="fsai")
        cache.get_or_build(a, object, method="fsai")  # a is now most recent
        cache.get_or_build(c, object, method="fsai")  # evicts b, not a
        assert cache.get_or_build(a, object, method="fsai") is va
        assert cache.hits == 2  # the refresh plus this final probe

    def test_clear_drops_entries_keeps_counters(self):
        cache = PreconditionerCache(capacity=4)
        a = _spd(6, 13)
        cache.get_or_build(a, object, method="fsai")
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1
        cache.get_or_build(a, object, method="fsai")
        assert cache.misses == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            PreconditionerCache(capacity=0)

    def test_repr_mentions_occupancy(self):
        cache = PreconditionerCache(capacity=3)
        assert "0/3" in repr(cache)


class TestCachedSetup:
    def test_hit_skips_fsai_setup_span_entirely(self):
        """The trace collector proves a hit does no setup work."""
        cache = PreconditionerCache(capacity=4)
        a = poisson2d(8)
        with trace.collecting() as cold:
            setup = cached_setup(a, method="fsai", cache=cache)
        assert "fsai.setup" in _span_names(cold)
        assert cold.total_counters().get("fsai.cache_miss") == 1
        with trace.collecting() as warm:
            again = cached_setup(a, method="fsai", cache=cache)
        assert again is setup
        assert "fsai.setup" not in _span_names(warm)
        assert warm.total_counters().get("fsai.cache_hit") == 1
        assert "fsai.cache_miss" not in warm.total_counters()

    def test_kwargs_key_separation(self):
        cache = PreconditionerCache(capacity=8)
        a = poisson2d(6)
        base = cached_setup(a, method="fsai", cache=cache)
        filtered = cached_setup(a, method="fsai", cache=cache, threshold=0.1)
        assert base is not filtered
        assert cached_setup(a, method="fsai", cache=cache) is base
        assert (
            cached_setup(a, method="fsai", cache=cache, threshold=0.1)
            is filtered
        )

    def test_extended_methods_resolve(self):
        cache = PreconditionerCache(capacity=8)
        a = poisson2d(6)
        placement = ArrayPlacement.aligned(64)
        sp = cached_setup(a, method="fsaie_sp", cache=cache, placement=placement)
        assert sp.method == "fsaie_sp"
        # An equal placement (deterministic repr) is the same cache key.
        again = cached_setup(
            a, method="fsaie_sp", cache=cache,
            placement=ArrayPlacement.aligned(64),
        )
        assert again is sp

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown FSAI setup method"):
            cached_setup(poisson2d(4), method="cholesky")

    def test_default_cache_is_shared_and_bounded(self):
        shared = default_cache()
        assert shared.capacity == DEFAULT_CAPACITY
        a = _spd(6, 21)
        before = shared.misses
        v1 = shared.get_or_build(a, object, method="probe")
        v2 = shared.get_or_build(a, object, method="probe")
        assert v1 is v2
        assert shared.misses == before + 1

    def test_eviction_records_trace_counter(self):
        cache = PreconditionerCache(capacity=1)
        a, b = _spd(6, 22), _spd(6, 23)
        with trace.collecting() as collector:
            cache.get_or_build(a, object, method="fsai")
            cache.get_or_build(b, object, method="fsai")
        totals = collector.total_counters()
        assert totals.get("fsai.cache_evict") == 1
        assert totals.get("fsai.cache_miss") == 2


class TestPinsAndSeeding:
    """Seeding: a pool worker's respawn adopts factors built elsewhere."""

    def test_seed_is_idempotent_and_counts_as_neither_hit_nor_miss(self):
        cache = PreconditionerCache(capacity=4)
        key = ("f" * 64, "fsai", "-")
        first, second = object(), object()
        assert cache.seed(key, first) is True
        assert cache.seed(key, second) is False  # existing entry wins
        assert cache.entries()[key] is first
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_seeded_entry_is_returned_by_get_or_build(self):
        cache = PreconditionerCache(capacity=4)
        a = _spd(6, 36)
        sentinel = object()
        from repro.fsai.cache import config_key

        cache.seed((a.fingerprint(), "fsai", config_key(None)), sentinel)

        def explode():
            raise AssertionError("seeded key must not rebuild")

        assert cache.get_or_build(a, explode, method="fsai") is sentinel
