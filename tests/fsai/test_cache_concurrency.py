"""Concurrent preconditioner-cache access: single-flight and racing evictions.

The serving dispatcher shares one :class:`PreconditionerCache` between
its solver thread and arbitrarily many submitters, so the cache's
concurrency contract is load-bearing: concurrent misses on one key must
coalesce into a single build, a failed leader must not strand waiters,
and evictions racing an in-flight batch must never corrupt results or
deadlock.  These tests force each interleaving with events rather than
sleeps wherever the ordering can be made deterministic.
"""

import threading
import time

import numpy as np

from repro.fsai.cache import PreconditionerCache
from repro.collection.generators.fd import poisson2d
from repro.serve import InProcessClient, SolverService
from repro.serve.client import _as_stream
from repro.solvers.cg import pcg
from repro.sparse.construct import csr_from_dense

JOIN_TIMEOUT = 30.0


def _spd(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return csr_from_dense(m @ m.T + n * np.eye(n))


def _join_all(threads):
    for thread in threads:
        thread.join(JOIN_TIMEOUT)
    assert not any(t.is_alive() for t in threads), "thread deadlocked"


class TestSingleFlight:
    def test_concurrent_misses_coalesce_into_one_build(self):
        cache = PreconditionerCache(capacity=4)
        a = _spd(8, 1)
        build_entered = threading.Event()
        release_build = threading.Event()
        calls = []

        def build():
            calls.append(1)
            build_entered.set()
            assert release_build.wait(JOIN_TIMEOUT)
            return "setup"

        results = []

        def probe():
            results.append(cache.get_or_build(a, build, method="fsai"))

        threads = [threading.Thread(target=probe) for _ in range(5)]
        threads[0].start()
        assert build_entered.wait(JOIN_TIMEOUT)
        for thread in threads[1:]:
            thread.start()
        # All four latecomers must park on the leader's event before it
        # is released (coalesced is bumped under the lock pre-wait).
        deadline = time.monotonic() + JOIN_TIMEOUT
        while cache.coalesced < 4 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert cache.coalesced == 4
        release_build.set()
        _join_all(threads)
        assert calls == [1]
        assert results == ["setup"] * 5
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 4
        assert stats["coalesced"] == 4

    def test_failed_leader_does_not_strand_waiters(self):
        cache = PreconditionerCache(capacity=4)
        a = _spd(8, 2)
        leader_entered = threading.Event()
        release_leader = threading.Event()
        calls = []
        outcome = {}

        def failing_build():
            calls.append("leader")
            leader_entered.set()
            assert release_leader.wait(JOIN_TIMEOUT)
            raise RuntimeError("leader build failed")

        def leader():
            try:
                cache.get_or_build(a, failing_build, method="fsai")
            except RuntimeError as exc:
                outcome["leader"] = exc

        def retry_build():
            calls.append("waiter")
            return "rebuilt"

        def waiter():
            outcome["waiter"] = cache.get_or_build(a, retry_build, method="fsai")

        t_leader = threading.Thread(target=leader)
        t_leader.start()
        assert leader_entered.wait(JOIN_TIMEOUT)
        t_waiter = threading.Thread(target=waiter)
        t_waiter.start()
        deadline = time.monotonic() + JOIN_TIMEOUT
        while cache.coalesced < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert cache.coalesced == 1
        release_leader.set()
        _join_all([t_leader, t_waiter])
        # The leader's exception propagated to the leader only; the
        # waiter retried, became the new leader and built successfully.
        assert isinstance(outcome["leader"], RuntimeError)
        assert outcome["waiter"] == "rebuilt"
        assert calls == ["leader", "waiter"]
        assert cache.stats()["misses"] == 2

    def test_distinct_keys_build_concurrently(self):
        """One key's slow build must not serialize other keys behind it."""
        cache = PreconditionerCache(capacity=4)
        a, b = _spd(8, 3), _spd(8, 4)
        slow_entered = threading.Event()
        release_slow = threading.Event()

        def slow_build():
            slow_entered.set()
            assert release_slow.wait(JOIN_TIMEOUT)
            return "slow"

        def run_slow():
            cache.get_or_build(a, slow_build, method="fsai")

        t_slow = threading.Thread(target=run_slow)
        t_slow.start()
        assert slow_entered.wait(JOIN_TIMEOUT)
        # While A's build is in flight, B must complete immediately.
        fast = cache.get_or_build(b, lambda: "fast", method="fsai")
        assert fast == "fast"
        release_slow.set()
        _join_all([t_slow])
        assert cache.stats()["misses"] == 2
        assert cache.stats()["coalesced"] == 0


class TestEvictionRaces:
    def test_eviction_storm_keeps_results_correct(self):
        """Hammer a capacity-1 cache from many threads over many keys.

        Every get_or_build must return the value built for *its* key no
        matter how aggressively other keys evict it, and the counters
        must stay consistent (every probe is a hit, a miss or a
        coalesced wait that resolves through the loop).
        """
        cache = PreconditionerCache(capacity=1)
        mats = [_spd(6, seed) for seed in range(10, 14)]
        rounds = 25
        errors = []

        def worker(index):
            a = mats[index % len(mats)]
            expected = f"setup-{index % len(mats)}"
            for _ in range(rounds):
                got = cache.get_or_build(
                    a, lambda: expected, method="fsai"
                )
                if got != expected:
                    errors.append((expected, got))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        _join_all(threads)
        assert errors == []
        stats = cache.stats()
        assert stats["size"] <= 1
        assert stats["evictions"] > 0
        assert stats["hits"] + stats["misses"] == 8 * rounds

    def test_eviction_racing_in_flight_batches_through_service(self):
        """Interleaved async requests against a capacity-1 shared cache.

        Two operators round-robin through the dispatcher while the cache
        can hold only one setup, so every batch's ``cached_setup`` races
        the eviction triggered by the *other* operator's batch.  Served
        solutions must still match a direct PCG solve, and the service
        must drain cleanly (no deadlock between the solver thread and
        admission).
        """
        cache = PreconditionerCache(capacity=1)
        mats = [poisson2d(8), poisson2d(10)]
        rng = np.random.default_rng(7)
        blocks = [rng.standard_normal((6, a.n_rows)) for a in mats]
        # max_batch=2 splits the stream into many small alternating
        # batches instead of one window swallowing everything, so the
        # two operators keep evicting each other mid-flight.
        service = SolverService(
            cache=cache, window_seconds=0.002, max_batch=2,
            queue_capacity=64,
        )
        with InProcessClient(service=service) as client:
            fps = [client.register(a) for a in mats]
            stream = _as_stream(fps, blocks)
            results = client.solve_many(stream, rtol=1e-10)
        assert all(r.converged for r in results)
        # Spot-check a solution per operator against the direct solver.
        by_fp = dict(zip(fps, mats))
        for (fp, rhs), served in zip(stream, results):
            a = by_fp[fp]
            direct = pcg(a, rhs, rtol=1e-10)
            np.testing.assert_allclose(
                served.x, direct.x, rtol=1e-6, atol=1e-8
            )
        stats = cache.stats()
        assert stats["size"] <= 1
        # The alternating operators force misses beyond the first two
        # and evictions while batches are in flight.
        assert stats["evictions"] > 0
        assert stats["misses"] > len(mats)
