"""LRU cache for FSAI setups keyed on matrix content.

FSAI setup is the expensive half of every solve (pattern construction,
many small dense factorizations, optional precalculation), yet a serving
workload — "heavy traffic from millions of users" in the ROADMAP's terms
— repeatedly solves against the *same* operator with fresh right-hand
sides.  This module makes the second and later requests skip setup
entirely: a bounded LRU keyed by

``(matrix fingerprint, method, config hash)``

where the fingerprint is :meth:`repro.sparse.csr.CSRMatrix.fingerprint`
(SHA-256 over dimensions, structure and values, cached on the matrix) and
the config hash canonicalises the setup keyword arguments, so the same
matrix under different levels/filters caches separately.

Observability: every probe records a ``fsai.cache_hit`` or
``fsai.cache_miss`` trace counter (evictions record ``fsai.cache_evict``)
— see ``docs/tracing.md``.  A hit returns the stored setup without
invoking the builder, so **no** ``fsai.setup`` span is opened; the trace
collector is therefore the authoritative witness that setup was skipped,
which is exactly how ``tests/fsai/test_cache.py`` asserts it.

Thread-safety: probes and insertions hold a lock, so a cache instance may
be shared across threads.  Builds are **single-flight**: when several
threads miss the same key concurrently, one (the leader) runs the
builder while the rest wait on a per-key event and then re-probe; the
waiters count as ``coalesced`` (plus a ``fsai.cache_coalesce`` trace
counter) and resolve to hits without duplicating setup work.  This is
what lets the serving dispatcher share one cache across its solver
thread and any number of callers.  The campaign orchestrator's
*process*-based workers each see their own cache (nothing is shared
through fork), which is the intended isolation.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro import trace
from repro.sparse.csr import CSRMatrix

__all__ = [
    "PreconditionerCache",
    "cached_setup",
    "config_key",
    "default_cache",
]

#: Default bound: a campaign touches a handful of operators at a time;
#: each cached setup holds a factor of roughly the matrix's size, so the
#: bound is deliberately small rather than "as much as fits".
DEFAULT_CAPACITY = 8


def config_key(config: Optional[Dict[str, Any]]) -> str:
    """Canonical hash of the setup kwargs (order-insensitive, stable).

    Public because the multi-process pool (:mod:`repro.serve.pool`) must
    reconstruct the exact cache key ``(fingerprint, method, config_key)``
    when seeding a respawned worker's cache from a published factor.
    """
    payload = json.dumps(config or {}, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()



class PreconditionerCache:
    """Bounded LRU of built FSAI setups, keyed on matrix content.

    Parameters
    ----------
    capacity:
        Maximum number of cached setups; inserting beyond it evicts the
        least-recently-used entry.  Must be positive.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Tuple[str, str, str], Any]" = OrderedDict()
        self._lock = threading.Lock()
        #: In-flight builds: key -> event set when the leader finishes
        #: (successfully or not).  Guarded by ``_lock``.
        self._pending: Dict[Tuple[str, str, str], threading.Event] = {}
        #: Eviction pins: matrix fingerprint -> live attachment count.
        #: An entry whose fingerprint is pinned is never evicted — workers
        #: hold zero-copy shared-memory views into its operator, and LRU
        #: pressure must not invalidate them.  Guarded by ``_lock``.
        self._pins: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.coalesced = 0
        self.deferred_evictions = 0

    def get_or_build(
        self,
        a: CSRMatrix,
        build: Callable[[], Any],
        *,
        method: str,
        config: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Return the cached setup for ``(a, method, config)``, building on miss.

        ``build`` is only invoked on a miss — a hit therefore opens no
        ``fsai.setup`` span and does no setup work at all.  The built
        value is stored as-is (setups are treated as immutable; callers
        must not mutate a cached factor in place).

        Concurrent misses on the same key are single-flight: the first
        thread builds, the rest block on a per-key event and re-probe
        when it completes, counting as ``coalesced`` + ``hits`` rather
        than duplicate ``misses``.  If the leader's builder raises (or
        the entry is evicted between insertion and wake-up), a waiter
        retries from the top and becomes the new leader — waiting never
        returns a stale or missing entry.
        """
        key = (a.fingerprint(), method, config_key(config))
        while True:
            with self._lock:
                entry = self._entries.get(key, None)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    trace.add_counter("fsai.cache_hit")
                    return entry
                pending = self._pending.get(key, None)
                if pending is None:
                    # Leader: claim the key before releasing the lock so
                    # every other thread arriving for it parks below.
                    self._pending[key] = threading.Event()
                    self.misses += 1
                    break
                self.coalesced += 1
            # Waiter: the build is already in flight on another thread.
            trace.add_counter("fsai.cache_coalesce")
            pending.wait()
            # Re-probe from the top: the usual wake-up finds the entry
            # and returns it as a hit; if the leader failed or the entry
            # was already evicted, the loop elects a new leader.

        # Build outside the lock: setup is the expensive part and must
        # not serialize unrelated keys behind it.
        trace.add_counter("fsai.cache_miss")
        try:
            value = build()
        except BaseException:
            self._finish(key)
            raise
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._evict_over_capacity_locked()
        self._finish(key)
        return value

    def _evict_over_capacity_locked(self) -> None:
        """Evict LRU-first down to capacity, skipping pinned fingerprints.

        When every over-capacity candidate is pinned, eviction is
        *deferred*: the cache temporarily exceeds its bound rather than
        invalidating a worker's live shared-memory views, and
        :meth:`unpin` re-enforces the bound on the last detach.
        """
        while len(self._entries) > self.capacity:
            victim = next(
                (k for k in self._entries if k[0] not in self._pins), None
            )
            if victim is None:
                self.deferred_evictions += 1
                trace.add_counter("fsai.cache_evict_deferred")
                return
            del self._entries[victim]
            self.evictions += 1
            trace.add_counter("fsai.cache_evict")

    # ------------------------------------------------------------------
    # Shared-memory attachment pins (see repro.serve.shm / .pool)
    # ------------------------------------------------------------------
    def pin(self, fingerprint: str) -> None:
        """Protect every entry of ``fingerprint`` from eviction (refcounted)."""
        with self._lock:
            self._pins[fingerprint] = self._pins.get(fingerprint, 0) + 1

    def unpin(self, fingerprint: str) -> None:
        """Drop one pin; the last unpin re-enforces the capacity bound."""
        with self._lock:
            refs = self._pins.get(fingerprint, 0) - 1
            if refs > 0:
                self._pins[fingerprint] = refs
            else:
                self._pins.pop(fingerprint, None)
                self._evict_over_capacity_locked()

    def pin_count(self, fingerprint: str) -> int:
        with self._lock:
            return self._pins.get(fingerprint, 0)

    # ------------------------------------------------------------------
    # Cross-process factor adoption (see repro.serve.pool)
    # ------------------------------------------------------------------
    def seed(self, key: Tuple[str, str, str], value: Any) -> bool:
        """Insert a pre-built setup under an explicit key; True if stored.

        Used by pool workers to adopt a factor another process already
        built and published into the shared store — the cross-process
        leg of the single-flight contract: the key is built once
        anywhere, then seeded everywhere.  Idempotent: an existing entry
        wins and ``False`` is returned.
        """
        with self._lock:
            if key in self._entries:
                return False
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._evict_over_capacity_locked()
            return True

    def entries(self) -> "Dict[Tuple[str, str, str], Any]":
        """Point-in-time snapshot of cached ``key -> setup`` pairs."""
        with self._lock:
            return dict(self._entries)

    def _finish(self, key: Tuple[str, str, str]) -> None:
        """Release waiters parked on ``key`` (leader done, well or badly)."""
        with self._lock:
            event = self._pending.pop(key, None)
        if event is not None:
            event.set()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counts plus current occupancy."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "deferred_evictions": self.deferred_evictions,
                "coalesced": self.coalesced,
                "pinned": len(self._pins),
                "size": len(self._entries),
                "capacity": self.capacity,
            }

    def clear(self) -> None:
        """Drop every entry (counters are kept — they describe history)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"PreconditionerCache(size={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_DEFAULT_CACHE = PreconditionerCache()


def default_cache() -> PreconditionerCache:
    """The module-level cache :func:`cached_setup` uses by default."""
    return _DEFAULT_CACHE


def cached_setup(
    a: CSRMatrix,
    *,
    method: str = "fsai",
    cache: Optional[PreconditionerCache] = None,
    **kwargs: Any,
) -> Any:
    """FSAI setup through the cache: build once per (matrix, method, kwargs).

    ``method`` names any method in the registry
    (:func:`repro.fsai.registry.available_methods`): the local setups of
    :mod:`repro.fsai.extended` and the global iterative routes of
    :mod:`repro.fsai.global_iter` alike; ``kwargs`` are forwarded to the
    builder verbatim and participate in the cache key.  Unknown names
    raise :class:`~repro.errors.ConfigurationError` (a ``ValueError``).
    """
    from repro.fsai.registry import get_method

    spec = get_method(method)
    target = cache if cache is not None else _DEFAULT_CACHE
    return target.get_or_build(
        a, lambda: spec.builder(a, **kwargs), method=method, config=kwargs,
    )
