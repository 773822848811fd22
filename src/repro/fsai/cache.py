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
be shared across threads.  Builds run outside the lock, so one key's
setup never blocks a probe of another.  Nothing coordinates concurrent
misses on one key: each builds, and the later insertion replaces the
earlier (equal) setup.  No library path does that — the serving
dispatcher builds every setup on its one thread, and the pool shards
operators by fingerprint, so each key has exactly one builder.  The
campaign orchestrator's *process*-based workers each see their own cache
(nothing is shared through fork), which is the intended isolation.
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

    Public because the key is the cache's whole identity: the
    multi-process pool (:mod:`repro.serve.pool`) keeps built factors
    under it and seeds a respawned worker's cache with them.
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
        self.hits = 0
        self.misses = 0
        self.evictions = 0

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
        must not mutate a cached factor in place).  A builder that raises
        stores nothing.
        """
        key = (a.fingerprint(), method, config_key(config))
        with self._lock:
            entry = self._entries.get(key, None)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                trace.add_counter("fsai.cache_hit")
                return entry
            self.misses += 1
        trace.add_counter("fsai.cache_miss")
        value = build()
        with self._lock:
            self._insert_locked(key, value)
        return value

    def seed(self, key: Tuple[str, str, str], value: Any) -> bool:
        """Insert a pre-built setup under an explicit key; True if stored.

        A respawned pool worker seeds the factors its predecessor built
        (see :mod:`repro.serve.pool`), so its first request hits.
        Idempotent: an existing entry wins and ``False`` is returned.
        """
        with self._lock:
            if key in self._entries:
                return False
            self._insert_locked(key, value)
            return True

    def _insert_locked(self, key: Tuple[str, str, str], value: Any) -> None:
        """Store ``value`` as most recent, evicting LRU-first to capacity."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            trace.add_counter("fsai.cache_evict")

    def entries(self) -> "Dict[Tuple[str, str, str], Any]":
        """Point-in-time snapshot of cached ``key -> setup`` pairs."""
        with self._lock:
            return dict(self._entries)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counts plus current occupancy."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
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
