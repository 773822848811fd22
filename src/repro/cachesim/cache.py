"""Cold true-LRU replay of one cache-line trace.

The simulator works at cache-line granularity: callers translate element
accesses to line ids (via :mod:`repro.arch.cacheline`) and replay the
line-id stream through :func:`replay`.  It returns the hit mask of one
pass through a set-associative cache with true-LRU replacement that starts
empty — all the Figure 3 metric and the roofline cost model need.

Two backends return bit-identical masks:

* ``"vector"`` (default) — :func:`repro.cachesim.engine.lru_hits`: an
  access hits iff fewer than ``ways`` distinct lines of its set were
  touched since its line's previous access (the LRU stack property),
  decided by a bounded forward scan of every window at once — O(N·ways)
  work in O(log N) vectorized passes instead of O(N) dict operations.
* ``"reference"`` — the per-access ``OrderedDict`` walk (O(1) LRU updates,
  the fastest pure-Python structure for this pattern).  Kept as the
  oracle the property tests compare the engine against.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.arch.machine import CacheLevelSpec
from repro.cachesim.engine import lru_hits
from repro.errors import ConfigurationError

__all__ = ["CACHE_BACKENDS", "replay"]

#: Recognised ``backend=`` values of :func:`replay`.
CACHE_BACKENDS = ("vector", "reference")


def replay(
    lines: np.ndarray, spec: CacheLevelSpec, *, backend: str = "vector"
) -> np.ndarray:
    """Hit mask of ``lines`` replayed through a cold ``spec`` cache.

    Line ids are arbitrary integers (virtual address // line size); the
    set index is ``line_id mod spec.n_sets``, matching the index-bit
    slicing of physically- and virtually-indexed caches for our aligned
    line ids.  Entry ``k`` of the result is True iff access ``k`` hit.
    """
    if backend not in CACHE_BACKENDS:
        raise ConfigurationError(
            f"unknown cache backend {backend!r}; expected one of {CACHE_BACKENDS}"
        )
    lines = np.asarray(lines, dtype=np.int64)
    if backend == "reference":
        return _replay_reference(lines, spec.n_sets, spec.associativity)
    return lru_hits(lines, spec.n_sets, spec.associativity)


def _replay_reference(lines: np.ndarray, n_sets: int, ways: int) -> np.ndarray:
    """Per-access ``OrderedDict`` walk (the oracle)."""
    hits = np.empty(len(lines), dtype=bool)
    sets = [OrderedDict() for _ in range(n_sets)]
    for k, line in enumerate(lines.tolist()):
        s = sets[line % n_sets]
        if line in s:
            s.move_to_end(line)
            hits[k] = True
        else:
            s[line] = None
            if len(s) > ways:
                s.popitem(last=False)
            hits[k] = False
    return hits
