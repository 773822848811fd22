"""Vectorized per-set LRU stack distances.

The per-access ``OrderedDict`` walk in :mod:`repro.cachesim.cache` is exact
but pays interpreter cost for every access.  This module computes the same
hit mask *offline* with sort/group-based NumPy primitives, exploiting the
classical stack property of LRU (Mattson et al., 1970):

    an access to a true-LRU set-associative cache **hits iff its per-set
    stack distance is < ways**,

where the per-set stack distance is the number of *distinct* lines mapped to
the same set that were touched since the previous access to the same line
(infinite for first touches).

The pipeline is allocation-bound rather than interpreter-bound:

1. group the trace by set with one stable argsort (``line mod n_sets``);
2. find each access's previous occurrence with a second stable argsort;
3. count, for every access ``t`` with previous occurrence ``p``, the
   "first-in-window" accesses in ``(p, t)`` — accesses ``u`` with
   ``prev[u] <= p`` — via a vectorized bottom-up merge count
   (:func:`count_leq_before`); the count minus ``p + 1`` is the distance.

Step 3 works on the *whole* set-grouped trace at once: because every access
``u`` satisfies ``prev[u] < u``, all accesses of earlier set groups are
counted by both terms of the difference and cancel exactly (see
``docs/simulation_model.md`` §3a for the algebra).

Everything here is a pure function of the trace:
:func:`repro.cachesim.cache.replay` turns :func:`set_stack_distances` into
the hit mask of one cold-cache replay, and
:mod:`repro.cachesim.stackdist` profiles :func:`stack_distances_vectorized`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "count_leq_before",
    "previous_occurrence",
    "stack_distances_vectorized",
    "set_stack_distances",
]


def count_leq_before(values: np.ndarray) -> np.ndarray:
    """For each position ``j``: ``#{u < j : values[u] <= values[j]}``.

    Vectorized bottom-up merge count.  Each level sorts sibling blocks as
    rows of one 2-D array (NumPy sorts rows in C, across all blocks at
    once); within a merged pair, a right-block element's merged rank minus
    its rank inside the right block is exactly the number of left-block
    elements ``<=`` it, and left blocks hold strictly earlier positions by
    construction.  O(n log² n) work, O(log n) Python steps.

    Indexing is kept flat on purpose: ``take_along_axis`` /
    ``put_along_axis`` spend more time in their Python-level index
    plumbing than in the copy for these block sizes, so ranks are
    scattered and permutations gathered through one precomputed flat
    index per level.  Rows past the last real element hold only sentinel
    padding (already sorted, counts discarded), so each level processes
    just the prefix of rows that contain data.
    """
    values = np.asarray(values)
    n = len(values)
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    size = 1 << int(n - 1).bit_length()
    counts = np.zeros(size, dtype=np.int64)  # sentinel tail discarded at return
    vals = np.empty(size, dtype=np.int64)
    vals[:n] = values
    vals[n:] = values.max() + 1  # sentinel: never <= any real value
    orig = np.arange(size, dtype=np.int64)
    ranks = np.empty(size, dtype=np.int64)
    pos = np.arange(size, dtype=np.int64)
    half = 1
    while half < size:
        width = 2 * half
        active = -(-n // width)  # rows holding at least one real element
        lim = active * width
        order = np.argsort(
            vals[:lim].reshape(active, width), axis=1, kind="stable"
        )
        flat = order + np.arange(0, lim, width, dtype=np.int64)[:, None]
        flat = flat.ravel()
        ranks[flat] = pos[:lim] & (width - 1)  # merged rank within each row
        # Right-half queries: merged rank − rank within the right half.
        # Each original position appears exactly once per level, so plain
        # fancy-index accumulation is safe (no duplicate targets).
        counts[orig[:lim].reshape(active, width)[:, half:]] += (
            ranks[:lim].reshape(active, width)[:, half:] - pos[:half]
        )
        vals[:lim] = vals[flat]
        orig[:lim] = orig[flat]
        half = width
    return counts[:n]


def previous_occurrence(lines: np.ndarray) -> np.ndarray:
    """Index of the previous access to the same line (``-1`` at first touch)."""
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = np.argsort(lines, kind="stable")
    grouped = lines[order]
    same = grouped[1:] == grouped[:-1]
    prev_in_order = np.full(n, -1, dtype=np.int64)
    prev_in_order[1:][same] = order[:-1][same]
    prev[order] = prev_in_order
    return prev


def _distances_from_prev(prev: np.ndarray) -> np.ndarray:
    """Stack distances given previous-occurrence indices (``-1`` first touch).

    ``sd[t] = #{u in (p, t) : prev[u] <= p} = #{u < t : prev[u] <= p} − (p+1)``
    — the subtracted block ``u <= p`` is counted entirely because
    ``prev[u] < u <= p`` always holds.  Since the query value at ``t`` is
    ``prev[t]`` itself, the remaining count is :func:`count_leq_before` on
    the ``prev`` array.
    """
    counted = count_leq_before(prev)
    return np.where(prev >= 0, counted - prev - 1, np.int64(-1))


def _collapsed_distances(grouped: np.ndarray) -> np.ndarray:
    """Stack distances of a (set-grouped) trace, collapsing immediate repeats.

    An access that repeats its predecessor (within the group) has distance
    exactly 0, and — being a *non*-first touch inside any window that
    contains it — is never counted towards anyone else's distinct-line
    total.  Dropping such accesses before the O(n log² n) merge count
    therefore changes nothing, while real SpMV traces are 50–75 %
    immediate repeats (spatial locality: consecutive nonzeros share
    matrix/index/vector lines).
    """
    n = len(grouped)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=keep[1:])
    if keep.all():
        return _distances_from_prev(previous_occurrence(grouped))
    sd = np.zeros(n, dtype=np.int64)
    compressed = grouped[keep]
    sd[keep] = _distances_from_prev(previous_occurrence(compressed))
    return sd


def stack_distances_vectorized(lines: np.ndarray) -> np.ndarray:
    """Fully-associative LRU stack distance of every access (``-1`` = ∞)."""
    lines = np.asarray(lines, dtype=np.int64)
    return _collapsed_distances(lines)


def set_stack_distances(
    lines: np.ndarray, n_sets: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-set stack distance of every access of a set-indexed cache.

    Returns ``(distances, sets)`` aligned with the input trace; the set of
    access ``k`` is ``lines[k] mod n_sets``.  With the trace stably grouped
    by set, the fully-associative formula applies unchanged: accesses of
    other groups cancel between the window count and the ``p + 1``
    correction because ``prev[u] < u`` everywhere.
    """
    lines = np.asarray(lines, dtype=np.int64)
    sets = lines % n_sets
    if n_sets == 1:
        return _collapsed_distances(lines), sets
    order = np.argsort(sets, kind="stable")
    sd_grouped = _collapsed_distances(lines[order])
    distances = np.empty(len(lines), dtype=np.int64)
    distances[order] = sd_grouped
    return distances, sets
