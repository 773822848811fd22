"""Vectorized LRU hit masks and stack distances.

The per-access ``OrderedDict`` walk in :mod:`repro.cachesim.cache` is exact
but pays interpreter cost for every access.  This module answers the same
questions offline, with NumPy passes over the whole trace, from the
classical stack property of LRU (Mattson et al., 1970):

    an access to a true-LRU cache **hits iff fewer than ``ways`` distinct
    lines of its set were touched since the previous access to the same
    line** (first touches miss).

Both engines rest on one identity.  Let ``p = prev[t]`` be the previous
occurrence of access ``t``'s line.  The distinct lines touched in the
window ``(p, t)`` correspond one to one with the positions ``u`` of the
window that have ``prev[u] <= p``: the first touch of each line inside the
window.

* :func:`lru_hits` — the hit mask of one cold set-associative replay.  It
  only needs to know whether a window holds ``ways`` distinct lines, so it
  scans every window forward in doubling blocks and stops at the
  ``ways``-th distinct line: O(N·ways) work (:func:`_window_hits`).
  :func:`repro.cachesim.cache.replay` is its caller.
* :func:`stack_distances_vectorized` — the exact fully-associative stack
  distance of every access, which the miss-ratio profiler
  (:mod:`repro.cachesim.stackdist`) needs at every capacity at once: a
  vectorized bottom-up merge count (:func:`count_leq_before`),
  O(N log² N) work.

Both drop immediate repeats first.  An access repeating its predecessor has
distance 0 (a hit) and is a non-first touch in every window containing it,
so it counts toward no one's distinct lines; SpMV traces are 50–75 %
immediate repeats (consecutive nonzeros share matrix, index and vector
lines).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "count_leq_before",
    "previous_occurrence",
    "stack_distances_vectorized",
    "lru_hits",
]

#: Most elements one ``(accesses × block)`` scan array may hold: each pass
#: processes its active accesses in chunks of ``_SCAN_BUDGET // block``
#: rows, and blocks stop doubling at this width, so the scan's memory does
#: not grow with ``ways`` or with the trace.
_SCAN_BUDGET = 1 << 18

#: Multiplying a word of eight 0/1 bytes by this sums them into its top
#: byte (a SWAR byte count).
_BYTE_SUM = np.uint64(0x0101010101010101)
_TOP_BYTE = np.uint64(56)


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
    prev[order[1:]] = np.where(grouped[1:] == grouped[:-1], order[:-1], -1)
    return prev


def _first_of_runs(lines: np.ndarray) -> np.ndarray:
    """Positions whose line differs from the previous position's."""
    keep = np.empty(len(lines), dtype=bool)
    keep[:1] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return np.flatnonzero(keep)


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


def stack_distances_vectorized(lines: np.ndarray) -> np.ndarray:
    """Fully-associative LRU stack distance of every access (``-1`` = ∞).

    Immediate repeats get distance 0 and are dropped before the merge
    count, which then runs on the remaining accesses only.
    """
    lines = np.asarray(lines, dtype=np.int64)
    kept = _first_of_runs(lines)
    distances = np.zeros(len(lines), dtype=np.int64)
    distances[kept] = _distances_from_prev(previous_occurrence(lines[kept]))
    return distances


def lru_hits(lines: np.ndarray, n_sets: int, ways: int) -> np.ndarray:
    """Hit mask of ``lines`` through a cold true-LRU ``n_sets × ways`` cache.

    The set of access ``k`` is ``lines[k] mod n_sets``.  One stable radix
    sort on a ``np.min_scalar_type(n_sets - 1)`` key (8 or 16 bits for any
    real cache) groups the trace by set, each set's accesses in program
    order, so every window lies inside one group.  Immediate repeats are
    hits and are dropped; :func:`_window_hits` decides the rest.
    """
    lines = np.asarray(lines, dtype=np.int64)
    order = np.argsort(
        (lines % n_sets).astype(np.min_scalar_type(n_sets - 1)), kind="stable"
    )
    grouped = lines[order]
    kept = _first_of_runs(grouped)
    missed = kept[~_window_hits(previous_occurrence(grouped[kept]), ways)]
    hits = np.ones(len(lines), dtype=bool)
    hits[order[missed]] = False
    return hits


def _window_hits(prev: np.ndarray, ways: int) -> np.ndarray:
    """Hit mask of a trace without immediate repeats, from ``prev`` alone.

    ``prev`` is :func:`previous_occurrence` of a set-grouped trace, so a
    window never leaves its set's group.  Access ``t`` with ``p = prev[t]``
    hits iff fewer than ``ways`` positions ``u ∈ (p, t)`` have
    ``prev[u] <= p``.  A window shorter than ``ways`` is a hit outright.
    Every other window is scanned forward from ``p + 1``, all windows at
    once, in blocks: the first block is ``ways`` wide and each pass doubles
    it (up to ``_SCAN_BUDGET``), so a trace takes O(log N) passes.  A scan
    stops as a miss once it has counted ``ways`` first touches, or as a hit
    at its window's end.

    Work is O(N·ways).  Consider the scans that reach one position ``x``,
    ordered by start, and the earliest one, over window ``(p₀, t₀)``.
    Every later scan starts at ``p_j ∈ (p₀, x)``, an access to its own
    line; the windows of one line are disjoint, so these lines differ from
    each other and from ``t₀``'s line, and each appears in ``(p₀, x)``.
    The earliest scan reached ``x``, so ``(p₀, x)`` holds fewer than
    ``ways`` distinct lines: at most ``ways`` scans reach any position.
    Doubling blocks overshoot a scan's stop by less than what the scan had
    read before its last block, plus ``ways``, which keeps the bound.
    """
    m = len(prev)
    hits = prev >= 0
    active = np.flatnonzero(hits & (np.arange(m) - prev > ways))
    if not active.size:
        return hits
    # Row ``s`` of the strided view below is the block starting at ``s``:
    # one contiguous copy per block, no index array.  The zero tail lets a
    # block run past the trace's end; like every position past a window's
    # end, it is masked out.
    padded = np.zeros(m + min(m, _SCAN_BUDGET), dtype=np.int64)
    padded[:m] = prev
    thr = prev[active]
    start = thr + 1
    count = np.zeros(len(active), dtype=np.int64)
    width = min(ways, _SCAN_BUDGET)
    while active.size:
        view = as_strided(
            padded, (m, width), (padded.itemsize,) * 2, writeable=False
        )
        rows = max(1, _SCAN_BUDGET // width)
        for lo in range(0, len(active), rows):
            part = slice(lo, lo + rows)
            count[part] += _first_touches(
                view, start[part], active[part], thr[part]
            )
        start += width
        miss = count >= ways
        hits[active[miss]] = False
        going = ~miss & (start < active)
        active, thr = active[going], thr[going]
        start, count = start[going], count[going]
        # An active window is longer than everything scanned so far, so
        # a block never needs more than ``m`` positions.
        width = min(2 * width, _SCAN_BUDGET, m)
    return hits


def _first_touches(
    view: np.ndarray, start: np.ndarray, stop: np.ndarray, thr: np.ndarray
) -> np.ndarray:
    """``#{u ∈ [start, min(start + width, stop)) : prev[u] <= thr}`` per row.

    ``view`` is the strided window view of the padded ``prev``, one
    ``width``-position block per start; ``thr`` is each row's ``p`` and
    ``stop`` its ``t``.  The flags are padded to whole 8-byte words, and
    each word's 0/1 bytes are added by one SWAR multiply: a row sum over
    eight times fewer elements, which matters for the short rows of the
    first passes.
    """
    width = view.shape[1]
    flags = np.zeros((len(start), -(-width // 8) * 8), dtype=bool)
    below = flags[:, :width]
    np.less_equal(view[start], thr[:, None], out=below)
    limit = stop - start
    if (limit < width).any():  # blocks running past their window's end
        below &= np.arange(width) < limit[:, None]
    per_word = (flags.view(np.uint64) * _BYTE_SUM) >> _TOP_BYTE
    return per_word.sum(axis=1, dtype=np.int64)
