"""Random pattern extension at matched entry counts (paper §7.3 baseline).

Figures 3 and 4 compare the cache-friendly extension against a *randomly*
extended pattern with the **same number of added entries** per matrix.  The
random extension draws, for each row, the same number of new columns the
cache-friendly extension added to that row, uniformly from the row's
admissible (and absent) column range.  Matching per-row counts keeps the
iteration-cost comparison exact while isolating *placement* as the only
difference — precisely the paper's ablation.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.errors import ShapeError
from repro.sparse.pattern import Pattern

__all__ = ["extend_pattern_random"]


def extend_pattern_random(
    base: Pattern,
    n_new_per_row: np.ndarray,
    *,
    triangular: Literal["lower", "upper", "none"] = "lower",
    seed: int = 0,
) -> Pattern:
    """Extend ``base`` with ``n_new_per_row[i]`` random admissible columns.

    Rows whose admissible free column set is smaller than the requested
    count receive all free columns (the shortfall is reported by comparing
    nnz — experiment code logs it; in practice FE-like rows never saturate).
    """
    counts = np.asarray(n_new_per_row, dtype=np.int64)
    if len(counts) != base.n_rows:
        raise ShapeError("n_new_per_row must have one entry per row")
    if np.any(counts < 0):
        raise ValueError("requested extension counts must be non-negative")
    base_rows, base_cols = base.coo()

    # Admissible column window [lo, hi) per requesting row (``want > 0``).
    req = np.flatnonzero(counts > 0)
    if triangular == "lower":
        lo, hi = np.zeros(len(req), dtype=np.int64), req + 1
    elif triangular == "upper":
        lo, hi = req.copy(), np.full(len(req), base.n_cols, dtype=np.int64)
    else:
        lo = np.zeros(len(req), dtype=np.int64)
        hi = np.full(len(req), base.n_cols, dtype=np.int64)

    # The base entries inside each window, in CSR order.  Entry j of a
    # row, at column b_j, has ``adj_j = b_j - lo - j`` free columns before
    # it, so the free column of rank r is ``lo + r + #{j : adj_j <= r}``:
    # a rank maps to its column with one searchsorted, and no window is
    # ever materialised.
    slot = np.full(base.n_rows, -1, dtype=np.int64)
    slot[req] = np.arange(len(req))
    owner = slot[base_rows]  # requesting row of each base entry, or -1
    inside = owner >= 0
    inside[inside] = (base_cols[inside] >= lo[owner[inside]]) & (
        base_cols[inside] < hi[owner[inside]]
    )
    owner, cols = owner[inside], base_cols[inside]
    n_base = np.bincount(owner, minlength=len(req))
    base_start = np.concatenate(([0], np.cumsum(n_base)))
    free = hi - lo - n_base
    free_start = np.concatenate(([0], np.cumsum(free)))
    j = np.arange(len(owner)) - base_start[owner]
    adj_keys = free_start[owner] + cols - lo[owner] - j
    want = np.minimum(counts[req], free)

    # Uniform ranks without replacement, every row in one batch.  Rows
    # asking for at least half their free columns rank all of them by a
    # random key and keep the first ``want`` (at most twice the request
    # is enumerated).  The others draw ranks with replacement and redraw
    # the duplicates until none are left; each draw collides with
    # probability below 1/2, so few rounds run.
    rng = np.random.default_rng(seed)
    dense = 2 * want >= free
    d_free = free[dense]
    d_rows = np.repeat(np.flatnonzero(dense), d_free)
    d_rank = np.arange(len(d_rows)) - np.repeat(np.cumsum(d_free) - d_free, d_free)
    order = np.lexsort((rng.random(len(d_rows)), d_rows))
    d_rows, d_rank = d_rows[order], d_rank[order]
    keep = np.arange(len(d_rows)) - np.searchsorted(d_rows, d_rows) < want[d_rows]
    s_rows = np.repeat(np.flatnonzero(~dense), want[~dense])
    keys = free_start[s_rows] + rng.integers(0, free[s_rows])
    while len(keys):
        order = np.argsort(keys, kind="stable")
        dup = np.zeros(len(keys), dtype=bool)
        dup[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        if not dup.any():
            break
        keys[dup] = free_start[s_rows[dup]] + rng.integers(0, free[s_rows[dup]])
    rows = np.concatenate([d_rows[keep], s_rows])
    ranks = np.concatenate([d_rank[keep], keys - free_start[s_rows]])

    below = np.searchsorted(adj_keys, free_start[rows] + ranks, side="right")
    new_cols = lo[rows] + ranks + below - base_start[rows]
    return Pattern.from_coo(
        base.n_rows, base.n_cols,
        np.concatenate([base_rows, req[rows]]),
        np.concatenate([base_cols, new_cols]),
    )
