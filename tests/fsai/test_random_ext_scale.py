"""The §7.3 random extension samples without materialising any window.

Each requesting row's new columns are drawn as ranks among the row's free
admissible columns and mapped back past the base columns, so the cost
follows the number of requested entries, not the window sizes: a
200,000-row lower-triangular request touches 2·10¹⁰ admissible pairs but
draws only 4·10⁵ columns.  The draws stay uniform without replacement,
whether a row asks for most of its free columns (ranked by random keys)
or few of them (drawn and redrawn until distinct).
"""

from itertools import combinations

import numpy as np

from repro.fsai.random_ext import extend_pattern_random
from repro.sparse.pattern import Pattern


def test_large_tridiagonal_base_gets_exact_counts():
    n = 200_000
    i = np.arange(n)
    base = Pattern.from_coo(
        n, n, np.concatenate([i, i[1:]]), np.concatenate([i, i[1:] - 1])
    )
    ext = extend_pattern_random(base, np.full(n, 2), seed=0)
    added = ext.row_lengths() - base.row_lengths()
    # Row i has i + 1 admissible columns, two of them (i - 1, i) taken.
    assert np.array_equal(added, np.minimum(2, np.maximum(i - 1, 0)))
    assert ext.is_lower_triangular() and base.is_subset_of(ext)


def _shared_window(n_rows, n_cols, base_cols, want, seed):
    """``n_rows`` rows over one window ``[0, n_cols)``, same base columns."""
    rows = np.repeat(np.arange(n_rows), len(base_cols))
    cols = np.tile(base_cols, n_rows)
    base = Pattern.from_coo(n_rows, n_cols, rows, cols)
    ext = extend_pattern_random(
        base, np.full(n_rows, want), triangular="none", seed=seed
    )
    picks = [np.setdiff1d(ext.row(r), base_cols) for r in range(n_rows)]
    assert all(len(p) == want for p in picks)
    return picks


def _assert_uniform(picks, free, want):
    """Every free column, and every pair of them, drawn near its share."""
    n_rows = len(picks)
    hits = np.zeros(free.max() + 1)
    for p in picks:
        hits[p] += 1
    assert np.all(hits[np.setdiff1d(np.arange(len(hits)), free)] == 0)
    expected = n_rows * want / len(free)
    assert np.all(np.abs(hits[free] - expected) < 0.1 * expected)
    pairs = {}
    for p in picks:
        for pair in combinations(p.tolist(), 2):
            pairs[pair] = pairs.get(pair, 0) + 1
    n_pairs = len(free) * (len(free) - 1) // 2
    assert len(pairs) == n_pairs
    expected = n_rows * (want * (want - 1) // 2) / n_pairs
    counts = np.array(list(pairs.values()))
    assert counts.min() > 0.6 * expected and counts.max() < 1.4 * expected


def test_few_of_many_free_columns_is_uniform():
    base_cols = np.array([0, 5])
    picks = _shared_window(20_000, 12, base_cols, 2, seed=11)
    _assert_uniform(picks, np.setdiff1d(np.arange(12), base_cols), 2)


def test_most_free_columns_is_uniform():
    base_cols = np.array([3, 7])
    picks = _shared_window(6_000, 12, base_cols, 7, seed=12)
    _assert_uniform(picks, np.setdiff1d(np.arange(12), base_cols), 7)
