"""Unit tests for repro.parallel (partitions + parallel roofline)."""

import numpy as np
import pytest

from repro.arch.presets import SKYLAKE
from repro.collection.generators.fd import poisson2d
from repro.errors import ConfigurationError, ShapeError
from repro.parallel.cost import (
    parallel_speedup_curve,
    parallel_spmv_cost,
    simulate_parallel_l1_misses,
)
from repro.parallel.partition import RowPartition
from repro.sparse.pattern import Pattern


@pytest.fixture(scope="module")
def a():
    return poisson2d(30)  # n=900


class TestRowPartition:
    def test_by_rows_balanced(self):
        p = RowPartition.by_rows(10, 3)
        assert p.n_parts == 3
        assert p.n_rows == 10
        assert list(p.rows_per_block()) in ([3, 4, 3], [4, 3, 3], [3, 3, 4])

    def test_by_rows_more_parts_than_rows(self):
        p = RowPartition.by_rows(2, 4)
        assert p.n_parts == 4
        assert sum(p.rows_per_block()) == 2

    def test_by_nnz_balances_skewed(self):
        # Arrowhead pattern: the first row is dense, the rest diagonal.
        n = 64
        rows = [list(range(n))] + [[i] for i in range(1, n)]
        skewed = Pattern.from_rows(n, n, rows)
        by_rows = RowPartition.by_rows(n, 4)
        by_nnz = RowPartition.by_nnz(skewed, 4)
        assert by_nnz.imbalance(skewed) < by_rows.imbalance(skewed)
        # The dense (unsplittable) row sits alone in its block.
        assert by_nnz.rows_per_block()[0] == 1

    def test_nnz_per_block_sums(self, a):
        p = RowPartition.by_nnz(a.pattern, 5)
        assert p.nnz_per_block(a.pattern).sum() == a.nnz

    def test_block_queries(self, a):
        p = RowPartition.by_rows(a.n_rows, 4)
        lo, hi = p.block(1)
        assert p.block_of_row(lo) == 1
        assert p.block_of_row(hi - 1) == 1
        with pytest.raises(IndexError):
            p.block(4)
        with pytest.raises(IndexError):
            p.block_of_row(a.n_rows)

    def test_restrict_pattern(self, a):
        p = RowPartition.by_rows(a.n_rows, 3)
        sub = p.restrict_pattern(a.pattern, 1)
        lo, hi = p.block(1)
        assert sub.n_rows == hi - lo
        assert sub.nnz == p.nnz_per_block(a.pattern)[1]
        assert np.array_equal(sub.row(0), a.pattern.row(lo))

    def test_shape_mismatch(self, a):
        p = RowPartition.by_rows(10, 2)
        with pytest.raises(ShapeError):
            p.nnz_per_block(a.pattern)

    def test_invalid_boundaries(self):
        with pytest.raises(ConfigurationError):
            RowPartition(np.array([1, 2]))
        with pytest.raises(ConfigurationError):
            RowPartition(np.array([0, 3, 2]))
        with pytest.raises(ConfigurationError):
            RowPartition.by_rows(10, 0)

    def test_imbalance_perfect_is_one(self):
        pat = Pattern.from_rows(4, 4, [[0], [1], [2], [3]])
        p = RowPartition.by_rows(4, 2)
        assert p.imbalance(pat) == pytest.approx(1.0)


class TestParallelCost:
    def test_single_thread_positive(self, a):
        c = parallel_spmv_cost(a.pattern, SKYLAKE, 1, cache_scale=0.125)
        assert c.seconds > 0
        assert c.n_threads == 1

    def test_speedup_monotone_until_saturation(self, a):
        curve = parallel_speedup_curve(
            a.pattern, SKYLAKE, (1, 2, 4, 8, 16), cache_scale=0.125
        )
        times = [c.seconds for c in curve]
        assert all(t2 <= t1 + 1e-15 for t1, t2 in zip(times, times[1:]))

    def test_memory_bound_at_scale(self, a):
        c = parallel_spmv_cost(a.pattern, SKYLAKE, 48, cache_scale=0.125)
        assert c.bound == "memory"  # SpMV saturates DRAM on full node

    def test_compute_bound_single_thread(self, a):
        c = parallel_spmv_cost(a.pattern, SKYLAKE, 1, cache_scale=0.125)
        assert c.bound == "compute"

    def test_thread_validation(self, a):
        with pytest.raises(ConfigurationError):
            parallel_spmv_cost(a.pattern, SKYLAKE, 0)
        with pytest.raises(ConfigurationError):
            parallel_spmv_cost(a.pattern, SKYLAKE, SKYLAKE.cores + 1)

    def test_partition_mismatch(self, a):
        bad = RowPartition.by_rows(a.n_rows, 3)
        with pytest.raises(ConfigurationError):
            parallel_spmv_cost(a.pattern, SKYLAKE, 4, partition=bad)

    def test_private_l1_misses_cover_all_threads(self, a):
        part = RowPartition.by_nnz(a.pattern, 4)
        misses = simulate_parallel_l1_misses(
            a.pattern, SKYLAKE, part, cache_scale=0.125
        )
        assert len(misses) == 4
        assert all(m >= 0 for m in misses)
        # Private caches can't have fewer total compulsory misses than the
        # distinct lines each block touches independently.
        assert sum(misses) > 0

    def test_empty_block_zero_misses(self):
        pat = Pattern.from_rows(2, 2, [[0], [1]])
        part = RowPartition(np.array([0, 2, 2, 2]))
        misses = simulate_parallel_l1_misses(pat, SKYLAKE, part)
        assert misses[1] == 0 and misses[2] == 0


class TestCaseCostOrdering:
    """Static LPT cost model used by the campaign orchestrator."""

    def test_estimates_positive_and_monotone_in_setups(self):
        from repro.collection.suite import suite72
        from repro.parallel.cost import estimate_case_seconds

        for case in suite72():
            lo = estimate_case_seconds(case, n_passes=1)
            hi = estimate_case_seconds(case, n_passes=14)
            assert 0.0 < lo < hi

    def test_order_is_lpt_and_deterministic(self):
        from repro.collection.suite import suite72
        from repro.parallel.cost import (
            estimate_case_seconds,
            order_cases_by_cost,
        )

        cases = suite72()
        ordered = order_cases_by_cost(cases)
        costs = [estimate_case_seconds(c) for c in ordered]
        assert costs == sorted(costs, reverse=True)
        assert {c.case_id for c in ordered} == {c.case_id for c in cases}
        # Ties (equal estimates) break by ascending case id.
        for a, b in zip(ordered, ordered[1:]):
            if estimate_case_seconds(a) == estimate_case_seconds(b):
                assert a.case_id < b.case_id
        assert order_cases_by_cost(list(reversed(cases))) == ordered
