"""Unit tests for repro.cachesim.spmv_sim — including the paper's central
cache-behaviour claims on small instances."""

import numpy as np
import pytest

from repro.arch.address import ArrayPlacement
from repro.arch.presets import SKYLAKE
from repro.cachesim.spmv_sim import (
    misses_per_nnz,
    simulate_fsai_application,
    simulate_spmv,
)
from repro.fsai.fillin import extend_pattern_cache_friendly
from repro.fsai.random_ext import extend_pattern_random
from repro.perf.costmodel import scale_caches
from repro.sparse.pattern import Pattern

SMALL_SKX = scale_caches(SKYLAKE, 1 / 16)  # 2 KiB L1: forces capacity misses


def banded(n, bw):
    rows, cols = [], []
    for i in range(n):
        for j in range(max(0, i - bw), i + 1):
            rows.append(i)
            cols.append(j)
    return Pattern.from_coo(n, n, np.array(rows), np.array(cols))


class TestSimulateSpmv:
    def test_sequential_pattern_few_misses(self):
        p = banded(512, 2)
        res = simulate_spmv(p, SMALL_SKX, include_streams=False)
        # Sequential access: roughly one miss per line of x.
        assert res.x_misses <= 1.2 * (512 / 8) + 2

    def test_random_pattern_many_misses(self):
        rng = np.random.default_rng(0)
        rows = np.repeat(np.arange(512), 3)
        cols = rng.integers(0, 512, len(rows))
        p = Pattern.from_coo(512, 512, rows, cols)
        res = simulate_spmv(p, SMALL_SKX, include_streams=False)
        seq = simulate_spmv(banded(512, 2), SMALL_SKX, include_streams=False)
        assert res.x_misses > 4 * seq.x_misses

    def test_result_counters_consistent(self):
        p = banded(256, 1)
        res = simulate_spmv(p, SMALL_SKX)
        assert res.x_accesses == p.nnz
        assert 0 <= res.x_misses <= res.x_accesses
        assert res.total_accesses >= res.x_accesses
        assert res.x_misses <= res.total_misses <= res.total_accesses

    def test_x_misses_per_nnz(self):
        p = banded(256, 1)
        res = simulate_spmv(p, SMALL_SKX)
        assert res.x_misses_per_nnz == pytest.approx(res.x_misses / p.nnz)


class TestPaperClaims:
    """The §4/§7.3 cache claims, verified by simulation."""

    def test_cache_friendly_extension_adds_no_compulsory_misses(self):
        base = banded(512, 2)
        pl = ArrayPlacement.aligned(64)
        ext = extend_pattern_cache_friendly(base, pl)
        assert ext.nnz > base.nnz
        # With streams off and an effectively-infinite cache the miss count
        # equals distinct lines touched, which the extension must not grow.
        res_base = simulate_spmv(base, SKYLAKE, include_streams=False)
        res_ext = simulate_spmv(ext, SKYLAKE, include_streams=False)
        assert res_ext.x_misses == res_base.x_misses

    def test_cache_friendly_beats_random_at_equal_nnz(self):
        base = banded(512, 2)
        pl = ArrayPlacement.aligned(64)
        ext = extend_pattern_cache_friendly(base, pl)
        added = np.asarray(ext.row_lengths() - base.row_lengths())
        rnd = extend_pattern_random(base, added, seed=3)
        m_ext = simulate_spmv(ext, SMALL_SKX).x_misses
        m_rnd = simulate_spmv(rnd, SMALL_SKX).x_misses
        assert m_rnd > 2 * m_ext

    def test_misses_per_nnz_decreases_with_extension(self):
        # Same misses over more entries => smaller normalised metric
        # (the Figure 3 shift towards the first bins).
        base = banded(512, 2)
        pl = ArrayPlacement.aligned(64)
        ext = extend_pattern_cache_friendly(base, pl)
        assert (
            misses_per_nnz(ext, SMALL_SKX, include_streams=False)
            < misses_per_nnz(base, SMALL_SKX, include_streams=False)
        )


class TestFSAIApplication:
    def test_covers_both_products(self):
        g = banded(128, 2)
        res = simulate_fsai_application(g, SMALL_SKX)
        assert res.x_accesses == 2 * g.nnz

    def test_custom_gt_pattern(self):
        g = banded(128, 2)
        gt = extend_pattern_cache_friendly(
            g.transpose(), ArrayPlacement.aligned(64), triangular="upper"
        )
        res = simulate_fsai_application(g, SMALL_SKX, gt_pattern=gt)
        assert res.x_accesses == g.nnz + gt.nnz
