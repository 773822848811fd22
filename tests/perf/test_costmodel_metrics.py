"""Unit tests for repro.perf (cost model, metrics, timer)."""

import pytest

from repro.arch.address import ArrayPlacement
from repro.arch.presets import A64FX, SKYLAKE
from repro.collection.generators.fd import poisson2d
from repro.errors import ConfigurationError
from repro.fsai.extended import setup_fsai, setup_fsaie_full
from repro.perf.costmodel import CostModel, KernelCost, scale_caches
from repro.perf.metrics import (
    ImprovementStats,
    gflops_of_application,
    improvement_pct,
    summarize_improvements,
)
from repro.perf.timer import min_over_repetitions


@pytest.fixture(scope="module")
def a():
    return poisson2d(20)


@pytest.fixture(scope="module")
def model():
    return CostModel(SKYLAKE, cache_scale=0.125)


class TestScaleCaches:
    def test_identity_scale(self):
        assert scale_caches(SKYLAKE, 1.0) is SKYLAKE

    def test_shrinks_capacity(self):
        small = scale_caches(SKYLAKE, 0.25)
        assert small.l1.size_bytes == SKYLAKE.l1.size_bytes // 4
        assert small.line_bytes == SKYLAKE.line_bytes  # line never scaled
        assert small.l1.associativity == SKYLAKE.l1.associativity

    def test_invalid_factor(self):
        with pytest.raises(ConfigurationError):
            scale_caches(SKYLAKE, 0.0)
        with pytest.raises(ConfigurationError):
            scale_caches(SKYLAKE, 2.0)

    def test_minimum_one_set(self):
        tiny = scale_caches(SKYLAKE, 1e-9)
        assert all(lvl.n_sets >= 1 for lvl in tiny.cache_levels)


class TestKernelCost:
    def test_gflops(self):
        c = KernelCost(flops=2_000_000, bytes_streamed=0, bytes_x_misses=0, seconds=1e-3)
        assert c.gflops() == pytest.approx(2.0)

    def test_zero_seconds(self):
        assert KernelCost(1, 1, 1, 0.0).gflops() == 0.0

    def test_total_bytes(self):
        assert KernelCost(0, 10, 5, 1.0).total_bytes == 15


class TestCostModel:
    def test_spmv_cost_positive(self, a, model):
        c = model.spmv_cost(a.pattern)
        assert c.seconds > 0
        assert c.flops == 2 * a.nnz

    def test_more_nnz_costs_more(self, a, model):
        base = setup_fsai(a)
        ext = setup_fsaie_full(a, ArrayPlacement.aligned(64), filter_value=0.0)
        c_base = model.fsai_application_cost(base.application.g_pattern)
        c_ext = model.fsai_application_cost(
            ext.application.g_pattern, ext.application.gt_pattern
        )
        assert c_ext.seconds > c_base.seconds
        assert c_ext.flops > c_base.flops

    def test_extension_cost_increase_is_sublinear_in_nnz(self, a, model):
        """The paper's §4 economics: +X% entries => much less than +X% time,
        because the added entries hit cached lines."""
        base = setup_fsai(a)
        ext = setup_fsaie_full(a, ArrayPlacement.aligned(64), filter_value=0.0)
        c_base = model.fsai_application_cost(base.application.g_pattern)
        c_ext = model.fsai_application_cost(
            ext.application.g_pattern, ext.application.gt_pattern
        )
        nnz_ratio = (
            (ext.application.g.nnz + ext.application.gt_pattern.nnz)
            / (base.application.g.nnz + base.application.gt_pattern.nnz)
        )
        time_ratio = c_ext.seconds / c_base.seconds
        assert time_ratio < nnz_ratio

    def test_x_misses_override(self, a, model):
        free = model.spmv_cost(a.pattern, x_misses=0)
        expensive = model.spmv_cost(a.pattern, x_misses=10_000)
        assert expensive.seconds > free.seconds

    def test_iteration_cost_components(self, a, model):
        setup = setup_fsai(a)
        it = model.iteration_cost(a, setup)
        assert it.seconds == pytest.approx(
            it.spmv_a.seconds + it.precond.seconds + it.vector_seconds
        )
        plain = model.iteration_cost(a, None)
        assert plain.precond.seconds == 0.0

    def test_solve_seconds_linear_in_iterations(self, a, model):
        setup = setup_fsai(a)
        assert model.solve_seconds(a, setup, 10) == pytest.approx(
            10 * model.iteration_cost(a, setup).seconds
        )

    def test_setup_seconds_ordering(self, a, model):
        base = setup_fsai(a)
        full = setup_fsaie_full(a, ArrayPlacement.aligned(64))
        assert model.setup_seconds(full) > model.setup_seconds(base)

    def test_a64fx_has_higher_bandwidth_effect(self, a):
        m_skx = CostModel(SKYLAKE)
        m_a64 = CostModel(A64FX)
        c_skx = m_skx.spmv_cost(a.pattern)
        c_a64 = m_a64.spmv_cost(a.pattern)
        assert c_a64.seconds < c_skx.seconds  # HBM wins on streamed bytes

    def test_repr(self, model):
        assert "skylake" in repr(model)


class TestMetrics:
    def test_improvement_pct(self):
        assert improvement_pct(2.0, 1.0) == pytest.approx(50.0)
        assert improvement_pct(1.0, 2.0) == pytest.approx(-100.0)
        with pytest.raises(ValueError):
            improvement_pct(0.0, 1.0)

    def test_gflops_of_application(self):
        c = KernelCost(flops=4e9, bytes_streamed=0, bytes_x_misses=0, seconds=1.0)
        assert gflops_of_application(c) == pytest.approx(4.0)

    def test_summary(self):
        s = summarize_improvements([10, 20, 30], [5, -15, 25])
        assert s.avg_iterations == pytest.approx(20.0)
        assert s.avg_time == pytest.approx(5.0)
        assert s.highest_improvement == 25.0
        assert s.highest_degradation == -15.0
        assert s.count == 3

    def test_summary_no_degradation_clamps_zero(self):
        s = summarize_improvements([1.0], [10.0])
        assert s.highest_degradation == 0.0

    def test_summary_validates(self):
        with pytest.raises(ValueError):
            summarize_improvements([], [])
        with pytest.raises(ValueError):
            summarize_improvements([1.0], [1.0, 2.0])

    def test_stats_row(self):
        s = ImprovementStats(1, 2, 3, -4, 2, 1)
        assert s.row() == (1, 2, 3, -4)


class TestTimer:
    def test_returns_min_and_result(self):
        calls = []

        def fn():
            calls.append(1)
            return "out"

        t, result = min_over_repetitions(fn, repetitions=3)
        assert result == "out"
        assert len(calls) == 3
        assert t >= 0

    def test_validates_repetitions(self):
        with pytest.raises(ValueError):
            min_over_repetitions(lambda: None, repetitions=0)


class TestOrchestrationMetrics:
    def _metrics(self):
        from repro.perf.metrics import OrchestrationMetrics

        return OrchestrationMetrics(
            jobs=4, wall_seconds=8.0, cases_total=12, cases_completed=10,
            cases_skipped=2, failures=0, retries=1,
        )

    def test_throughput(self):
        m = self._metrics()
        assert m.cases_per_second == pytest.approx(10 / 8.0)
        zero = type(m)(jobs=1, wall_seconds=0.0, cases_total=0,
                       cases_completed=0, cases_skipped=0, failures=0,
                       retries=0)
        assert zero.cases_per_second == 0.0

    def test_round_trip(self):
        from repro.perf.metrics import OrchestrationMetrics

        m = self._metrics()
        assert OrchestrationMetrics.from_dict(m.to_dict()) == m
