"""Methodology — why the reproduction models time instead of measuring it.

The calibration note for this reproduction says it plainly: *the
interpreter hides cache effects*.  A Python gather SpMV spends its time in
allocation, bounds logic and vector instructions, not in the cache-miss
stalls the paper optimises, so the wall-clock difference between a
cache-friendly and a random pattern extension (at equal nnz) nearly
vanishes in Python — while the simulated L1 behaviour differs by an order
of magnitude.

This bench measures both quantities side by side and asserts the
*motivating contrast*: simulated misses separate the variants sharply;
Python wall time does not.  That contrast is the justification for the
modelled-time substitution (DESIGN.md §2).

Both applications are timed on one kernel, the ``reference`` backend's
gather, so the wall ratio compares patterns and not kernels.  The default
numpy backend picks a storage format per factor (DIA for FSAIE(full)'s
exact stencil here, one-block and bucketed ELL for the random factor);
its ratio is printed beside the asserted one.
"""

import numpy as np

from benchmarks.conftest import scope_note
from repro.arch.address import ArrayPlacement
from repro.arch.presets import SKYLAKE
from repro.cachesim.spmv_sim import simulate_fsai_application
from repro.collection.suite import get_case
from repro.fsai.extended import setup_fsaie_full, setup_fsaie_random
from repro.fsai.precond import FSAIApplication
from repro.kernels import use_backend
from repro.perf.costmodel import scale_caches
from repro.perf.timer import min_over_repetitions


def test_wall_time_motivation(benchmark, capsys):
    a = get_case(41).build()
    placement = ArrayPlacement.aligned(64)
    sim_machine = scale_caches(SKYLAKE, 0.125)
    full = setup_fsaie_full(a, placement, filter_value=0.01)
    rnd = setup_fsaie_random(a, full, seed=11)
    p = np.random.default_rng(0).standard_normal(a.n_rows)

    def wall(setup) -> float:
        # A fresh application binds the backend in force.
        app = FSAIApplication(setup.g)
        return min_over_repetitions(lambda: app.apply(p), 20)[0]

    # Measured: Python wall time of the application (min over repetitions,
    # the §7.1 protocol), both factors on the one gather kernel.
    with use_backend("reference"):
        t_full, t_rnd = wall(full), wall(rnd)
    default_ratio = wall(rnd) / wall(full)

    # Simulated: L1 misses per nnz.
    m_full = benchmark.pedantic(
        lambda: simulate_fsai_application(
            full.application.g_pattern, sim_machine,
            gt_pattern=full.application.gt_pattern,
        ),
        rounds=3, iterations=1,
    ).x_misses_per_nnz
    m_rnd = simulate_fsai_application(
        rnd.application.g_pattern, sim_machine,
        gt_pattern=rnd.application.gt_pattern,
    ).x_misses_per_nnz

    wall_ratio = t_rnd / t_full
    sim_ratio = m_rnd / max(m_full, 1e-12)
    with capsys.disabled():
        print(f"\n[{scope_note()}] interpreter-hides-cache-effects check "
              f"(Dubcova1-syn, equal nnz)")
        print(f"  python wall time:  cache-aware {t_full * 1e6:8.1f} us | "
              f"random {t_rnd * 1e6:8.1f} us  (ratio {wall_ratio:.2f}x, "
              f"reference kernel; default backend {default_ratio:.2f}x)")
        print(f"  simulated miss/nnz: cache-aware {m_full:8.4f} | "
              f"random {m_rnd:8.4f}  (ratio {sim_ratio:.2f}x)")

    # The separations: simulation sharp, interpreter blurry.
    assert sim_ratio > 3.0
    assert wall_ratio < 2.0  # nowhere near the simulated contrast
    assert sim_ratio > 2 * wall_ratio

    benchmark.extra_info["wall_ratio"] = round(wall_ratio, 2)
    benchmark.extra_info["sim_ratio"] = round(sim_ratio, 2)
    benchmark.extra_info["default_backend_wall_ratio"] = round(default_ratio, 2)
