"""E-A13 — engine-speedup regression: vectorized vs reference hot paths.

The offline LRU engine, the vectorized stack-distance profiler and the
blocked and served solver paths all replace bit-exact reference
implementations that the package itself keeps.  This bench times both
sides of each pair on the campaign workload and records the result as
``BENCH_engine.json`` at the repository root — the composite wall-time
reduction is asserted so the optimisation cannot silently regress.

Components (each timed as min over repetitions, §7.1 style):

* ``stack_distances`` — Mattson profiling of every case's SpMV trace:
  per-access Fenwick tree vs the sort/merge-count engine.
* ``cache_replay`` — cold Skylake-L1 trace replay: the ``OrderedDict``
  walk (``replay(..., backend="reference")``) vs the bounded window scan
  (``replay(...)``), asserted >= ``MIN_CACHE_REPLAY_SPEEDUP``; both
  backends' hit masks are compared on every trace outside the timed
  loops.
* ``pcg_multi_rhs`` — the serving workload: 32 right-hand sides against
  small operators, looped single-RHS ``pcg`` vs one blocked ``pcg_multi``
  over a ``(32, n)`` row block (asserted >= ``MIN_MULTI_RHS_SPEEDUP``;
  RHS/sec at widths 1/2/4/8/32 is recorded in the component detail).  Small
  systems are the honest regime for this gate: the blocked path pays
  the per-call dispatch once per iteration instead of once per vector,
  while at large ``n`` each row of a blocked product costs what its
  single-vector product costs, so the blocked solve saves only that
  dispatch.
* ``spgemm`` — the global-sweep product ``P_S(X A)`` on bound plans:
  the reference backend's dense-matmul oracle vs the numpy
  gather-multiply-bincount numeric phase, capped to the FSAI pattern
  (asserted >= ``MIN_SPGEMM_SPEEDUP``).
* ``serve_throughput`` — the *whole* serving stack end to end: a mixed
  round-robin request stream through ``repro.serve`` (admission ->
  micro-batching window -> cached setup -> blocked solve -> completion)
  vs serial one-request-at-a-time solving with prebuilt preconditioners
  (asserted >= ``MIN_SERVE_SPEEDUP``; served RHS/sec and p99 latency are
  recorded in the component detail).  A deeper fixed iteration budget
  than ``pcg_multi_rhs`` keeps the dispatcher's fixed per-request cost
  (admission, futures, metrics) a small fraction of each solve.
* ``serve_throughput_mp`` — the same stream through the fingerprint-
  sharded 4-worker pool (``repro.serve.pool`` over the shared-memory
  operator store) vs the single-process dispatcher.  The >= 2x floor
  (``MIN_SERVE_MP_SPEEDUP``) is asserted only on hosts with >= 4 CPU
  cores — on fewer cores the workers time-slice one CPU and the ratio
  measures scheduling overhead, not scaling — but the component is
  always timed, recorded, and marked ``informational`` so the gate
  never judges a small host's number as a regression.  The host core
  count and worker count are recorded in the component detail.

Retired components (:data:`RETIRED_COMPONENTS`) are named in the
record so ``repro.perf.bench_gate`` reports them as retired, not missing.
The FSAI setup and §5 precalculation ratios went with the deleted LAPACK
and lockstep-CG paths they compared against; ``BENCHMARK.json``'s
``setup_s`` times the setup end to end.  The ``spmv``, ``fsai_apply``
and ``pcg_iteration`` ratios compared the numpy backend against seed
replicas that only this bench held; perfbench ``timestep`` times those
kernels end to end.
"""

import os
from pathlib import Path

import numpy as np

from benchmarks.conftest import BENCH_CASE_IDS, scope_note
from repro import trace
from repro.arch.address import ArrayPlacement
from repro.arch.presets import SKYLAKE
from repro.cachesim.cache import replay
from repro.cachesim.stackdist import stack_distances
from repro.cachesim.trace import spmv_trace
from repro.collection.generators.fd import poisson2d
from repro.collection.suite import get_case, suite72
from repro.fsai.fillin import extend_pattern_cache_friendly
from repro.fsai.filtering import filter_extension_by_precalc
from repro.fsai.frobenius import compute_g, precalculate_g
from repro.fsai.patterns import fsai_initial_pattern
from repro.fsai.precond import FSAIApplication
from repro.kernels import get_backend
from repro.kernels.spgemm import plan_spgemm
from repro.perf.regression import RegressionComponent, RegressionRecord
from repro.perf.timer import min_over_repetitions
from repro.serve import InProcessClient, MultiProcessClient
from repro.solvers.cg import pcg, pcg_multi

CASE_IDS = BENCH_CASE_IDS or tuple(c.case_id for c in suite72())
ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

#: Acceptance floor for the composite old/new wall-time ratio.
MIN_COMPOSITE_SPEEDUP = 5.0

#: ISSUE 5 acceptance floor: throughput (RHS/sec) of ``pcg_multi`` with a
#: 32-wide block over looping the single-RHS solver, numpy backend.
MIN_MULTI_RHS_SPEEDUP = 3.0

#: Components no longer timed, with the reason; written into the record
#: so ``repro.perf.bench_gate`` reports them as retired, not missing.
_LEGACY_SETUP = (
    "reference side was a deleted legacy setup path; BENCHMARK.json "
    "setup_s times the default setup end to end"
)
_SEED_REPLICA = (
    "reference side was a seed replica only this bench held; perfbench "
    "timestep times the kernel end to end"
)
RETIRED_COMPONENTS = {
    "fsai_setup": _LEGACY_SETUP,
    "fsai_setup_parallel": _LEGACY_SETUP,
    "fsai_precalc_parallel": _LEGACY_SETUP,
    "fsaie_filtered_setup": _LEGACY_SETUP,
    "spmv": _SEED_REPLICA,
    "fsai_apply": _SEED_REPLICA,
    "pcg_iteration": _SEED_REPLICA,
}

#: Filter value for the traced §5 pass — the middle of the paper's
#: evaluated grid (0.0 / 0.001 / 0.01 / 0.1).
FSAIE_FILTER = 0.01

#: ISSUE 8 acceptance floor: the numpy SpGEMM numeric phase over the
#: reference backend's dense-matmul oracle, both running bound handles
#: on the same capped plan.  The sparse phase clears this by orders of
#: magnitude on the larger grids; 2x is the contract, not the target.
MIN_SPGEMM_SPEEDUP = 2.0

#: Grid sides for the spgemm component (n = 144/256/400 — small enough
#: that the dense oracle side stays affordable in a timed loop).
SPGEMM_GRIDS = (12, 16, 20)

#: Inner repeats per spgemm product (one capped numeric phase is fast).
SPGEMM_ROUNDS = 10

#: The window-scan replay over the OrderedDict walk on the bench traces
#: (unscaled Skylake L1, 64 sets x 8 ways).  The scan read 7.2-11.5x over
#: seven runs on a 2-core Xeon; the merge count it replaced about 2x.
MIN_CACHE_REPLAY_SPEEDUP = 3.0

#: Gated block width, and the width sweep recorded as RHS/sec.
MULTI_RHS_WIDTH = 32
MULTI_RHS_WIDTHS = (1, 2, 4, 8, 32)

#: Serving-style operators for the multi-RHS component (poisson2d grid
#: sides -> n = 144, 256): many right-hand sides against small systems,
#: where the looped solver pays its python dispatch per column and the
#: blocked solver pays it once per iteration.
MULTI_RHS_GRIDS = (12, 16)

#: Acceptance floor for the end-to-end serving stack (ISSUE 7): a mixed
#: request stream through ``repro.serve`` must sustain >= 3x the RHS/sec
#: of serial one-at-a-time solving.  Measured ~3.5x against a ~3.8x
#: direct-``pcg_multi`` ceiling in this regime, so the floor leaves
#: noise headroom without being trivially loose.
MIN_SERVE_SPEEDUP = 3.0

#: Fixed iteration budget for the serving component.  Deeper than
#: ``PCG_ITERATIONS`` on purpose: the service pays a fixed per-request
#: cost (admission, futures, metrics) of tens of microseconds,
#: and a deeper solve keeps that a small fraction of the work — the
#: same steady-state-traffic claim the bench makes everywhere else.
SERVE_ITERATIONS = 100

#: Requests per operator in the serving stream (total = x len(grids)).
SERVE_REQUESTS_PER_OP = 64

#: Worker count for the multi-process serving component (ISSUE 9).
SERVE_MP_WORKERS = 4

#: Acceptance floor for the 4-worker pool over the single-process
#: dispatcher — asserted only when the host actually has >= 4 cores
#: (``SERVE_MP_GATE_CORES``); below that the workers share one CPU and
#: the honest expectation is parity at best.
MIN_SERVE_MP_SPEEDUP = 2.0
SERVE_MP_GATE_CORES = 4

#: Batching window for the serving component; generous relative to the
#: stream burst so batch assembly is bounded by ``max_batch``, not time.
SERVE_WINDOW_SECONDS = 0.005

REPETITIONS = 2

#: The kernel components are cheap enough (tens of ms) to time more
#: often; on a loaded single-core host extra repetitions keep a stray
#: scheduler preemption out of the min.
KERNEL_REPETITIONS = 6

#: Fixed per-system iteration budget for the multi-RHS component (rtol=0
#: keeps both sides running the full budget, so the comparison is
#: per-iteration).
PCG_ITERATIONS = 25


def _workload():
    """(trace lines, matrix, FSAI pattern) per campaign case."""
    placement = ArrayPlacement.aligned(64)
    out = []
    for case_id in CASE_IDS:
        a = get_case(case_id).build()
        pattern = fsai_initial_pattern(a)
        trace = spmv_trace(pattern, placement, include_streams=True)
        out.append((trace.lines, a, pattern))
    return out


#: Extra interleaved timing rounds granted to a component whose measured
#: ratio lands under its floor — scheduler preemptions on a shared
#: single-core host show up as one-sided spikes, and more min-samples
#: (taken identically on both sides) squeeze them out.  A genuinely slow
#: kernel stays under the floor no matter how often it is re-timed.
NOISE_RETRIES = 3


def _component(name, detail, ref_fn, opt_fn, repetitions=REPETITIONS,
               floor=None, informational=False):
    # One untimed warmup per side: lazy structure views (DIA/ELL/column
    # groups) and allocator pools are built outside the measured window.
    ref_fn()
    opt_fn()
    # Interleave the repetitions rather than timing all-reference then
    # all-optimized: on a shared host the CPU's effective speed drifts
    # between windows, and alternating sides turns that drift into noise
    # the min absorbs instead of a systematic skew of the ratio.
    t_ref = t_opt = float("inf")
    rounds = repetitions
    budget = repetitions * NOISE_RETRIES if floor is not None else 0
    while rounds:
        for _ in range(rounds):
            t, _ = min_over_repetitions(ref_fn, repetitions=1)
            t_ref = min(t_ref, t)
            t, _ = min_over_repetitions(opt_fn, repetitions=1)
            t_opt = min(t_opt, t)
        rounds = 0
        if floor is not None and t_ref / t_opt < floor and budget:
            rounds = min(repetitions, budget)
            budget -= rounds
    return RegressionComponent(
        name=name, reference_seconds=t_ref, optimized_seconds=t_opt,
        detail=detail, informational=informational,
    )


def test_engine_speedup(benchmark, capsys):
    work = _workload()
    traces = [lines for lines, _, _ in work]
    n_accesses = int(sum(len(t) for t in traces))
    l1 = SKYLAKE.cache_levels[0]

    def stackdist(backend):
        def run():
            for lines in traces:
                stack_distances(lines, backend=backend)
        return run

    def setup():
        for _, a, pattern in work:
            compute_g(a, pattern)

    def cache_replay(backend):
        def run():
            for lines in traces:
                replay(lines, l1, backend=backend)
        return run

    # Exactness first, outside every timed loop: the ratio below means
    # nothing unless both backends return the same hit mask.
    for lines in traces:
        assert np.array_equal(
            replay(lines, l1), replay(lines, l1, backend="reference")
        ), f"cache_replay backends disagree on a {len(lines)}-access trace"

    # SpGEMM workload: the global-sweep product shape P_S(X·A) — factor
    # pattern times matrix pattern, capped back to the factor pattern.
    # Both sides are bound handles on the *same* plan, so the timed gap
    # is purely numeric phase vs dense oracle.
    spgemm_work = []
    for side in SPGEMM_GRIDS:
        a = poisson2d(side)
        pattern = fsai_initial_pattern(a)
        x_data = compute_g(a, pattern).data
        plan = plan_spgemm(pattern, a.pattern, cap=pattern)
        spgemm_work.append((plan, x_data, a.data))
    n_spgemm_products = sum(plan.n_products for plan, _, _ in spgemm_work)

    def spgemm_side(backend_name):
        ops = [
            (get_backend(backend_name).spgemm_op(plan=plan), x_data, a_data)
            for plan, x_data, a_data in spgemm_work
        ]
        def run():
            for op, x_data, a_data in ops:
                for _ in range(SPGEMM_ROUNDS):
                    op(x_data, a_data)
        return run

    # Serving workload for the multi-RHS gate: (k, n) row blocks, one
    # right-hand side per row, whose rows are also the looped side's
    # vectors; applications built (and their kernel handles bound)
    # outside every timed window.  The block is drawn (n, k) and
    # transposed, which keeps the seeded values of the earlier records.
    rng = np.random.default_rng(11)
    multi_work = []
    for side in MULTI_RHS_GRIDS:
        a = poisson2d(side)
        g = compute_g(a, fsai_initial_pattern(a))
        block = np.ascontiguousarray(
            rng.standard_normal((a.n_rows, MULTI_RHS_WIDTH)).T
        )
        cols = list(block)
        blocks = {k: block[:k] for k in MULTI_RHS_WIDTHS}
        multi_work.append((a, g, blocks, cols))

    def multi_ref():
        apps = [FSAIApplication(g) for _, g, _, _ in multi_work]
        def run():
            for (a, _, _, cols), app in zip(multi_work, apps):
                for c in cols:
                    pcg(a, c, preconditioner=app, rtol=0.0, atol=0.0,
                        max_iterations=PCG_ITERATIONS, record_history=False)
        return run

    def multi_opt(width):
        apps = [FSAIApplication(g) for _, g, _, _ in multi_work]
        def run():
            for (a, _, blocks, _), app in zip(multi_work, apps):
                pcg_multi(a, blocks[width], preconditioner=app,
                          rtol=0.0, atol=0.0,
                          max_iterations=PCG_ITERATIONS,
                          record_history=False)
        return run

    # Width sweep first: RHS/sec per block width goes into the component
    # detail (and the artifact) so throughput scaling is visible next to
    # the gated ratio.
    rhs_per_sec = {}
    for width in MULTI_RHS_WIDTHS:
        fn = multi_opt(width)
        fn()
        seconds, _ = min_over_repetitions(
            fn, repetitions=KERNEL_REPETITIONS
        )
        rhs_per_sec[width] = width * len(multi_work) / seconds

    components = [
        _component(
            "stack_distances", f"{len(traces)} traces, {n_accesses} accesses",
            stackdist("reference"), stackdist("vector"),
        ),
        _component(
            "cache_replay",
            f"L1 {l1.n_sets}x{l1.associativity}, {len(traces)} full traces, "
            "cold cache, masks equal",
            cache_replay("reference"), cache_replay("vector"),
            floor=MIN_CACHE_REPLAY_SPEEDUP,
        ),
        _component(
            "spgemm",
            f"{len(spgemm_work)} capped plans (grids "
            + "/".join(str(s) for s in SPGEMM_GRIDS)
            + f"), {n_spgemm_products} products x {SPGEMM_ROUNDS} rounds, "
            f"dense oracle vs {get_backend('auto').name} numeric phase",
            spgemm_side("reference"), spgemm_side("auto"),
            repetitions=KERNEL_REPETITIONS, floor=MIN_SPGEMM_SPEEDUP,
        ),
        _component(
            "pcg_multi_rhs",
            f"{len(multi_work)} systems x {MULTI_RHS_WIDTH} rhs x "
            f"{PCG_ITERATIONS} iterations, numpy backend; rhs/sec "
            + ", ".join(
                f"k={k}: {rhs_per_sec[k]:.0f}" for k in MULTI_RHS_WIDTHS
            ),
            multi_ref(), multi_opt(MULTI_RHS_WIDTH),
            repetitions=KERNEL_REPETITIONS, floor=MIN_MULTI_RHS_SPEEDUP,
        ),
    ]

    # Serving component: the same small operators, but the optimized side
    # runs the *entire* dispatcher — admission, micro-batching window,
    # cached setup, blocked solve, completion — against a round-robin
    # mixed stream (consecutive requests never share an operator, so all
    # batching comes from the window).  The serial side solves the same
    # columns one at a time with prebuilt applications: the cost of not
    # having a server.  _component's untimed warmup primes the service's
    # preconditioner cache, so the timed windows measure steady state.
    serve_mats = [poisson2d(side) for side in MULTI_RHS_GRIDS]
    serve_apps = [
        FSAIApplication(compute_g(a, fsai_initial_pattern(a)))
        for a in serve_mats
    ]
    serve_rng = np.random.default_rng(13)
    serve_cols = [
        [
            np.ascontiguousarray(serve_rng.standard_normal(a.n_rows))
            for _ in range(SERVE_REQUESTS_PER_OP)
        ]
        for a in serve_mats
    ]

    def serve_ref():
        for a, app, cols in zip(serve_mats, serve_apps, serve_cols):
            for c in cols:
                pcg(a, c, preconditioner=app, rtol=0.0, atol=0.0,
                    max_iterations=SERVE_ITERATIONS, record_history=False)

    client = InProcessClient(
        window_seconds=SERVE_WINDOW_SECONDS,
        max_batch=SERVE_REQUESTS_PER_OP,
        queue_capacity=4 * SERVE_REQUESTS_PER_OP * len(serve_mats),
    )
    client.start()
    try:
        serve_fps = [client.register(a) for a in serve_mats]
        serve_stream = [
            (fp, cols[j])
            for j in range(SERVE_REQUESTS_PER_OP)
            for fp, cols in zip(serve_fps, serve_cols)
        ]

        def serve_opt():
            client.solve_many(
                serve_stream, rtol=0.0, max_iterations=SERVE_ITERATIONS
            )

        timed_serve = _component(
            "serve_throughput", "", serve_ref, serve_opt,
            repetitions=KERNEL_REPETITIONS, floor=MIN_SERVE_SPEEDUP,
        )
        serve_snapshot = client.snapshot()
    finally:
        client.close()
    n_serve_requests = len(serve_stream)
    serve_p99 = serve_snapshot["latency_seconds"]["p99"]
    serve_rhs_per_sec = n_serve_requests / timed_serve.optimized_seconds
    components.append(RegressionComponent(
        name=timed_serve.name,
        reference_seconds=timed_serve.reference_seconds,
        optimized_seconds=timed_serve.optimized_seconds,
        detail=(
            f"{n_serve_requests} requests over {len(serve_mats)} operators "
            f"x {SERVE_ITERATIONS} iterations, mixed round-robin stream; "
            f"served {serve_rhs_per_sec:.0f} rhs/sec vs serial "
            f"{n_serve_requests / timed_serve.reference_seconds:.0f}; "
            f"p99 latency {serve_p99 * 1e3:.2f} ms, mean batch "
            f"{serve_snapshot['mean_batch_size']:.1f}"
        ),
    ))

    # Multi-process serving component: the identical stream, single-
    # process dispatcher (reference) vs the fingerprint-sharded
    # 4-worker pool (optimized).  Both clients stay live across the
    # interleaved repetitions so worker spawn and operator publication
    # are one-time setup, exactly like a long-running service.
    sp_client = InProcessClient(
        window_seconds=SERVE_WINDOW_SECONDS,
        max_batch=SERVE_REQUESTS_PER_OP,
        queue_capacity=4 * SERVE_REQUESTS_PER_OP * len(serve_mats),
    )
    sp_client.start()
    mp_client = MultiProcessClient(
        SERVE_MP_WORKERS,
        window_seconds=SERVE_WINDOW_SECONDS,
        max_batch=SERVE_REQUESTS_PER_OP,
        queue_capacity=4 * SERVE_REQUESTS_PER_OP * len(serve_mats),
    )
    mp_client.start()
    try:
        sp_fps = [sp_client.register(a) for a in serve_mats]
        mp_fps = [mp_client.register(a) for a in serve_mats]
        sp_stream = [
            (fp, cols[j])
            for j in range(SERVE_REQUESTS_PER_OP)
            for fp, cols in zip(sp_fps, serve_cols)
        ]
        mp_stream = [
            (fp, cols[j])
            for j in range(SERVE_REQUESTS_PER_OP)
            for fp, cols in zip(mp_fps, serve_cols)
        ]

        def serve_sp():
            sp_client.solve_many(
                sp_stream, rtol=0.0, max_iterations=SERVE_ITERATIONS
            )

        def serve_mp():
            mp_client.solve_many(
                mp_stream, rtol=0.0, max_iterations=SERVE_ITERATIONS
            )

        n_cores = os.cpu_count() or 1
        mp_gated = n_cores >= SERVE_MP_GATE_CORES
        timed_mp = _component(
            "serve_throughput_mp", "", serve_sp, serve_mp,
            repetitions=REPETITIONS,
            floor=MIN_SERVE_MP_SPEEDUP if mp_gated else None,
        )
        mp_snapshot = mp_client.snapshot()
    finally:
        mp_client.close()
        sp_client.close()
    mp_rhs_per_sec = len(mp_stream) / timed_mp.optimized_seconds
    components.append(RegressionComponent(
        name=timed_mp.name,
        reference_seconds=timed_mp.reference_seconds,
        optimized_seconds=timed_mp.optimized_seconds,
        detail=(
            f"{len(mp_stream)} requests, fingerprint-sharded pool vs "
            f"single-process dispatcher; host_cores={n_cores} "
            f"workers={SERVE_MP_WORKERS}; pool {mp_rhs_per_sec:.0f} "
            f"rhs/sec, mean batch {mp_snapshot['mean_batch_size']:.1f}, "
            f"respawns {mp_snapshot['respawns']}; "
            + (
                f">= {MIN_SERVE_MP_SPEEDUP:.0f}x gate armed"
                if mp_gated else
                f">= {MIN_SERVE_MP_SPEEDUP:.0f}x gate waived "
                f"(needs >= {SERVE_MP_GATE_CORES} cores)"
            )
        ),
        # On a small host the ratio measures scheduling overhead, not
        # scaling: record it for the trajectory, never judge it.
        informational=not mp_gated,
    ))

    # One traced pass over the optimized composite: the record then carries
    # a per-phase breakdown next to the timings (ISSUE 3 observability),
    # including one §5 precalc -> filter -> exact setup on the default path.
    _, pa, ppat = work[0]
    pext = extend_pattern_cache_friendly(ppat, ArrayPlacement.aligned(64))
    pb = np.random.default_rng(7).standard_normal(pa.n_rows)
    with trace.collecting() as collector:
        stackdist("vector")()
        setup()
        filtered = filter_extension_by_precalc(
            precalculate_g(pa, pext), ppat, FSAIE_FILTER
        )
        compute_g(pa, filtered)
        pcg(pa, pb, preconditioner=FSAIApplication(compute_g(pa, ppat)),
            rtol=0.0, atol=0.0, max_iterations=3, record_history=False)
        ma, mg, mblocks, _ = multi_work[0]
        pcg_multi(ma, mblocks[MULTI_RHS_WIDTH],
                  preconditioner=FSAIApplication(mg), rtol=0.0, atol=0.0,
                  max_iterations=3, record_history=False)
    record = RegressionRecord(
        label="vectorized engine + kernel backends",
        scope=scope_note(),
        components=components,
        trace_summary=trace.TraceSummary.from_collector(collector),
        retired=RETIRED_COMPONENTS,
    )
    record.write(ARTIFACT)

    # pytest-benchmark wants one timed callable; re-time the optimized
    # composite so the bench table shows the new engine's cost.
    benchmark.pedantic(
        lambda: (stackdist("vector")(), setup()),
        rounds=1, iterations=1,
    )

    with capsys.disabled():
        print(f"\n[{scope_note()}] -> {ARTIFACT.name}")
        for line in record.summary_lines():
            print("  " + line)

    benchmark.extra_info["composite_speedup"] = round(record.speedup, 2)
    benchmark.extra_info["multi_rhs_per_sec"] = {
        f"k={k}": round(rhs_per_sec[k], 1) for k in MULTI_RHS_WIDTHS
    }
    benchmark.extra_info["serve_rhs_per_sec"] = round(serve_rhs_per_sec, 1)
    benchmark.extra_info["serve_p99_ms"] = round(serve_p99 * 1e3, 3)
    by_name = {c.name: c for c in components}
    assert by_name["pcg_multi_rhs"].speedup >= MIN_MULTI_RHS_SPEEDUP, (
        f"pcg_multi_rhs speedup {by_name['pcg_multi_rhs'].speedup:.2f}x "
        f"fell below {MIN_MULTI_RHS_SPEEDUP:.1f}x — see {ARTIFACT}"
    )
    assert by_name["spgemm"].speedup >= MIN_SPGEMM_SPEEDUP, (
        f"spgemm speedup {by_name['spgemm'].speedup:.2f}x "
        f"fell below {MIN_SPGEMM_SPEEDUP:.1f}x — see {ARTIFACT}"
    )
    assert by_name["serve_throughput"].speedup >= MIN_SERVE_SPEEDUP, (
        f"serve_throughput speedup {by_name['serve_throughput'].speedup:.2f}x "
        f"fell below {MIN_SERVE_SPEEDUP:.1f}x — see {ARTIFACT}"
    )
    # Pool health is asserted unconditionally; the scaling floor only
    # where the host can physically provide it.
    assert mp_snapshot["respawns"] == 0, (
        f"{mp_snapshot['respawns']} worker respawn(s) during the "
        f"serve_throughput_mp windows — workers are crashing under load"
    )
    if mp_gated:
        assert (
            by_name["serve_throughput_mp"].speedup >= MIN_SERVE_MP_SPEEDUP
        ), (
            "serve_throughput_mp speedup "
            f"{by_name['serve_throughput_mp'].speedup:.2f}x fell below "
            f"{MIN_SERVE_MP_SPEEDUP:.1f}x at {SERVE_MP_WORKERS} workers "
            f"on {n_cores} cores — see {ARTIFACT}"
        )
    assert by_name["cache_replay"].speedup >= MIN_CACHE_REPLAY_SPEEDUP, (
        f"cache_replay speedup {by_name['cache_replay'].speedup:.2f}x "
        f"fell below {MIN_CACHE_REPLAY_SPEEDUP:.1f}x — see {ARTIFACT}"
    )
    assert record.speedup >= MIN_COMPOSITE_SPEEDUP, (
        f"composite speedup {record.speedup:.2f}x fell below "
        f"{MIN_COMPOSITE_SPEEDUP:.0f}x — see {ARTIFACT}"
    )
