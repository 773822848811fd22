"""E-A14 — the L1 replay is exact on production traces.

Every modelled cost, Figure 3 number and EXPERIMENTS value rests on the
hit masks of ``repro.cachesim.cache.replay``.  This bench replays the
traces the experiments generate through both backends — the vectorized
window scan and the per-access ``OrderedDict`` oracle — and asserts
byte-identical hit masks:

* per case, the SpMV trace of ``A`` and the ``G^T(G p)`` traces of FSAI
  and of FSAIE(full) at filter 0.01 (the extension depends on the line
  size, so each line size gets its own FSAIE(full) factor);
* each trace at the 1/8-scale (campaign default) and the full L1 of
  Skylake, POWER9 and A64FX.

Quick mode covers the 12-case cross-section; ``REPRO_BENCH_FULL=1`` covers
all 72 cases.  The oracle's wall time dominates; the engine's share is
printed beside it.
"""

import time

import numpy as np

from benchmarks.conftest import BENCH_CASE_IDS, scope_note
from repro.arch.address import ArrayPlacement
from repro.arch.presets import A64FX, POWER9, SKYLAKE
from repro.cachesim.cache import replay
from repro.cachesim.trace import fsai_apply_trace, spmv_trace
from repro.collection.suite import get_case, suite72
from repro.fsai.extended import setup_fsai, setup_fsaie_full
from repro.perf.costmodel import scale_caches

CASE_IDS = BENCH_CASE_IDS or tuple(c.case_id for c in suite72())
MACHINES = (SKYLAKE, POWER9, A64FX)
CACHE_SCALES = (0.125, 1.0)
FSAIE_FILTER = 0.01


def _traces(a, fsai_g, line_bytes):
    """``A``'s SpMV trace and the FSAI / FSAIE(full) application traces."""
    placement = ArrayPlacement.aligned(line_bytes)
    full = setup_fsaie_full(a, placement, filter_value=FSAIE_FILTER)
    out = [spmv_trace(a.pattern, placement).lines]
    for app in (fsai_g, full.application):
        out.append(
            fsai_apply_trace(app.g_pattern, app.gt_pattern, placement).lines
        )
    return out


def test_replay_exactness(capsys):
    start = time.perf_counter()
    engine_s = oracle_s = 0.0
    n_traces = n_accesses = 0
    for case_id in CASE_IDS:
        a = get_case(case_id).build()
        fsai = setup_fsai(a).application
        by_line = {}
        for machine in MACHINES:
            lb = machine.line_bytes
            if lb not in by_line:
                by_line[lb] = _traces(a, fsai, lb)
            for scale in CACHE_SCALES:
                l1 = scale_caches(machine, scale).cache_levels[0]
                for lines in by_line[lb]:
                    t0 = time.perf_counter()
                    vec = replay(lines, l1)
                    t1 = time.perf_counter()
                    ref = replay(lines, l1, backend="reference")
                    oracle_s += time.perf_counter() - t1
                    engine_s += t1 - t0
                    assert np.array_equal(vec, ref), (
                        f"case {case_id} {machine.name} scale {scale}: "
                        f"{int((vec != ref).sum())} of {len(lines)} "
                        "hit flags differ"
                    )
                    n_traces += 1
                    n_accesses += len(lines)
    wall = time.perf_counter() - start
    with capsys.disabled():
        print(
            f"\n[{scope_note()}] {n_traces} traces, {n_accesses} accesses: "
            f"masks equal; engine {engine_s:.2f} s, oracle {oracle_s:.2f} s, "
            f"wall {wall:.1f} s"
        )
    assert n_traces == len(CASE_IDS) * len(MACHINES) * len(CACHE_SCALES) * 3
