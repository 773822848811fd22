"""Extension — §1's motivating trade-off: FSAI vs incomplete Cholesky.

The paper's case for (F)SAI preconditioners is architectural, not
numerical: applying FSAI is two SpMVs ("highly parallel"), while implicit
preconditioners like IC(0) apply via sparse triangular solves whose
row-to-row dependencies serialise execution.  This bench quantifies both
sides on suite matrices:

* numerically, IC(0) needs at most about as many iterations as
  same-pattern FSAI (often fewer);
* architecturally, the triangular solve's dependency graph has many level
  sets (critical path >> 1) while FSAI's SpMV has exactly one — so at the
  paper's 48-core scale the modelled FSAI application wins despite the
  iteration handicap.
"""

import numpy as np

from benchmarks.conftest import BENCH_CASE_IDS, scope_note
from repro.arch.presets import SKYLAKE
from repro.collection.suite import get_case
from repro.experiments.runner import make_rhs
from repro.fsai.extended import setup_fsai
from repro.solvers.cg import pcg
from repro.solvers.ichol import IncompleteCholeskyPreconditioner

CASE_IDS = (BENCH_CASE_IDS or tuple(range(1, 73)))[:6]

#: Per-level synchronisation cost of a level-scheduled triangular solve,
#: seconds (barrier + load latency at ~GHz clocks).
LEVEL_SYNC_SECONDS = 2e-7


def modelled_apply_seconds(nnz_work: int, n_levels: int, machine) -> float:
    """Parallel application time: work shared by cores + critical path."""
    work = 2.0 * nnz_work / machine.spmv_flops
    return work + n_levels * LEVEL_SYNC_SECONDS


def test_implicit_vs_fsai(benchmark, capsys):
    a0 = get_case(CASE_IDS[0]).build()
    benchmark.pedantic(
        lambda: IncompleteCholeskyPreconditioner(a0), rounds=2, iterations=1
    )

    rows = []
    for cid in CASE_IDS:
        a = get_case(cid).build()
        b = make_rhs(a, seed=2021 + cid)
        fsai = setup_fsai(a)
        ic = IncompleteCholeskyPreconditioner(a)
        r_fsai = pcg(a, b, preconditioner=fsai.application)
        r_ic = pcg(a, b, preconditioner=ic)
        assert r_fsai.converged and r_ic.converged
        ic_levels, _ = ic.parallel_levels()
        fsai_apply = modelled_apply_seconds(
            2 * fsai.application.g.nnz, 1, SKYLAKE
        )
        ic_apply = modelled_apply_seconds(
            2 * ic.factor.nnz, ic_levels, SKYLAKE
        )
        rows.append((
            cid, r_fsai.iterations, r_ic.iterations, ic_levels,
            r_fsai.iterations * fsai_apply, r_ic.iterations * ic_apply,
        ))

    with capsys.disabled():
        print(f"\n[{scope_note()}] FSAI vs IC(0): iterations / parallelism (§1)")
        print(f"{'case':>5} {'FSAI it':>8} {'IC it':>6} {'IC levels':>10} "
              f"{'FSAI precond t':>15} {'IC precond t':>13}")
        for cid, fi, ii, lv, tf, ti in rows:
            print(f"{cid:>5} {fi:>8} {ii:>6} {lv:>10} {tf:>15.3e} {ti:>13.3e}")

    for cid, fsai_it, ic_it, ic_levels, t_fsai, t_ic in rows:
        # Numerically IC(0) is competitive (allow small slack).
        assert ic_it <= 1.3 * fsai_it + 5, cid
        # Architecturally the solve serialises: many level sets...
        assert ic_levels > 5, cid
        # ...so the modelled parallel preconditioning time favours FSAI.
        assert t_fsai < t_ic, cid

    benchmark.extra_info["mean_ic_levels"] = round(
        float(np.mean([r[3] for r in rows])), 1
    )
