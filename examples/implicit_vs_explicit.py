"""Implicit vs explicit preconditioning: why the paper bets on FSAI (§1).

Compares IC(0) — the classic *implicit* preconditioner, applied through
sparse triangular solves — against the *explicit* FSAI family on one
matrix:

* iteration counts (IC(0) usually wins numerically at equal pattern);
* the parallelism structure: level sets of the triangular solve vs the
  single level of an SpMV;
* modelled application time on a 48-core machine, where the triangular
  solve's critical path erases its numerical advantage.

Run:  python examples/implicit_vs_explicit.py
"""

import numpy as np

from repro.arch import SKYLAKE, ArrayPlacement
from repro.collection import poisson2d
from repro.fsai import setup_fsai, setup_fsaie_full
from repro.solvers import IncompleteCholeskyPreconditioner, pcg
from repro.solvers.sptrsv import level_schedule_stats

LEVEL_SYNC_SECONDS = 2e-7  # per-level barrier cost of a level-scheduled solve


def apply_seconds(nnz_work: int, n_levels: int) -> float:
    return 2.0 * nnz_work / SKYLAKE.spmv_flops + n_levels * LEVEL_SYNC_SECONDS


def main() -> None:
    a = poisson2d(40)
    rng = np.random.default_rng(0)
    b = rng.uniform(-1, 1, a.n_rows) / a.max_norm()
    print(f"matrix: n={a.n_rows}, nnz={a.nnz} (2D Poisson)\n")

    placement = ArrayPlacement.aligned(SKYLAKE.line_bytes)
    candidates = {
        "IC(0)": IncompleteCholeskyPreconditioner(a),
        "FSAI": setup_fsai(a).application,
        "FSAIE(full)": setup_fsaie_full(
            a, placement, filter_value=0.01
        ).application,
    }

    print(f"{'method':>12} {'iters':>6} {'solve levels':>13} "
          f"{'t/apply (48c)':>14} {'t total':>10}")
    for name, pre in candidates.items():
        res = pcg(a, b, preconditioner=pre)
        assert res.converged
        if isinstance(pre, IncompleteCholeskyPreconditioner):
            levels, _ = pre.parallel_levels()
            nnz_work = 2 * pre.factor.nnz
        else:
            levels = 1  # SpMV: all rows independent
            nnz_work = 2 * pre.g.nnz
        t_apply = apply_seconds(nnz_work, levels)
        print(
            f"{name:>12} {res.iterations:>6} {levels:>13} "
            f"{t_apply:>14.3e} {res.iterations * t_apply:>10.3e}"
        )

    levels, avg = level_schedule_stats(
        candidates["IC(0)"].factor.pattern
    )
    print(
        f"\nIC(0)'s triangular solve exposes only ~{avg:.0f} rows per level "
        f"across {levels} dependent levels; FSAI's two SpMVs have no "
        "dependencies at all — the architectural argument of the paper's §1."
    )


if __name__ == "__main__":
    main()
