"""Iterative and direct solvers.

* :func:`~repro.solvers.cg.cg` / :func:`~repro.solvers.cg.pcg` — the paper's
  Conjugate Gradient solver (§2.1), instrumented with residual history and
  flop counts.  The small dense SPD systems of the FSAI setup (the role
  MKL / LAPACK / OpenBLAS play in the paper's §7.1) are the batched
  ``fsai_setup`` kernel op, not a solver here.
* :mod:`~repro.solvers.preconditioners` — trivial baselines (identity,
  Jacobi) against which FSAI is sanity-checked.
"""

from repro.solvers.convergence import (
    ConvergenceHistory,
    MultiSolveResult,
    SolveResult,
)
from repro.solvers.cg import cg, pcg, pcg_multi
from repro.solvers.sptrsv import (
    level_schedule_stats,
    level_sets,
    sparse_backward_substitution,
    sparse_forward_substitution,
)
from repro.solvers.ichol import IncompleteCholeskyPreconditioner, ichol0
from repro.solvers.preconditioners import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    Preconditioner,
)

__all__ = [
    "ConvergenceHistory",
    "MultiSolveResult",
    "SolveResult",
    "cg",
    "pcg",
    "pcg_multi",
    "sparse_forward_substitution",
    "sparse_backward_substitution",
    "level_sets",
    "level_schedule_stats",
    "ichol0",
    "IncompleteCholeskyPreconditioner",
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
]
