"""Convergence tracking for iterative solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro._typing import FloatArray

__all__ = ["ConvergenceHistory", "MultiSolveResult", "SolveResult"]


@dataclass
class ConvergenceHistory:
    """Residual-norm history of one iterative solve.

    ``norms[k]`` is ``‖r_k‖₂`` *before* iteration ``k`` (``norms[0]`` is the
    initial residual), so a solve that converges in ``m`` iterations records
    ``m + 1`` entries.
    """

    norms: List[float] = field(default_factory=list)

    def record(self, norm: float) -> None:
        self.norms.append(float(norm))

    @property
    def initial(self) -> float:
        return self.norms[0] if self.norms else float("nan")

    @property
    def final(self) -> float:
        return self.norms[-1] if self.norms else float("nan")

    @property
    def iterations(self) -> int:
        """Iterations performed (history length minus the initial record)."""
        return max(len(self.norms) - 1, 0)

    def relative(self) -> FloatArray:
        """History normalised by the initial residual."""
        arr = np.asarray(self.norms)
        return arr / arr[0] if len(arr) and arr[0] > 0 else arr

    def reduction_order(self) -> float:
        """Orders of magnitude of residual reduction achieved."""
        if len(self.norms) < 2 or self.initial == 0:
            return 0.0
        if self.final == 0:
            return float("inf")
        return float(np.log10(self.initial / self.final))


@dataclass
class SolveResult:
    """Outcome of a CG / PCG solve.

    Attributes
    ----------
    x:
        Final iterate.
    converged:
        True iff the *recurrence* residual met the tolerance within the
        budget.  It is not recomputed from ``b - A x``: on a badly scaled
        system the recurrence can drift far from the true residual, and
        :attr:`true_relative_residual` is where that shows.
    iterations:
        CG iterations performed.
    residual_norm:
        Final recurrence ``‖r‖₂``.
    relative_residual:
        ``‖r‖₂ / ‖r₀‖₂`` (0 when ``r₀ = 0``).
    history:
        Full residual trace (omitted when ``record_history=False``).
    flops:
        Estimated floating-point operations of the iterations (SpMV,
        preconditioner application, dots, AXPYs); the exit residual
        check is not counted.
    true_relative_residual:
        ``‖b - A x‖₂ / ‖r₀‖₂`` for the returned ``x``, computed once at
        exit (0 when ``r₀ = 0``; NaN on results not built by a solver).
    """

    x: FloatArray
    converged: bool
    iterations: int
    residual_norm: float
    relative_residual: float
    history: Optional[ConvergenceHistory] = None
    flops: int = 0
    true_relative_residual: float = float("nan")

    def __repr__(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (
            f"SolveResult({status} in {self.iterations} iters, "
            f"rel_res={self.relative_residual:.3e})"
        )


@dataclass
class MultiSolveResult:
    """Outcome of a blocked multi-RHS PCG solve (:func:`repro.solvers.pcg_multi`).

    The block solver runs ``k`` mathematically independent PCG recurrences
    in lockstep, so each right-hand side has its own full
    :class:`SolveResult` — iterate, convergence flag, iteration count,
    residuals, optional history, flop estimate.  ``x`` stacks the
    iterates as the ``(k, n)`` solution block, one row per right-hand
    side.

    Attributes
    ----------
    x:
        ``(k, n)`` solution block; ``x[j]`` solves against ``B[j]``.
    columns:
        Per-right-hand-side :class:`SolveResult` in block-row order.
    """

    x: FloatArray
    columns: List[SolveResult]

    @property
    def converged(self) -> bool:
        """True iff every right-hand side converged within the budget."""
        return all(c.converged for c in self.columns)

    @property
    def iterations(self) -> int:
        """Largest per-row iteration count (the block's critical path)."""
        return max((c.iterations for c in self.columns), default=0)

    @property
    def flops(self) -> int:
        """Total estimated flops across all right-hand sides."""
        return sum(c.flops for c in self.columns)

    def __repr__(self) -> str:
        done = sum(c.converged for c in self.columns)
        return (
            f"MultiSolveResult({done}/{len(self.columns)} columns converged, "
            f"max {self.iterations} iters)"
        )
