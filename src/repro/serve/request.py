"""Request/response types crossing the serving boundary.

A request is ``(operator, rhs, tolerance)`` exactly as the ROADMAP frames
it: the operator side is a fingerprint into the service's
:class:`~repro.serve.operators.OperatorRegistry` (or an inline
:class:`~repro.sparse.csr.CSRMatrix` the service registers on the fly),
and the solver parameters default to the paper's §7.1 configuration.

Batching key: requests are micro-batched into one ``pcg_multi`` block
only when they share ``(operator, rtol, atol, max_iterations)`` — the
blocked solver runs per-row convergence tests against *scalar*
tolerances, so mixing tolerances inside one block would change results.
"""

from __future__ import annotations

import math
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.solvers.convergence import SolveResult
from repro.sparse.validate import require_finite, require_norm_in_range

__all__ = ["BatchKey", "PendingRequest", "ServeResult", "checked_rhs"]

#: ``(operator fingerprint, rtol, atol, max_iterations)`` — the grouping
#: key under which requests may share one blocked solve.
BatchKey = Tuple[str, float, float, int]


def checked_rhs(rhs: Any, n: int) -> np.ndarray:
    """A right-hand side as both serving ``submit`` methods admit it.

    Returns it as a contiguous float64 vector, or raises
    :class:`~repro.errors.ShapeError` for a length other than the
    operator's ``n`` and :class:`~repro.errors.MatrixFormatError` for a
    NaN or infinite entry or a 2-norm outside float64's range (the
    solvers' own initial-residual test), so a bad request fails alone
    instead of failing the block it would join.
    """
    rhs_arr = np.ascontiguousarray(rhs, dtype=np.float64)
    if rhs_arr.shape != (n,):
        raise ShapeError(
            f"rhs has shape {rhs_arr.shape}, operator expects ({n},)"
        )
    require_finite(rhs_arr, "rhs")
    require_norm_in_range(
        rhs_arr, math.sqrt(float(np.dot(rhs_arr, rhs_arr))), "rhs"
    )
    return rhs_arr


@dataclass
class PendingRequest:
    """One admitted request travelling from the queue to its batch.

    ``future`` resolves to a :class:`ServeResult` (or a
    :class:`~repro.errors.ServeError` subclass); ``submitted`` is the
    ``perf_counter`` timestamp taken at admission, from which queue wait
    and end-to-end latency are measured.
    """

    operator: str
    rhs: np.ndarray
    rtol: float
    atol: float
    max_iterations: int
    timeout: Optional[float]
    submitted: float
    future: "Future[ServeResult]"

    @property
    def batch_key(self) -> BatchKey:
        return (self.operator, self.rtol, self.atol, self.max_iterations)

    def expired(self, now: float) -> bool:
        """True when the per-request deadline passed before dispatch."""
        return (
            self.timeout is not None and now - self.submitted > self.timeout
        )


@dataclass(frozen=True)
class ServeResult:
    """What a client gets back for one request.

    Wraps the request's own :class:`~repro.solvers.convergence.SolveResult`
    (non-convergence is data, not an error — matching the offline
    campaign's semantics) plus serving-side observability: which
    operator served it, how wide the executed block was, and the
    end-to-end latency including queueing and batching delay.
    """

    result: SolveResult
    operator: str
    batch_size: int
    latency_seconds: float
    queued_seconds: float

    @property
    def x(self) -> np.ndarray:
        return self.result.x

    @property
    def converged(self) -> bool:
        return self.result.converged

    @property
    def iterations(self) -> int:
        return self.result.iterations

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able summary (solution vector included for the HTTP door)."""
        return {
            "operator": self.operator,
            "converged": self.result.converged,
            "iterations": self.result.iterations,
            "residual_norm": self.result.residual_norm,
            "relative_residual": self.result.relative_residual,
            "batch_size": self.batch_size,
            "latency_seconds": self.latency_seconds,
            "queued_seconds": self.queued_seconds,
            "x": [float(v) for v in self.result.x],
        }
