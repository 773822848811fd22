"""Preconditioner protocol and trivial baselines.

The PCG solver only needs ``apply(r) -> z`` (an approximation of
``A^{-1} r``) plus a flop estimate for the cost model.  FSAI implements this
protocol in :mod:`repro.fsai.precond`; the baselines here exist for
comparison and testing.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro._typing import FloatArray
from repro.errors import NotSPDError, ShapeError
from repro.sparse.csr import CSRMatrix

__all__ = ["Preconditioner", "IdentityPreconditioner", "JacobiPreconditioner"]


@runtime_checkable
class Preconditioner(Protocol):
    """Anything PCG can use: application plus a per-application flop count.

    Implementations may additionally offer ``apply_into(r, out)`` writing
    the result into a caller-owned buffer; the PCG loop uses it when
    present, so no result vector is allocated per application (all
    shipped preconditioners do).
    """

    def apply(self, r: FloatArray) -> FloatArray:
        """Return ``z ≈ A^{-1} r``."""
        ...

    def flops_per_application(self) -> int:
        """Floating-point operations per :meth:`apply` call."""
        ...


class IdentityPreconditioner:
    """No-op preconditioner: PCG degenerates to plain CG."""

    def __init__(self, n: int) -> None:
        self.n = int(n)

    def apply(self, r: FloatArray) -> FloatArray:
        if r.shape != (self.n,):
            raise ShapeError(f"expected vector of length {self.n}")
        return r.copy()

    def apply_into(self, r: FloatArray, out: FloatArray) -> FloatArray:
        """``out[:] = r`` — the allocation-free variant."""
        if r.shape != (self.n,):
            raise ShapeError(f"expected vector of length {self.n}")
        np.copyto(out, r)
        return out

    def apply_multi_into(self, r: FloatArray, out: FloatArray) -> FloatArray:
        """Blocked :meth:`apply_into` over a ``(k, n)`` residual block."""
        if r.ndim != 2 or r.shape[1] != self.n:
            raise ShapeError(f"expected (k, n) block with n={self.n}")
        np.copyto(out, r)
        return out

    def flops_per_application(self) -> int:
        return 0

    def __repr__(self) -> str:
        return f"IdentityPreconditioner(n={self.n})"


class JacobiPreconditioner:
    """Diagonal scaling ``z = D^{-1} r`` — the cheapest classical baseline.

    The paper cites Block-Jacobi as the entry-level preconditioner family
    (§1); plain Jacobi is the 1×1 block case and is used in tests to check
    that FSAI beats it on iteration counts for non-trivially conditioned
    systems.
    """

    def __init__(self, matrix: CSRMatrix) -> None:
        diag = matrix.diagonal()
        if np.any(diag <= 0):
            raise NotSPDError("Jacobi requires a positive diagonal")
        self._inv_diag = 1.0 / diag
        self.n = matrix.n_rows

    def apply(self, r: FloatArray) -> FloatArray:
        if r.shape != (self.n,):
            raise ShapeError(f"expected vector of length {self.n}")
        return r * self._inv_diag

    def apply_into(self, r: FloatArray, out: FloatArray) -> FloatArray:
        """``out = D^{-1} r`` without allocating the result."""
        if r.shape != (self.n,):
            raise ShapeError(f"expected vector of length {self.n}")
        np.multiply(r, self._inv_diag, out=out)
        return out

    def apply_multi_into(self, r: FloatArray, out: FloatArray) -> FloatArray:
        """Blocked :meth:`apply_into`: ``D^{-1}`` times each row of a block."""
        if r.ndim != 2 or r.shape[1] != self.n:
            raise ShapeError(f"expected (k, n) block with n={self.n}")
        np.multiply(r, self._inv_diag, out=out)
        return out

    def flops_per_application(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"JacobiPreconditioner(n={self.n})"
