"""FSAI application object: ``z = G^T (G r)``.

The paper stores ``G_ext`` and ``G_ext^T`` in CSR and performs two
row-order SpMVs (§4.3).  Here every builder — FSAIE(full) included —
returns ``FSAIApplication(g)``, and the application routes through the
kernel registry's fused
:meth:`~repro.kernels.base.KernelBackend.fsai_apply_op`, which performs both
products from ``G``'s stored structure alone (the scatter half uses the
cached column-grouped view), with all intermediates in preallocated
workspaces.  Only the *pattern* of ``G^T`` is ever materialised, lazily,
for the cache simulator, which replays the paper's two-SpMV layout.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro._typing import FloatArray
from repro.errors import ShapeError
from repro.kernels import get_backend
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import Pattern

__all__ = ["FSAIApplication"]


class FSAIApplication:
    """Preconditioner object satisfying the solver protocol.

    Parameters
    ----------
    g:
        Lower-triangular factor ``G`` in CSR.  The application is fused
        over ``G`` alone.
    """

    def __init__(self, g: CSRMatrix) -> None:
        if g.n_rows != g.n_cols:
            raise ShapeError("G must be square")
        self.g = g
        self.n = g.n_rows
        self._gt_pattern: Optional[Pattern] = None
        # Lazily-allocated workspaces: the fused-apply intermediate t = G r
        # and the gather scratch of both products.
        self._tmp: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None
        # The kernel backend is resolved once at first application and
        # pinned as a bound apply handle (a solver applies the
        # preconditioner thousands of times; re-reading the registry and
        # re-dispatching the format per apply is pure overhead).
        # Construct a fresh application to pick up a backend switch.
        self._apply_op = None
        # Blocked-apply handle and its (k, n) intermediate.  The handle
        # takes any block of up to k rows, so the multi-RHS solver's
        # shrinking block reuses it; only a wider block (in a solve, at
        # most its first application) rebinds.  The gather scratch is the
        # single-vector one, reused for every row.
        self._multi_op = None
        self._multi_tmp: Optional[np.ndarray] = None

    def _workspaces(self):
        if self._scratch is None:
            self._scratch = np.empty(self.g.nnz)
            self._tmp = np.empty(self.n)
        return self._tmp, self._scratch

    def apply(self, r: FloatArray) -> FloatArray:
        """``z = G^T (G r)`` — fused kernel-backend application."""
        return self.apply_into(r, np.empty(self.n))

    def apply_into(self, r: FloatArray, out: FloatArray) -> FloatArray:
        """As :meth:`apply`, writing into the caller's ``out`` buffer."""
        if r.shape != (self.n,):
            raise ShapeError(f"expected vector of length {self.n}")
        op = self._apply_op
        if op is None:
            op = self._apply_op = self._bind_apply()
        return op(r, out)

    def _bind_apply(self):
        """Resolve the backend and bind the fused-apply handle once."""
        tmp, scratch = self._workspaces()
        return get_backend().fsai_apply_op(self.g, tmp, scratch)

    def apply_multi_into(self, r: FloatArray, out: FloatArray) -> FloatArray:
        """Blocked ``out[j] = G^T (G r[j])`` over a ``(k, n)`` residual block."""
        if r.ndim != 2 or r.shape[1] != self.n:
            raise ShapeError(f"expected (k, n) block with n={self.n}")
        if self._multi_tmp is None or len(self._multi_tmp) < len(r):
            _, scratch = self._workspaces()
            self._multi_tmp = np.empty(r.shape)
            self._multi_op = get_backend().fsai_apply_multi_op(
                self.g, self._multi_tmp, scratch
            )
        return self._multi_op(r, out)

    def flops_per_application(self) -> int:
        """2 flops per stored entry and product."""
        return 4 * self.g.nnz

    @property
    def g_pattern(self) -> Pattern:
        """Pattern of the first product's matrix (``G``)."""
        return self.g.pattern

    @property
    def gt_pattern(self) -> Pattern:
        """Pattern of the second product's matrix (``G^T``), cached."""
        if self._gt_pattern is None:
            self._gt_pattern = self.g.pattern.transpose()
        return self._gt_pattern

    def as_explicit_inverse_approx(self) -> np.ndarray:
        """Dense ``G^T G`` — the explicit ``A^{-1}`` approximation.

        Only sensible for small matrices; used by tests to measure
        ``‖I − G L‖_F`` style quality metrics directly.
        """
        gd = self.g.to_dense()
        return gd.T @ gd

    def __repr__(self) -> str:
        return f"FSAIApplication(n={self.n}, nnz(G)={self.g.nnz})"
