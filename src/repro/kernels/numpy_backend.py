"""Improved pure-NumPy kernel backend.

Four SpMV strategies, picked per matrix in the spirit of OSKI's
structure-driven format selection:

* **DIA fast path** — stencil matrices (entries on a handful of
  diagonals, the discretized-PDE shape of the paper's suite) cache a
  diagonal view (:meth:`~repro.sparse.csr.CSRMatrix.dia_view`) whose
  product needs *no gather at all*: shifted contiguous windows of a
  padded input against the diagonal data, one ``einsum`` row-dot.
  Accumulation stays in column order, so the result is bit-identical to
  the reference kernel.
* **HYB fast path** — almost-stencils (a dominant band plus scattered
  couplings, as boundary conditions produce) split into a DIA part for
  the well-occupied diagonals plus a remainder for the leftovers —
  row-padded ELL when the remainder pads cheaply, one gather +
  ``bincount`` scatter otherwise.  The split reorders accumulation
  (band terms first, scattered terms second), so the HYB path is
  float-associativity-accurate (1e-13), not bitwise.
* **ELL fast path** — when the matrix caches a row-padded view
  (:meth:`~repro.sparse.csr.CSRMatrix.ell_view`, built for large
  matrices with near-uniform row lengths, the FEM/stencil shape of the
  paper's suite), SpMV is one 2-D gather plus one ``einsum`` row-dot:
  two NumPy calls, no per-segment reduction machinery.  The transpose
  product uses the column-padded twin
  (:meth:`~repro.sparse.csr.CSRMatrix.ell_t_view`).
* **Segment-sum fallback** — ``np.add.reduceat`` over the CSR ``indptr``
  (one C pass writing straight into the caller's ``out`` buffer), and
  over the cached column-grouped view for the transpose.  Matrices with
  empty rows/columns take a corrected gather path (the one documented
  allocation); SPD systems and triangular FSAI factors never do.

The fallback preserves summation order exactly: ``bincount`` accumulates
entries in trace order — row-major within a row (SpMV) and row-major
within a column after the stable column sort (SpMV^T) — the same
sequential order ``reduceat`` uses, so reference and numpy backends
agree bit for bit there.  The ELL row-dot may reassociate long-row sums
(pairwise partial sums), which is why backend agreement is asserted to
1e-13 rather than bitwise on ELL/HYB-sized matrices.

The blocked kernels take a ``(k, n)`` block, one vector per row.  Only
the DIA part of a DIA or HYB view has a batched form
(:meth:`~repro.sparse.csr.DiaView.apply_multi`: one einsum per block of
rows under a fixed byte budget); every other format, and every HYB
remainder, runs the single-vector kernel on each row in turn.  Either
way each row of a blocked product is byte-identical to the
single-vector product of that row.

Beyond the per-call kernels, the backend overrides the bound-handle
constructors (:meth:`spmv_op` / :meth:`fsai_apply_op` and their blocked
twins): format dispatch and view lookup happen once when the handle is
built, so the CG loop's per-iteration product is a direct call into the
resolved view.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro._einsum import _einsum
from repro.kernels.base import KernelBackend
from repro.kernels.reference import _gather_product

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Workspace-aware ``np.add.reduceat`` kernels (default backend)."""

    name = "numpy"

    def _spmv(self, a: Any, x: np.ndarray, out: np.ndarray,
              scratch: Optional[np.ndarray]) -> np.ndarray:
        if len(a.data) == 0:
            out[:] = 0.0
            return out
        dia = a.dia_view()
        if dia is not None:  # stencil fast path: no gather at all
            return dia.apply(x, out)
        ell = a.ell_view()
        if ell is not None:  # padded fast path: gather + einsum row-dot
            _einsum("ij,ij->i", ell.data, x.take(ell.gather_ids), out=out)
            return out
        prod = _gather_product(a.data, x, a.indices, scratch)
        starts, rows = a.row_segments()
        if rows is None:  # no empty rows: one reduceat straight into out
            np.add.reduceat(prod, starts, out=out)
        else:
            out[:] = 0.0
            out[rows] = np.add.reduceat(prod, starts)
        return out

    def _spmv_t(self, a: Any, x: np.ndarray, out: np.ndarray,
                scratch: Optional[np.ndarray]) -> np.ndarray:
        if len(a.data) == 0:
            out[:] = 0.0
            return out
        dia = a.dia_t_view()
        if dia is not None:
            return dia.apply(x, out)
        ell = a.ell_t_view()
        if ell is not None:
            _einsum("ij,ij->i", ell.data, x.take(ell.gather_ids), out=out)
            return out
        seg = a.col_segments()
        prod = _gather_product(seg.data, x, seg.rows, scratch)
        if seg.cols is None:  # no empty columns
            np.add.reduceat(prod, seg.starts, out=out)
        else:
            out[:] = 0.0
            out[seg.cols] = np.add.reduceat(prod, seg.starts)
        return out

    def _spmm(self, a: Any, x: np.ndarray, out: np.ndarray,
              scratch: Optional[np.ndarray]) -> np.ndarray:
        dia = a.dia_view()
        if dia is not None:  # stencil: one windowed einsum per row block
            return dia.apply_multi(x, out)
        return super()._spmm(a, x, out, scratch)

    def _spmm_t(self, a: Any, x: np.ndarray, out: np.ndarray,
                scratch: Optional[np.ndarray]) -> np.ndarray:
        dia = a.dia_t_view()
        if dia is not None:
            return dia.apply_multi(x, out)
        return super()._spmm_t(a, x, out, scratch)

    def spmv_op(self, a: Any, scratch: Optional[np.ndarray] = None):
        # Resolve the format once: repeated products (the CG loop) then
        # jump straight into the bound view with zero dispatch overhead.
        dia = a.dia_view()
        if dia is not None:
            return dia.apply
        return super().spmv_op(a, scratch)

    def spmm_op(self, a: Any, scratch: Optional[np.ndarray] = None):
        dia = a.dia_view()
        if dia is not None:
            return dia.apply_multi
        return super().spmm_op(a, scratch)

    def fsai_apply_op(self, g: Any, tmp: np.ndarray,
                      scratch: Optional[np.ndarray] = None):
        dia, dia_t = g.dia_view(), g.dia_t_view()
        if dia is not None and dia_t is not None:
            def op(r: np.ndarray, out: np.ndarray) -> np.ndarray:
                dia.apply(r, tmp)
                return dia_t.apply(tmp, out)
            return op
        return super().fsai_apply_op(g, tmp, scratch)

    def fsai_apply_multi_op(self, g: Any, tmp: np.ndarray,
                            scratch: Optional[np.ndarray] = None):
        dia, dia_t = g.dia_view(), g.dia_t_view()
        if dia is not None and dia_t is not None:
            def op(r: np.ndarray, out: np.ndarray) -> np.ndarray:
                dia.apply_multi(r, tmp)
                return dia_t.apply_multi(tmp, out)
            return op
        return super().fsai_apply_multi_op(g, tmp, scratch)

    def _fsai_apply(self, g: Any, r: np.ndarray, out: np.ndarray,
                    tmp: Optional[np.ndarray],
                    scratch: Optional[np.ndarray]) -> np.ndarray:
        # One pass over G's structure per product, intermediate in ``tmp``,
        # gather products recycled through the single ``scratch`` buffer —
        # zero allocations when the workspaces are supplied.
        if tmp is None:
            tmp = np.empty(g.n_rows)
        self._spmv(g, r, tmp, scratch)
        return self._spmv_t(g, tmp, out, scratch)

    def pcg_step(self, alpha: float, x: np.ndarray, d: np.ndarray,
                 r: np.ndarray, q: np.ndarray,
                 work: Optional[np.ndarray] = None) -> float:
        if work is None:
            x += alpha * d
            r -= alpha * q
        else:
            np.multiply(d, alpha, out=work)
            np.add(x, work, out=x)
            np.multiply(q, alpha, out=work)
            np.subtract(r, work, out=r)
        return float(np.dot(r, r))

    def pcg_direction(self, beta: float, d: np.ndarray, z: np.ndarray) -> None:
        np.multiply(d, beta, out=d)
        np.add(d, z, out=d)
