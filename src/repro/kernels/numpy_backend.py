"""Improved pure-NumPy kernel backend.

Three SpMV strategies, picked per matrix in the spirit of OSKI's
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
  the well-occupied diagonals plus a COO remainder for the leftovers,
  one gather + ``bincount`` scatter per product (a remainder that pads
  well sends the matrix to the ELL view instead).  The split reorders
  accumulation (band terms first, scattered terms second), so the HYB
  path is float-associativity-accurate (1e-13), not bitwise.
* **ELL** — every other matrix, of any size or shape, takes its
  row-length-bucketed ELL view
  (:meth:`~repro.sparse.csr.CSRMatrix.ell_view`): one 2-D gather plus
  one ``einsum("km,km->m")`` per bucket over slot-major ``(width, m)``
  arrays.  Near-uniform rows are a single bucket; skewed ones (an
  extended FSAI factor's few long rows) a short list, each padded only
  to its own widest row.  The transpose product uses the column-grouped
  twin (:meth:`~repro.sparse.csr.CSRMatrix.ell_t_view`).  Each row is
  summed from 0.0 in stored order, the reference backend's ``bincount``
  order, so every ELL product is bit-identical to the reference kernel.

The blocked handles take a ``(k, n)`` block, one vector per row.  Only
the DIA part of a DIA or HYB view has a batched form
(:meth:`~repro.sparse.csr.DiaView.apply_multi`: one einsum per block of
rows under a fixed byte budget); ELL views and HYB remainders run
the single-vector kernel on each row in turn.  Either way each row of a
blocked product is byte-identical to the single-vector product of that
row.

No strategy uses the ``scratch`` workspace: each product allocates its
gathered block (DIA's selected windows, ELL's ``x.take``) and nothing
else.  The bound-handle constructors (:meth:`spmv_op` /
:meth:`fsai_apply_op` and their blocked twins) resolve the view once
when the handle is built, so the CG loop's per-iteration product is a
direct call into it.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.kernels.base import KernelBackend

__all__ = ["NumpyBackend"]


def _view(a: Any):
    """The view ``A @ x`` runs on: DIA/HYB when built, else ELL."""
    dia = a.dia_view()
    return a.ell_view() if dia is None else dia


def _view_t(a: Any):
    """The view ``A.T @ x`` runs on: DIA/HYB when built, else ELL."""
    dia = a.dia_t_view()
    return a.ell_t_view() if dia is None else dia


class NumpyBackend(KernelBackend):
    """DIA/HYB and bucketed-ELL view kernels (default backend)."""

    name = "numpy"

    def _spmv(self, a: Any, x: np.ndarray, out: np.ndarray,
              scratch: Optional[np.ndarray]) -> np.ndarray:
        return _view(a).apply(x, out)

    def _spmv_t(self, a: Any, x: np.ndarray, out: np.ndarray,
                scratch: Optional[np.ndarray]) -> np.ndarray:
        return _view_t(a).apply(x, out)

    def spmv_op(self, a: Any, scratch: Optional[np.ndarray] = None):
        # Resolve the format once: repeated products (the CG loop) then
        # jump straight into the bound view with zero dispatch overhead.
        return _view(a).apply

    def spmm_op(self, a: Any, scratch: Optional[np.ndarray] = None):
        return _view(a).apply_multi

    def fsai_apply_op(self, g: Any, tmp: np.ndarray,
                      scratch: Optional[np.ndarray] = None):
        fwd, bwd = _view(g).apply, _view_t(g).apply

        def op(r: np.ndarray, out: np.ndarray) -> np.ndarray:
            fwd(r, tmp)
            return bwd(tmp, out)
        return op

    def fsai_apply_multi_op(self, g: Any, tmp: np.ndarray,
                            scratch: Optional[np.ndarray] = None):
        fwd, bwd = _view(g).apply_multi, _view_t(g).apply_multi

        def op(r: np.ndarray, out: np.ndarray) -> np.ndarray:
            t = tmp[: len(r)]  # any block up to tmp's rows
            fwd(r, t)
            return bwd(t, out)
        return op

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
