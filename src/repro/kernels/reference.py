"""Reference kernel backend — the seed's ``np.bincount`` formulation.

Kept verbatim as the oracle the improved backends are benchmarked and
property-tested against: segment sums via ``np.bincount`` over the cached
row-id expansion, a freshly allocated result per call, and the FSAI
application as two independent SpMVs.  Nothing here is tuned; that is the
point.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.kernels.base import KernelBackend

__all__ = ["ReferenceBackend"]


def _gather_product(
    data: np.ndarray, x: np.ndarray, gather_ids: np.ndarray,
    scratch: Optional[np.ndarray],
) -> np.ndarray:
    """``data * x[gather_ids]``, into ``scratch`` when one is supplied."""
    if scratch is None:
        return data * x[gather_ids]
    np.take(x, gather_ids, out=scratch)
    np.multiply(scratch, data, out=scratch)
    return scratch


class ReferenceBackend(KernelBackend):
    """Allocating bincount kernels (the pre-registry implementation)."""

    name = "reference"

    def _spmv(self, a: Any, x: np.ndarray, out: np.ndarray,
              scratch: Optional[np.ndarray]) -> np.ndarray:
        prod = _gather_product(a.data, x, a.indices, scratch)
        out[:] = np.bincount(a.row_ids(), weights=prod, minlength=a.n_rows)
        return out

    def _spmv_t(self, a: Any, x: np.ndarray, out: np.ndarray,
                scratch: Optional[np.ndarray]) -> np.ndarray:
        prod = _gather_product(a.data, x, a.row_ids(), scratch)
        out[:] = np.bincount(a.indices, weights=prod, minlength=a.n_cols)
        return out

    # The FSAI application and the blocked handles are deliberately the
    # base class's defaults over the two kernels above: two independent
    # SpMVs, and a row loop whose per-row summation order is exactly the
    # single-vector bincount order, which is what makes this backend the
    # multi-RHS agreement oracle too.

    def _spgemm_numeric(self, plan: Any, a_data: np.ndarray,
                        b_data: np.ndarray) -> np.ndarray:
        # Dense oracle: materialise both operands, multiply with BLAS,
        # gather at the output pattern.  Deliberately ignores the plan's
        # product enumeration — an independent derivation the sparse
        # numeric phases are property-tested against (1e-13, not bits).
        dense_a = np.zeros(plan.a_pattern.shape)
        rows, cols = plan.a_pattern.coo()
        dense_a[rows, cols] = a_data
        dense_b = np.zeros(plan.b_pattern.shape)
        rows, cols = plan.b_pattern.coo()
        dense_b[rows, cols] = b_data
        product = dense_a @ dense_b
        rows, cols = plan.out.coo()
        return np.ascontiguousarray(product[rows, cols])

    def _fsai_setup_solve(self, systems: np.ndarray) -> np.ndarray:
        # Scalar transcription of solve_group_stack, one system at a
        # time: every per-element operation (the ascending-t update
        # subtractions, the sqrt, the divisions, the back-sweep) happens
        # in exactly the order the vectorized form applies it to that
        # element, so the result is byte-identical — the oracle the
        # cross-backend bit-identity tests rest on.
        k, _, m = systems.shape
        x = np.zeros((k, m))
        with np.errstate(invalid="ignore", divide="ignore"):
            for s in range(m):
                L = np.zeros((k, k))
                col = np.zeros(k)
                for j in range(k):
                    for i in range(j, k):
                        col[i] = systems[i, j, s]
                    for t in range(j):
                        ljt = L[j, t]
                        for i in range(j, k):
                            col[i] -= L[i, t] * ljt
                    piv = np.sqrt(col[j])
                    L[j, j] = piv
                    for i in range(j + 1, k):
                        L[i, j] = col[i] / piv
                x[k - 1, s] = 1.0 / L[k - 1, k - 1]
                for i in range(k - 1, 0, -1):
                    x[i, s] = x[i, s] / L[i, i]
                    for t in range(i):
                        x[t, s] -= L[i, t] * x[i, s]
                x[0, s] = x[0, s] / L[0, 0]
        return x

    def _fsai_precalc_solve(self, systems: np.ndarray, rtol: float,
                            max_iterations: int) -> np.ndarray:
        # Scalar transcription of solve_precalc_stack, one independent
        # truncated CG per system.  Off-diagonals are read as
        # ``systems[max, min, s] + 0.0`` (the batched symmetrise adds the
        # +0.0 upper triangle) and every reduction is a plain ascending
        # accumulation from 0.0 — the exact order the batched strided
        # einsums evaluate in, so the result is byte-identical.  The
        # masked updates become per-system breaks: a system that fails
        # the curvature check or converges simply stops iterating.
        K, _, m = systems.shape
        x = np.zeros((K, m))
        if K == 0 or max_iterations <= 0:
            return x
        with np.errstate(invalid="ignore", divide="ignore"):
            for s in range(m):
                full = np.zeros((K, K))
                for i in range(K):
                    full[i, i] = systems[i, i, s]
                    for j in range(i):
                        v = systems[i, j, s] + 0.0
                        full[i, j] = v
                        full[j, i] = v
                xs = np.zeros(K)
                r = np.zeros(K)
                r[K - 1] = 1.0
                d = r.copy()
                q = np.zeros(K)
                rho = 1.0
                for _ in range(max_iterations):
                    for i in range(K):
                        acc = 0.0
                        for j in range(K):
                            acc += full[j, i] * d[j]
                        q[i] = acc
                    dq = 0.0
                    for j in range(K):
                        dq += d[j] * q[j]
                    if not dq > 0:
                        break
                    alpha = rho / dq
                    for i in range(K):
                        xs[i] += alpha * d[i]
                        r[i] -= alpha * q[i]
                    rr = 0.0
                    for i in range(K):
                        rr += r[i] * r[i]
                    if not np.sqrt(rr) > rtol:
                        break
                    beta = rr / rho
                    for i in range(K):
                        d[i] = r[i] + beta * d[i]
                    rho = rr
                x[:, s] = xs
        return x

    def pcg_step(self, alpha: float, x: np.ndarray, d: np.ndarray,
                 r: np.ndarray, q: np.ndarray,
                 work: Optional[np.ndarray] = None) -> float:
        x += alpha * d
        r -= alpha * q
        return float(np.dot(r, r))

    def pcg_direction(self, beta: float, d: np.ndarray, z: np.ndarray) -> None:
        d *= beta
        d += z
