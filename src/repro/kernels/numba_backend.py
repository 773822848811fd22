"""Optional Numba-JIT kernel backend (parallel ``prange`` row loops).

Auto-detected: when numba is importable the backend registers as
``"numba"``; when it is not, :func:`make_backend` returns ``None`` and the
registry silently resolves ``"numba"`` to the numpy backend, so nothing —
imports, tier-1 tests, the CLI — ever depends on numba being installed.

Kernel shapes follow the OSKI/Williams-et-al. playbook for row-parallel
CSR: the SpMV and the first half of the fused FSAI application distribute
rows across threads (each row's dot product is independent); the
transpose scatter stays sequential (scatter-add races under ``prange``),
which matches the paper's observation that the ``G^T`` product is the
bandwidth-bound half.  The blocked kernels are the base class's row
loop: each row of a ``(k, n)`` block runs through the single-vector
kernels above.  Functions compile lazily on first call; the first
invocation therefore pays JIT cost, every later call runs native code.

The setup-side op (``fsai_setup``) distributes whole local systems across
threads: a ``prange`` gather (per-system binary search into the sorted
entry keys) and a ``prange`` batched scalar Cholesky whose per-element
operation order replays :func:`repro.kernels.setup.solve_group_stack`
exactly, compiled with ``error_model="numpy"`` so non-SPD pivots
propagate NaN/inf IEEE-style instead of raising mid-kernel — the driver's
batched pivot check owns the diagnostics.  Output is byte-identical to
the numpy and reference backends.  The §5 precalculation op
(``fsai_precalc``) shares the gather and distributes one truncated CG
per system across threads, replaying the canonical masked schedule of
:func:`repro.kernels.precalc.solve_precalc_stack` scalar-for-scalar —
again byte-identical across backends.

The SpGEMM numeric phase is row-parallel Gustavson over a prebuilt
symbolic plan: each thread owns one output row (no scatter races), finds
output slots by binary search into the row's sorted columns, and
accumulates products in the plan's canonical order — byte-identical to
the numpy backend's bincount pass.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.kernels.base import KernelBackend

__all__ = ["make_backend", "NUMBA_AVAILABLE"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the tier-1 environment has no numba
    NUMBA_AVAILABLE = False

if NUMBA_AVAILABLE:  # pragma: no cover - compiled paths need numba

    @njit(parallel=True)
    def _spmv_kernel(indptr, indices, data, x, out):
        for i in prange(len(indptr) - 1):
            acc = 0.0
            for k in range(indptr[i], indptr[i + 1]):
                acc += data[k] * x[indices[k]]
            out[i] = acc

    @njit
    def _spmv_t_kernel(indptr, indices, data, x, out):
        out[:] = 0.0
        for i in range(len(indptr) - 1):
            xi = x[i]
            for k in range(indptr[i], indptr[i + 1]):
                out[indices[k]] += data[k] * xi

    @njit(parallel=True)
    def _fsai_apply_kernel(indptr, indices, data, r, out, tmp):
        n = len(indptr) - 1
        for i in prange(n):
            acc = 0.0
            for k in range(indptr[i], indptr[i + 1]):
                acc += data[k] * r[indices[k]]
            tmp[i] = acc
        out[:] = 0.0
        for i in range(n):
            ti = tmp[i]
            for k in range(indptr[i], indptr[i + 1]):
                out[indices[k]] += data[k] * ti

    @njit(parallel=True)
    def _pcg_step_kernel(alpha, x, d, r, q):
        acc = 0.0
        for i in prange(len(x)):
            x[i] += alpha * d[i]
            ri = r[i] - alpha * q[i]
            r[i] = ri
            acc += ri * ri
        return acc

    @njit(parallel=True)
    def _pcg_direction_kernel(beta, d, z):
        for i in prange(len(d)):
            d[i] = z[i] + beta * d[i]

    @njit(parallel=True, error_model="numpy")
    def _fsai_gather_kernel(keys, a_data, n_cols, indptr, indices, rows,
                            systems):
        # One slot per local system; each thread binary-searches the
        # sorted entry keys for its lower-triangle entries and identity-
        # pads the top-left corner.  Values are exact copies of a_data
        # (or the pre-zeroed 0.0), so the output is bit-identical to the
        # vectorized searchsorted gather.
        K = systems.shape[0]
        nk = len(keys)
        for s in prange(len(rows)):
            row = rows[s]
            start = indptr[row]
            k = indptr[row + 1] - start
            p = K - k
            for d in range(p):
                systems[d, d, s] = 1.0
            for i in range(k):
                ci = indices[start + i]
                for j in range(i + 1):
                    key = ci * n_cols + indices[start + j]
                    lo, hi = 0, nk
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if keys[mid] < key:
                            lo = mid + 1
                        else:
                            hi = mid
                    if lo < nk and keys[lo] == key:
                        systems[p + i, p + j, s] = a_data[lo]

    @njit(parallel=True, error_model="numpy")
    def _fsai_solve_kernel(systems, x):
        # Scalar replay of solve_group_stack, one system per thread.
        # error_model="numpy" keeps IEEE semantics: a non-SPD pivot
        # becomes NaN/inf and propagates into x[-1] for the driver's
        # batched check instead of raising inside the parallel region.
        K = systems.shape[0]
        m = systems.shape[2]
        for s in prange(m):
            L = np.zeros((K, K))
            col = np.zeros(K)
            xl = np.zeros(K)
            for j in range(K):
                for i in range(j, K):
                    col[i] = systems[i, j, s]
                for t in range(j):
                    ljt = L[j, t]
                    for i in range(j, K):
                        col[i] -= L[i, t] * ljt
                piv = np.sqrt(col[j])
                L[j, j] = piv
                for i in range(j + 1, K):
                    L[i, j] = col[i] / piv
            xl[K - 1] = 1.0 / L[K - 1, K - 1]
            for i in range(K - 1, 0, -1):
                v = xl[i] / L[i, i]
                xl[i] = v
                for t in range(i):
                    xl[t] -= L[i, t] * v
            xl[0] = xl[0] / L[0, 0]
            for i in range(K):
                x[i, s] = xl[i]

    @njit(parallel=True, error_model="numpy")
    def _fsai_precalc_kernel(systems, rtol, max_iterations, x):
        # Scalar replay of solve_precalc_stack, one truncated CG per
        # thread.  Off-diagonals are read as systems[max, min, s] + 0.0
        # (matching the batched symmetrise) and every reduction is an
        # ascending accumulation from 0.0 — the order the strided
        # einsums evaluate in — so output is byte-identical to the numpy
        # and reference backends.  error_model="numpy" keeps IEEE
        # semantics for degenerate systems; breakdowns just break out.
        K = systems.shape[0]
        m = systems.shape[2]
        for s in prange(m):
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
            d = np.zeros(K)
            d[K - 1] = 1.0
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
            for i in range(K):
                x[i, s] = xs[i]

    @njit(parallel=True)
    def _spgemm_numeric_kernel(a_indptr, a_indices, a_data,
                               b_indptr, b_indices, b_data,
                               out_indptr, out_indices, out_data):
        # Row-parallel Gustavson: each thread owns one output row, so
        # there are no scatter races.  Per product the value is formed
        # with a single multiply and added immediately — the same
        # per-slot accumulation order as the plan's bincount pass (A-row
        # entry order, then B-row order), hence byte-identical output.
        # Output slots are found by binary search in the sorted out row;
        # capped plans drop products whose column is absent.
        for i in prange(len(a_indptr) - 1):
            lo = out_indptr[i]
            hi = out_indptr[i + 1]
            for p in range(lo, hi):
                out_data[p] = 0.0
            if hi == lo:
                continue
            for e in range(a_indptr[i], a_indptr[i + 1]):
                v = a_data[e]
                k = a_indices[e]
                for f in range(b_indptr[k], b_indptr[k + 1]):
                    col = b_indices[f]
                    left, right = lo, hi
                    while left < right:
                        mid = (left + right) // 2
                        if out_indices[mid] < col:
                            left = mid + 1
                        else:
                            right = mid
                    if left < hi and out_indices[left] == col:
                        out_data[left] += v * b_data[f]

    @njit(parallel=True)
    def _sweep_axpy_kernel(alpha, x, r, w):
        # Fused x += alpha*r; r -= alpha*w — one traversal instead of two
        # numpy passes plus two temporaries.  No fastmath, so the
        # multiply/add pair is never contracted into an FMA and the
        # result stays byte-identical to the numpy expressions.
        for i in prange(len(x)):
            x[i] += alpha * r[i]
            r[i] -= alpha * w[i]

    @njit(parallel=True)
    def _sweep_scale_add_kernel(d, r, c0, c1):
        for i in prange(len(d)):
            d[i] = d[i] * c0 + c1 * r[i]

    @njit(parallel=True)
    def _sweep_cheb_kernel(s_indptr, s_indices, d,
                           b_indptr, b_indices, b_data, x, r, w):
        # One row-parallel pass fusing the Chebyshev sweep core:
        # x += d, then r -= P_S(D·A) with the capped product accumulated
        # into the row's slice of ``w`` while it is cache-resident —
        # the full product array is never re-traversed.  Accumulation
        # replays the plan's Gustavson order (A-row entry order, then
        # B-row order, slot by binary search), so each w slot equals the
        # bincount pass bit-for-bit, and r -= w is the same subtraction
        # the unfused path performs.
        for i in prange(len(s_indptr) - 1):
            lo = s_indptr[i]
            hi = s_indptr[i + 1]
            for p in range(lo, hi):
                x[p] += d[p]
                w[p] = 0.0
            for e in range(lo, hi):
                v = d[e]
                k = s_indices[e]
                for f in range(b_indptr[k], b_indptr[k + 1]):
                    col = b_indices[f]
                    left, right = lo, hi
                    while left < right:
                        mid = (left + right) // 2
                        if s_indices[mid] < col:
                            left = mid + 1
                        else:
                            right = mid
                    if left < hi and s_indices[left] == col:
                        w[left] += v * b_data[f]
            for p in range(lo, hi):
                r[p] -= w[p]

    @njit(parallel=True)
    def _sweep_ns_kernel(s_indptr, s_indices, z, x, x_next, scratch):
        # Fused Newton–Schulz correction x_next = 2x − P_S(Z·X): the
        # capped product row accumulates into the scratch slice in plan
        # order, then the correction finalises the row in cache.  All
        # four arrays share the factor pattern S's data layout.
        for i in prange(len(s_indptr) - 1):
            lo = s_indptr[i]
            hi = s_indptr[i + 1]
            for p in range(lo, hi):
                scratch[p] = 0.0
            for e in range(lo, hi):
                v = z[e]
                k = s_indices[e]
                for f in range(s_indptr[k], s_indptr[k + 1]):
                    col = s_indices[f]
                    left, right = lo, hi
                    while left < right:
                        mid = (left + right) // 2
                        if s_indices[mid] < col:
                            left = mid + 1
                        else:
                            right = mid
                    if left < hi and s_indices[left] == col:
                        scratch[left] += v * x[f]
            for p in range(lo, hi):
                x_next[p] = 2.0 * x[p] - scratch[p]

    class NumbaBackend(KernelBackend):
        """JIT row-loop kernels; ``scratch`` buffers are accepted but unused."""

        name = "numba"

        def _spmv(self, a: Any, x: np.ndarray, out: np.ndarray,
                  scratch: Optional[np.ndarray]) -> np.ndarray:
            _spmv_kernel(a.indptr, a.indices, a.data,
                         np.ascontiguousarray(x), out)
            return out

        def _spmv_t(self, a: Any, x: np.ndarray, out: np.ndarray,
                    scratch: Optional[np.ndarray]) -> np.ndarray:
            _spmv_t_kernel(a.indptr, a.indices, a.data,
                           np.ascontiguousarray(x), out)
            return out

        def _fsai_apply(self, g: Any, r: np.ndarray, out: np.ndarray,
                        tmp: Optional[np.ndarray],
                        scratch: Optional[np.ndarray]) -> np.ndarray:
            if tmp is None:
                tmp = np.empty(g.n_rows)
            _fsai_apply_kernel(g.indptr, g.indices, g.data,
                               np.ascontiguousarray(r), out, tmp)
            return out

        def _spgemm_numeric(self, plan: Any, a_data: np.ndarray,
                            b_data: np.ndarray) -> np.ndarray:
            out_data = np.empty(plan.out.nnz)
            _spgemm_numeric_kernel(
                plan.a_pattern.indptr, plan.a_pattern.indices, a_data,
                plan.b_pattern.indptr, plan.b_pattern.indices, b_data,
                plan.out.indptr, plan.out.indices, out_data,
            )
            return out_data

        def spgemm_numeric_into(self, plan: Any, a_data: np.ndarray,
                                b_data: np.ndarray,
                                out: np.ndarray) -> np.ndarray:
            # The numeric kernel already writes in place; forwarding the
            # caller's buffer skips the per-sweep allocation + copy.
            _spgemm_numeric_kernel(
                plan.a_pattern.indptr, plan.a_pattern.indices, a_data,
                plan.b_pattern.indptr, plan.b_pattern.indices, b_data,
                plan.out.indptr, plan.out.indices, out,
            )
            return out

        def sweep_axpy_pair(self, x: np.ndarray, r: np.ndarray,
                            w: np.ndarray, alpha: float) -> None:
            _sweep_axpy_kernel(alpha, x, r, w)

        def sweep_scale_add(self, d: np.ndarray, r: np.ndarray,
                            c0: float, c1: float) -> None:
            _sweep_scale_add_kernel(d, r, c0, c1)

        def sweep_cheb_update(self, plan: Any, d: np.ndarray,
                              b_data: np.ndarray, x: np.ndarray,
                              r: np.ndarray, w: np.ndarray) -> None:
            # The fused kernel assumes the factor-equation plan shape
            # (out pattern is the A operand's pattern S); any other plan
            # falls back to the unfused default.
            if plan.out is not plan.a_pattern:
                super().sweep_cheb_update(plan, d, b_data, x, r, w)
                return
            _sweep_cheb_kernel(
                plan.a_pattern.indptr, plan.a_pattern.indices, d,
                plan.b_pattern.indptr, plan.b_pattern.indices, b_data,
                x, r, w,
            )

        def sweep_ns_correction(self, plan: Any, z: np.ndarray,
                                x: np.ndarray, x_next: np.ndarray,
                                scratch: np.ndarray) -> np.ndarray:
            # Requires the Newton–Schulz plan shape (a, b and out
            # patterns all the factor pattern S).
            if plan.out is not plan.a_pattern or plan.out is not plan.b_pattern:
                return super().sweep_ns_correction(
                    plan, z, x, x_next, scratch
                )
            _sweep_ns_kernel(
                plan.out.indptr, plan.out.indices, z, x, x_next, scratch
            )
            return x_next

        def _fsai_setup_build(self, a, low_end, indptr, indices,
                              rows_parts, group, K) -> np.ndarray:
            # Per-pair binary search, one system per prange thread.  The
            # values are exact copies of a.data, so the stacks equal the
            # shared row-walk gather's byte for byte.
            rows = (np.concatenate(rows_parts) if rows_parts
                    else np.empty(0, dtype=np.int64))
            systems = np.zeros((K, K, len(rows)))
            _fsai_gather_kernel(a.entry_keys(), a.data, np.int64(a.n_cols),
                                indptr, indices, rows, systems)
            return systems

        def _fsai_setup_solve(self, systems: np.ndarray) -> np.ndarray:
            x = np.zeros((systems.shape[0], systems.shape[2]))
            _fsai_solve_kernel(np.ascontiguousarray(systems), x)
            return x

        def _fsai_precalc_solve(self, systems: np.ndarray, rtol: float,
                                max_iterations: int) -> np.ndarray:
            x = np.zeros((systems.shape[0], systems.shape[2]))
            if systems.shape[0] and max_iterations > 0:
                _fsai_precalc_kernel(np.ascontiguousarray(systems),
                                     rtol, max_iterations, x)
            return x

        def setup_threads(self) -> int:
            import numba

            return int(numba.get_num_threads())

        def pcg_step(self, alpha: float, x: np.ndarray, d: np.ndarray,
                     r: np.ndarray, q: np.ndarray,
                     work: Optional[np.ndarray] = None) -> float:
            return float(_pcg_step_kernel(alpha, x, d, r, q))

        def pcg_direction(self, beta: float, d: np.ndarray,
                          z: np.ndarray) -> None:
            _pcg_direction_kernel(beta, d, z)


def make_backend() -> Optional[KernelBackend]:
    """Registry factory: an instance when numba imports, ``None`` otherwise."""
    if not NUMBA_AVAILABLE:
        return None
    return NumbaBackend()  # pragma: no cover - needs numba
