"""Conjugate Gradient and Preconditioned Conjugate Gradient (paper §2.1).

Implementation notes
--------------------
* The recurrences follow Saad [34]: one SpMV, two dots (plus the residual
  norm), three AXPYs per iteration; PCG adds one preconditioner application
  and swaps the ``r·r`` dots for ``r·z``.
* Convergence test: ``‖r_k‖₂ ≤ rtol · ‖r₀‖₂`` (the paper reduces the initial
  residual by eight orders of magnitude, i.e. ``rtol = 1e-8``) with an
  absolute floor ``atol`` for the ``b = 0`` corner.  ``converged`` keeps
  this recurrence meaning; one product with ``A`` at exit records the
  true ``‖b - A x‖₂ / ‖r₀‖₂`` beside it
  (:attr:`~repro.solvers.convergence.SolveResult.true_relative_residual`),
  so a recurrence that drifted from the true residual is visible instead
  of silently reported as converged.  While tracing, each converged
  solve (or block row) whose true residual exceeds 10× the stopping
  threshold adds one to the ``cg.true_residual_gap`` counter.
* The loop's working set — ``r``/``d``/``q``/``z``, one AXPY workspace
  and one ``nnz``-length gather scratch — is allocated once up front, and
  every per-iteration operation — the SpMV, the fused iterate update
  (:meth:`~repro.kernels.base.KernelBackend.pcg_step`), the
  preconditioner application (``apply_into`` when the preconditioner
  supports it) and the direction update — writes into it in place
  through the active :mod:`repro.kernels` backend.  The sparse products
  still allocate their gathered operand per call on the numpy backend
  (see :mod:`repro.kernels.base`).
* ``flops`` counts the classic 2·nnz per SpMV, 2n per dot, 2n per AXPY and
  the preconditioner's own estimate, feeding the roofline model.
"""

from __future__ import annotations

import math
from functools import partial
from typing import List, Optional

import numpy as np

from repro import trace
from repro._typing import FloatArray
from repro.errors import ShapeError
from repro.kernels import get_backend
from repro.solvers.convergence import (
    ConvergenceHistory,
    MultiSolveResult,
    SolveResult,
)
from repro.solvers.preconditioners import IdentityPreconditioner, Preconditioner
from repro.sparse.csr import CSRMatrix
from repro.sparse.validate import require_finite, require_norm_in_range

__all__ = ["cg", "pcg", "pcg_multi"]

#: Paper §7.1: experiments "do not converge after 10000 iterations" are
#: excluded — we use the same default budget.
DEFAULT_MAX_ITERATIONS = 10_000

#: Paper §7.1: initial residual reduced by eight orders of magnitude.
DEFAULT_RTOL = 1e-8


def pcg(
    a: CSRMatrix,
    b: FloatArray,
    *,
    preconditioner: Optional[Preconditioner] = None,
    x0: Optional[FloatArray] = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = 0.0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    record_history: bool = True,
) -> SolveResult:
    """Solve ``A x = b`` with (preconditioned) Conjugate Gradient.

    Parameters
    ----------
    a:
        SPD system matrix in CSR form.
    b:
        Right-hand side.  A NaN or infinite entry in ``b`` or ``x0``
        raises :class:`~repro.errors.MatrixFormatError` before any product,
        and so does an initial residual whose 2-norm over- or underflows
        (see :func:`~repro.sparse.validate.require_norm_in_range`).
    preconditioner:
        Object with ``apply``/``flops_per_application``; ``None`` runs plain
        CG (identity preconditioner, zero cost).
    x0:
        Initial guess; defaults to the zero vector (paper §7.1).
    rtol, atol:
        Stop when ``‖r‖₂ ≤ max(rtol · ‖r₀‖₂, atol)``.
    max_iterations:
        Iteration budget; exceeding it returns ``converged=False`` (no raise
        — campaign code treats non-convergence as data, as the paper does
    when excluding matrices).
    record_history:
        Store the full residual trace in the result.
    """
    if not trace.enabled():
        return _pcg(
            a, b, preconditioner=preconditioner, x0=x0, rtol=rtol, atol=atol,
            max_iterations=max_iterations, record_history=record_history,
        )
    with trace.span(
        "solvers.cg",
        n=a.n_rows,
        nnz=a.nnz,
        preconditioned=preconditioner is not None,
        backend=get_backend().name,
    ):
        result = _pcg(
            a, b, preconditioner=preconditioner, x0=x0, rtol=rtol, atol=atol,
            max_iterations=max_iterations, record_history=record_history,
        )
        trace.add_counter("cg.flops", result.flops)
        trace.set_attr("converged", result.converged)
    return result


def _pcg(
    a: CSRMatrix,
    b: FloatArray,
    *,
    preconditioner: Optional[Preconditioner],
    x0: Optional[FloatArray],
    rtol: float,
    atol: float,
    max_iterations: int,
    record_history: bool,
) -> SolveResult:
    if a.n_rows != a.n_cols:
        raise ShapeError(f"CG needs a square matrix, got {a.shape}")
    n = a.n_rows
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ShapeError(f"b has shape {b.shape}, expected ({n},)")
    require_finite(b, "b")
    if rtol < 0 or atol < 0:
        raise ValueError("tolerances must be non-negative")
    M = preconditioner if preconditioner is not None else IdentityPreconditioner(n)
    backend = get_backend()
    # Preconditioners exposing ``apply_into`` (FSAI, the trivial baselines)
    # write into the preallocated ``z``; anything else falls back to a copy.
    apply_into = getattr(M, "apply_into", None)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (n,):
        raise ShapeError(f"x0 has shape {x.shape}, expected ({n},)")
    if x0 is not None:
        require_finite(x, "x0")

    spmv_flops = 2 * a.nnz
    precond_flops = M.flops_per_application()
    flops = 0

    # r0 = b - A x0 (skip the SpMV when x0 = 0).
    r = np.empty(n)
    if x0 is None or not np.any(x):
        np.copyto(r, b)
    else:
        np.subtract(b, a.matvec(x), out=r)
        flops += spmv_flops + n

    history = ConvergenceHistory() if record_history else None
    r_norm0 = math.sqrt(backend.dot(r, r))
    if not 0.0 < r_norm0 < math.inf:
        require_norm_in_range(r, r_norm0, "r0")
    if history is not None:
        history.record(r_norm0)
    threshold = max(rtol * r_norm0, atol)
    if r_norm0 <= threshold:  # already converged (e.g. b = 0, x0 = 0)
        # r is b - A x exactly here, so the true residual needs no product.
        relative = 0.0 if r_norm0 == 0 else 1.0
        return SolveResult(
            x=x, converged=True, iterations=0, residual_norm=r_norm0,
            relative_residual=relative, history=history, flops=flops,
            true_relative_residual=relative,
        )

    # The loop's entire working set, allocated once: three n-vectors plus a
    # shared AXPY workspace and the nnz-length SpMV gather scratch.  Every
    # statement below updates these buffers in place.
    z = np.empty(n)
    q = np.empty(n)
    work = np.empty(n)
    spmv_scratch = np.empty(a.nnz)
    # Bound product handle: format selection and view lookup resolved
    # once, so each iteration's SpMV is a single call into the kernel.
    spmv_op = backend.spmv_op(a, spmv_scratch)

    if apply_into is not None:
        apply_into(r, z)
    else:
        z[:] = M.apply(r)
    flops += precond_flops
    d = z.copy()
    rho = backend.dot(r, z)
    flops += 2 * n

    iterations = 0
    converged = False
    r_norm = r_norm0
    # Hot-loop locals: one attribute lookup per solve, not per iteration.
    dot = backend.dot
    pcg_step = backend.pcg_step
    pcg_direction = backend.pcg_direction
    for iterations in range(1, max_iterations + 1):
        trace.add_counter("cg.iterations")  # no-op unless tracing is on
        # Bound handle: shapes were validated once before the loop, so the
        # matvec wrapper's per-call checks are skipped here.
        spmv_op(d, q)
        dq = dot(d, q)
        flops += spmv_flops + 2 * n
        if not dq > 0 or rho == 0:
            # Breakdown: an indefinite system (d·q <= 0), a NaN d·q, or
            # r·z = 0 on a nonzero residual (a preconditioner that is not
            # SPD), where no step makes progress and β would be 0/0.  Stop
            # with the current iterate rather than diverge or divide by 0.
            trace.add_counter("cg.breakdowns")  # no-op unless tracing is on
            iterations -= 1
            break
        alpha = rho / dq
        # Fused in-place update: x += alpha d; r -= alpha q; new r·r back.
        rr = pcg_step(alpha, x, d, r, q, work)
        flops += 4 * n
        r_norm = math.sqrt(rr)
        flops += 2 * n
        if history is not None:
            history.record(r_norm)
        if r_norm <= threshold:
            converged = True
            break
        if apply_into is not None:
            apply_into(r, z)
        else:
            z[:] = M.apply(r)
        rho_new = dot(r, z)
        flops += precond_flops + 2 * n
        beta = rho_new / rho
        pcg_direction(beta, d, z)
        flops += 2 * n
        rho = rho_new

    # True residual of the returned iterate, into the spent q buffer.
    spmv_op(x, q)
    np.subtract(b, q, out=q)
    true_norm = math.sqrt(backend.dot(q, q))
    if converged and true_norm > 10 * threshold:
        # "Converged" on a recurrence that drifted from the true residual.
        trace.add_counter("cg.true_residual_gap")  # no-op unless tracing is on
    return SolveResult(
        x=x,
        converged=converged,
        iterations=iterations,
        residual_norm=r_norm,
        relative_residual=r_norm / r_norm0 if r_norm0 > 0 else 0.0,
        history=history,
        flops=flops,
        true_relative_residual=true_norm / r_norm0 if r_norm0 > 0 else 0.0,
    )


def pcg_multi(
    a: CSRMatrix,
    b: FloatArray,
    *,
    preconditioner: Optional[Preconditioner] = None,
    x0: Optional[FloatArray] = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = 0.0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    record_history: bool = True,
) -> MultiSolveResult:
    """Solve ``A x_j = b_j`` for a ``(k, n)`` block, one right-hand side per row.

    Runs ``k`` mathematically independent PCG recurrences in lockstep
    with **per-row** ``alpha``/``beta``/convergence tests; every
    iteration makes one blocked SpMM and one blocked preconditioner
    application, so the per-call dispatch is paid once per iteration
    instead of once per vector.  Each row of a blocked product is
    byte-identical to the single-vector product of that row, and each
    row's dots are the BLAS dot :func:`pcg` takes on that row alone.  A
    row's iterate and iteration count therefore never depend on which
    other rows share its block, and on both shipped backends (numpy and
    reference) every :class:`SolveResult` field of a row equals
    :func:`pcg`'s bit for bit, ``flops`` included.  The block holds only
    rows still iterating: a row that converges or breaks down (as in
    :func:`pcg`: ``d·q`` not positive, or ``r·z = 0``) leaves it in the
    iteration it stops, so finished rows cost nothing after.

    Parameters match :func:`pcg` with ``b`` (and optional ``x0``) shaped
    ``(k, n)``; a 1-D ``b`` raises — use :func:`pcg` for a single vector.
    Returns a :class:`~repro.solvers.convergence.MultiSolveResult` whose
    ``columns`` are per-right-hand-side :class:`SolveResult` objects
    (iterate, iteration count, residuals, optional history, flop
    estimate).
    """
    if not trace.enabled():
        return _pcg_multi(
            a, b, preconditioner=preconditioner, x0=x0, rtol=rtol, atol=atol,
            max_iterations=max_iterations, record_history=record_history,
        )
    b_arr = np.asarray(b)
    with trace.span(
        "solvers.cg_multi",
        n=a.n_rows,
        nnz=a.nnz,
        k=int(b_arr.shape[0]) if b_arr.ndim == 2 else -1,
        preconditioned=preconditioner is not None,
        backend=get_backend().name,
    ):
        result = _pcg_multi(
            a, b_arr, preconditioner=preconditioner, x0=x0, rtol=rtol,
            atol=atol, max_iterations=max_iterations,
            record_history=record_history,
        )
        trace.add_counter("cg.flops", result.flops)
        trace.set_attr("converged", result.converged)
    return result


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u[j] · v[j]`` for every row of two ``(k, n)`` blocks.

    One stacked ``(1, n) @ (n, 1)`` matmul, which numpy evaluates as one
    BLAS dot per row: the same reduction as :func:`numpy.dot` on that
    row alone, whatever the block's width or the row's position in it.
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _apply_rows(
    m: Preconditioner, r_block: np.ndarray, z_block: np.ndarray
) -> np.ndarray:
    """Blocked application for a preconditioner with ``apply`` only."""
    for rj, zj in zip(r_block, z_block):
        zj[:] = m.apply(rj)
    return z_block


def _pcg_multi(
    a: CSRMatrix,
    b: FloatArray,
    *,
    preconditioner: Optional[Preconditioner],
    x0: Optional[FloatArray],
    rtol: float,
    atol: float,
    max_iterations: int,
    record_history: bool,
) -> MultiSolveResult:
    if a.n_rows != a.n_cols:
        raise ShapeError(f"CG needs a square matrix, got {a.shape}")
    n = a.n_rows
    b = np.ascontiguousarray(b, dtype=np.float64)
    if b.ndim == 1:
        raise ShapeError(
            "pcg_multi takes a (k, n) block of right-hand sides; "
            "use pcg for a single vector"
        )
    if b.ndim != 2 or b.shape[1] != n:
        raise ShapeError(f"B has shape {b.shape}, expected (k, {n})")
    require_finite(b, "b")
    k = b.shape[0]
    if rtol < 0 or atol < 0:
        raise ValueError("tolerances must be non-negative")
    M: Preconditioner = (
        preconditioner if preconditioner is not None else IdentityPreconditioner(n)
    )
    backend = get_backend()

    # Master solution block; x0 is copied (never aliased), matching pcg.
    x_full: np.ndarray = (
        np.zeros((k, n)) if x0 is None else np.array(x0, dtype=np.float64)
    )
    if x_full.shape != (k, n):
        raise ShapeError(f"x0 has shape {x_full.shape}, expected ({k}, {n})")
    if x0 is not None:
        require_finite(x_full, "x0")
    if not x_full.flags.c_contiguous:
        x_full = np.ascontiguousarray(x_full)

    spmv_flops = 2 * a.nnz
    precond_flops = M.flops_per_application()

    # Bound product handle for the whole solve: it takes any block width,
    # and its gather scratch is the single-vector one, reused per row.
    spmm_op = backend.spmm_op(a, np.empty(a.nnz))

    # R0 = B - A X0.  As in pcg, a row whose x0 is zero skips the product.
    r_full = b.copy()
    flops = np.zeros(k, dtype=np.int64)
    moved = np.flatnonzero(np.any(x_full, axis=1))
    if len(moved):
        r_full[moved] -= spmm_op(x_full[moved], np.empty((len(moved), n)))
        flops[moved] = spmv_flops + n

    histories = (
        [ConvergenceHistory() for _ in range(k)] if record_history else None
    )
    r_norm0 = np.sqrt(_row_dots(r_full, r_full))
    if not np.all((r_norm0 > 0.0) & (r_norm0 < np.inf)):
        require_norm_in_range(r_full, r_norm0, "r0")
    if histories is not None:
        for history, norm0 in zip(histories, r_norm0):
            history.record(float(norm0))
    thresholds = np.maximum(rtol * r_norm0, atol)
    converged = r_norm0 <= thresholds  # rows done before iterating
    iterations = np.zeros(k, dtype=np.int64)
    r_norm_final = r_norm0.copy()

    # Blocked preconditioner application: the shipped preconditioners all
    # expose apply_multi_into; apply-only ones (incomplete Cholesky) take
    # one row at a time.
    apply_multi = getattr(M, "apply_multi_into", None) or partial(_apply_rows, M)

    cols: np.ndarray = np.flatnonzero(~converged)  # ids of the block's rows
    if len(cols) == 0:
        # r_full is B - A X exactly here: the true residual is r_norm0.
        return _multi_result(
            x_full, converged, iterations, r_norm_final, r_norm0, histories,
            flops, r_norm0,
        )

    # The block holds only the rows still iterating: x/r/d/rho drop a row
    # in the iteration it stops, and z/q/work are prefix views of buffers
    # sized for the first block.
    x = x_full[cols]
    r = r_full[cols]
    z_buf = np.empty((len(cols), n))
    q_buf = np.empty((len(cols), n))
    work_buf = np.empty((len(cols), n))
    r_norm: np.ndarray = r_norm0[cols]

    apply_multi(r, z_buf)
    d: np.ndarray = z_buf.copy()
    rho = _row_dots(r, z_buf)

    # pcg's flop count of a row, in closed form: the first application
    # and r·z, ``full`` per whole iteration, and the ``tail`` by which the
    # iteration a row stops in differs from a whole one.
    first = precond_flops + 2 * n
    full = spmv_flops + 12 * n + precond_flops

    def leave(stop: np.ndarray, count: int, tail: int) -> np.ndarray:
        """Bank the block's rows ``stop`` after ``count`` iterations.

        Returns the mask of the rows that stay in the block.
        """
        gone = cols[stop]
        x_full[gone] = x[stop]
        iterations[gone] = count
        r_norm_final[gone] = r_norm[stop]
        flops[gone] += first + count * full + tail
        return ~stop

    it = 0
    for it in range(1, max_iterations + 1):
        q = q_buf[: len(cols)]
        spmm_op(d, q)
        dq = _row_dots(d, q)
        broken = ~(dq > 0.0) | (rho == 0.0)
        if broken.any():
            # pcg's breakdown test, per row (a NaN d·q included).  The row
            # keeps its previous iterate; this iteration's product and d·q
            # are counted, as pcg counts them.
            trace.add_counter("cg.breakdowns", int(broken.sum()))
            keep = leave(broken, it - 1, spmv_flops + 2 * n)
            cols, x, r, d, q = cols[keep], x[keep], r[keep], d[keep], q[keep]
            rho, dq, r_norm = rho[keep], dq[keep], r_norm[keep]
            if len(cols) == 0:
                break
        trace.add_counter("cg.iterations", len(cols))
        alpha = (rho / dq)[:, None]
        work = work_buf[: len(cols)]
        np.multiply(d, alpha, out=work)
        x += work
        np.multiply(q, alpha, out=work)
        r -= work
        r_norm = np.sqrt(_row_dots(r, r))
        if histories is not None:
            for j, norm in zip(cols, r_norm):
                histories[j].record(float(norm))
        done = r_norm <= thresholds[cols]
        if done.any():
            # Converged: no preconditioner application or direction update.
            converged[cols[done]] = True
            keep = leave(done, it, -(precond_flops + 4 * n))
            cols, x, r, d = cols[keep], x[keep], r[keep], d[keep]
            rho, r_norm = rho[keep], r_norm[keep]
            if len(cols) == 0:
                break
        z = z_buf[: len(cols)]
        apply_multi(r, z)
        rho_new = _row_dots(r, z)
        d *= (rho_new / rho)[:, None]
        d += z
        rho = rho_new
    if len(cols):  # the budget ran out with these rows still iterating
        leave(np.ones(len(cols), dtype=bool), it, 0)

    # True residuals of the returned block, one blocked product into the
    # spent initial-residual block.
    spmm_op(x_full, r_full)
    np.subtract(b, r_full, out=r_full)
    true_norm = np.sqrt(_row_dots(r_full, r_full))
    if trace.enabled():
        # Rows "converged" on a recurrence that drifted from the truth.
        gaps = int(np.count_nonzero(converged & (true_norm > 10 * thresholds)))
        if gaps:
            trace.add_counter("cg.true_residual_gap", gaps)
    return _multi_result(
        x_full, converged, iterations, r_norm_final, r_norm0, histories, flops,
        true_norm,
    )


def _multi_result(
    x_full: np.ndarray,
    converged: np.ndarray,
    iterations: np.ndarray,
    r_norm_final: np.ndarray,
    r_norm0: np.ndarray,
    histories: Optional[List[ConvergenceHistory]],
    flops: np.ndarray,
    true_norm: np.ndarray,
) -> MultiSolveResult:
    """Assemble per-row :class:`SolveResult` entries into the block result."""
    columns = []
    for j in range(x_full.shape[0]):
        rn0 = float(r_norm0[j])
        rn = float(r_norm_final[j])
        columns.append(
            SolveResult(
                x=x_full[j].copy(),
                converged=bool(converged[j]),
                iterations=int(iterations[j]),
                residual_norm=rn,
                relative_residual=rn / rn0 if rn0 > 0 else 0.0,
                history=histories[j] if histories is not None else None,
                flops=int(flops[j]),
                true_relative_residual=(
                    float(true_norm[j]) / rn0 if rn0 > 0 else 0.0
                ),
            )
        )
    return MultiSolveResult(x=x_full, columns=columns)


def cg(
    a: CSRMatrix,
    b: FloatArray,
    **kwargs,
) -> SolveResult:
    """Plain (unpreconditioned) Conjugate Gradient — :func:`pcg` sugar."""
    kwargs.pop("preconditioner", None)
    return pcg(a, b, preconditioner=None, **kwargs)
