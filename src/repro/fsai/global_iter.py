"""Global iterative SAI factors: whole-matrix sweeps of capped SpGEMMs.

The local Frobenius route (:mod:`repro.fsai.frobenius`) computes the
factor ``Ĝ`` on a lower-triangular pattern ``S`` by solving the per-row
systems ``A[S_i, S_i] ĝ_i = e_i|_{S_i}`` directly.  The *global* family
— the Newton–Schulz / Chebyshev iterations surveyed by Venkovic & Anzt
and the sparse-sparse iteration of Salkuyeh & Toutounian (PAPERS.md) —
reaches the same factor by iterating on the whole-matrix equations

    ``P_S(Ĝ A) = P_S(I)``                                         (★)

where ``P_S`` is the projection onto pattern ``S``.  Every sweep is one
or two **pattern-capped SpGEMMs** on fixed structure, so the symbolic
phase is planned once (:func:`repro.kernels.spgemm.plan_spgemm`) and
each sweep is pure numeric work into preallocated buffers through the
backend's fused sweep hooks (``spgemm_numeric_into`` +
``sweep_axpy_pair`` / ``sweep_cheb_update`` / ``sweep_ns_correction``)
— on the numba backend the capped product and the iterate update run in
one row-parallel pass without materialising the intermediate product
array; the numpy defaults keep the historical expressions byte for
byte.

Why (★) targets exactly the FSAI factor: a row ``x_i`` supported on
``S_i`` satisfies ``(x_i A)|_{S_i} = x_i[S_i] · A[S_i, S_i]``, so the
operator ``T(X) = P_S(X A)`` decouples row-by-row into precisely the
FSAI local systems.  ``T`` is symmetric positive definite in the
Frobenius inner product on pattern-``S`` matrices (each block
``A[S_i, S_i]`` is an SPD principal submatrix of ``A``), the solution of
(★) *is* the unnormalised FSAI ``Ĝ``, and after the usual normalisation
``g_i = ĝ_i / sqrt(ĝ_ii)`` the converged global factor matches
:func:`repro.fsai.frobenius.compute_g` — which is why the campaign can
compare these methods to FSAI/FSAIE on identical patterns.

Three iterations are provided, all early-stopping on the Frobenius
residual of (★) and all finishing with the FSAI normalisation plus a
Jacobi fallback (``1/sqrt(a_ii)`` diagonal) for rows whose iterate is
unusable:

``gsai_st``   Salkuyeh–Toutounian sparse-sparse route: global minimal
              residual — one capped SpGEMM per sweep plus the scalar
              ``α = ⟨R, T(R)⟩_F / ⟨T(R), T(R)⟩_F``.  Monotone on SPD
              ``T``; the safe workhorse.
``gsai_cheb`` Chebyshev semi-iteration on (★) over ``[λ_lo, λ_hi]``;
              ``λ_hi`` defaults to the Gershgorin bound of ``A`` (an
              upper bound for every local block by eigenvalue
              interlacing), ``λ_lo`` to ``λ_hi / 25``.  No inner
              products — one capped SpGEMM per sweep.
``gsai_ns``   Newton–Schulz on the factor equations:
              ``X ← 2X − P_S(P_S(X A) · X)``, two capped SpGEMMs per
              sweep.  The FSAI ``Ĝ`` is a fixed point (at it,
              ``P_S(ĜA)`` is the identity restricted to ``S``), but
              capping breaks the quadratic rate — kept as the
              literature's reference iteration.

See ``docs/global_methods.md`` for the comparison against the local
route under the paper's cache model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro import trace
from repro.fsai.frobenius import (
    _check_diagonals,
    _check_pattern,
    _resolve_setup_backend,
)
from repro.fsai.patterns import fsai_initial_pattern
from repro.fsai.precond import FSAIApplication
from repro.fsai.extended import FSAISetup
from repro.kernels.spgemm import plan_spgemm
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import Pattern
from repro.sparse.validate import require_spd_screen

__all__ = [
    "DEFAULT_SWEEPS",
    "DEFAULT_GLOBAL_RTOL",
    "GlobalIterInfo",
    "global_g_minres",
    "global_g_chebyshev",
    "global_g_newton_schulz",
    "setup_gsai_st",
    "setup_gsai_cheb",
    "setup_gsai_ns",
]

#: Default sweep budget.  Stencil-suite local systems are well
#: conditioned, so the minimal-residual route contracts the factor
#: residual by a near-constant factor per sweep; 40 sweeps lands the
#: iterate close enough to the exact FSAI ``Ĝ`` that PCG iteration
#: counts match the direct solve (the CI parity gate allows 20%).
DEFAULT_SWEEPS = 40

#: Early-stop tolerance on ``‖P_S(XA) − P_S(I)‖_F / ‖P_S(I)‖_F``.
DEFAULT_GLOBAL_RTOL = 1e-6


@dataclass(frozen=True)
class GlobalIterInfo:
    """Outcome of one global iteration (before normalisation)."""

    method: str
    #: Sweeps actually executed (early stop may use fewer than asked).
    sweeps: int
    #: Final relative Frobenius residual of the factor equations (★).
    residual: float
    converged: bool
    #: Flop estimate across all sweeps (SpGEMM products + vector work).
    flops: int


def _diag_slots(pattern: Pattern) -> np.ndarray:
    """Data-array positions of the diagonal: last slot of each row."""
    return np.asarray(pattern.indptr[1:]) - 1


def _identity_rhs(pattern: Pattern) -> np.ndarray:
    """``P_S(I)`` as a data array over ``pattern`` (1.0 on the diagonal)."""
    rhs = np.zeros(pattern.nnz)
    rhs[_diag_slots(pattern)] = 1.0
    return rhs


def _jacobi_seed(
    a: CSRMatrix, pattern: Pattern, *, scale: float = 1.0
) -> np.ndarray:
    """Diagonal start ``X₀ = scale · D⁻¹`` (ones where ``a_ii ≤ 0``)."""
    diag = a.diagonal()
    seed = np.zeros(pattern.nnz)
    values = np.where(diag > 0, scale / np.where(diag > 0, diag, 1.0), 1.0)
    seed[_diag_slots(pattern)] = values
    return seed


def _validate(a: CSRMatrix, pattern: Pattern, sweeps: int, rtol: float):
    _check_pattern(a, pattern)
    lengths = _check_diagonals(pattern)
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    if rtol < 0:
        raise ValueError(f"rtol must be non-negative, got {rtol}")
    return lengths


def global_g_minres(
    a: CSRMatrix,
    pattern: Pattern,
    *,
    sweeps: int = DEFAULT_SWEEPS,
    rtol: float = DEFAULT_GLOBAL_RTOL,
    backend: Optional[str] = None,
) -> Tuple[np.ndarray, GlobalIterInfo]:
    """Salkuyeh–Toutounian sparse-sparse iteration (global minimal residual).

    Each sweep takes the steepest step along the current residual ``R``:
    ``α`` minimises ``‖B − T(X + αR)‖_F`` with ``T(X) = P_S(XA)``, which
    costs one capped SpGEMM (``T(R)``) and two Frobenius inner products.
    On SPD ``T`` the residual norm is monotonically non-increasing, and
    the limit is exactly the unnormalised FSAI ``Ĝ``.

    Returns ``(data, info)`` where ``data`` is the *unnormalised*
    iterate over ``pattern`` — the setup wrappers normalise it.
    """
    _validate(a, pattern, sweeps, rtol)
    kb = _resolve_setup_backend(backend)
    plan = plan_spgemm(pattern, a.pattern, cap=pattern)
    rhs = _identity_rhs(pattern)
    rhs_norm = float(np.sqrt(rhs @ rhs))
    x = _jacobi_seed(a, pattern)
    w = np.empty(pattern.nnz)
    r = np.empty(pattern.nnz)
    with trace.span(
        "fsai.global_iter", method="gsai_st",
        rows=pattern.n_rows, nnz=pattern.nnz, max_sweeps=sweeps,
    ):
        kb.spgemm_numeric_into(plan, x, a.data, w)
        np.subtract(rhs, w, out=r)
        done = 0
        res = float(np.sqrt(r @ r))
        for _ in range(sweeps):
            if res <= rtol * rhs_norm or not np.isfinite(res):
                break
            kb.spgemm_numeric_into(plan, r, a.data, w)
            denom = float(w @ w)
            if denom <= 0.0 or not np.isfinite(denom):
                break
            alpha = float(r @ w) / denom
            kb.sweep_axpy_pair(x, r, w, alpha)
            done += 1
            res = float(np.sqrt(r @ r))
        trace.set_attr("sweeps", done)
        trace.set_attr("residual", res)
    rel = res / rhs_norm if rhs_norm else res
    info = GlobalIterInfo(
        method="gsai_st", sweeps=done, residual=rel,
        converged=bool(np.isfinite(rel) and rel <= rtol),
        # Per executed sweep: T(R) plus ~6 nnz of vector work; plus the
        # initial residual product.
        flops=(done + 1) * plan.flops + done * 6 * pattern.nnz,
    )
    return x, info


def global_g_chebyshev(
    a: CSRMatrix,
    pattern: Pattern,
    *,
    sweeps: int = DEFAULT_SWEEPS,
    rtol: float = DEFAULT_GLOBAL_RTOL,
    lambda_lo: Optional[float] = None,
    lambda_hi: Optional[float] = None,
    backend: Optional[str] = None,
) -> Tuple[np.ndarray, GlobalIterInfo]:
    """Chebyshev semi-iteration on the factor equations (★).

    Classic three-term recurrence over the interval
    ``[lambda_lo, lambda_hi]`` — no inner products, one capped SpGEMM
    per sweep.  ``lambda_hi`` defaults to the Gershgorin bound of ``A``
    (safe for every local block by interlacing); ``lambda_lo`` defaults
    to ``lambda_hi / 25``, matching the mild conditioning of
    stencil-suite local systems.  Underestimating ``λ_min`` with
    ``lambda_lo`` only slows convergence for SPD spectra (the residual
    polynomial stays below 1 on ``(0, λ_lo)``); it cannot diverge.
    """
    _validate(a, pattern, sweeps, rtol)
    kb = _resolve_setup_backend(backend)
    if lambda_hi is None:  # Gershgorin: max_i Σ_j |a_ij| ≥ λ_max(A)
        lambda_hi = _row_abs_sums(a).max() if a.n_rows else 1.0
    hi = float(lambda_hi)
    lo = float(lambda_lo) if lambda_lo is not None else hi / 25.0
    if not 0.0 < lo < hi:
        raise ValueError(
            f"need 0 < lambda_lo < lambda_hi, got [{lo:g}, {hi:g}]"
        )
    plan = plan_spgemm(pattern, a.pattern, cap=pattern)
    rhs = _identity_rhs(pattern)
    rhs_norm = float(np.sqrt(rhs @ rhs))
    x = _jacobi_seed(a, pattern)
    w = np.empty(pattern.nnz)
    r = np.empty(pattern.nnz)
    theta = (hi + lo) / 2.0
    delta = (hi - lo) / 2.0
    sigma = theta / delta
    with trace.span(
        "fsai.global_iter", method="gsai_cheb",
        rows=pattern.n_rows, nnz=pattern.nnz, max_sweeps=sweeps,
    ):
        kb.spgemm_numeric_into(plan, x, a.data, w)
        np.subtract(rhs, w, out=r)
        rho = 1.0 / sigma
        d = r / theta
        done = 0
        res = float(np.sqrt(r @ r))
        for _ in range(sweeps):
            if res <= rtol * rhs_norm or not np.isfinite(res):
                break
            kb.sweep_cheb_update(plan, d, a.data, x, r, w)
            done += 1
            res = float(np.sqrt(r @ r))
            rho_next = 1.0 / (2.0 * sigma - rho)
            kb.sweep_scale_add(
                d, r, rho_next * rho, 2.0 * rho_next / delta
            )
            rho = rho_next
        trace.set_attr("sweeps", done)
        trace.set_attr("residual", res)
    rel = res / rhs_norm if rhs_norm else res
    info = GlobalIterInfo(
        method="gsai_cheb", sweeps=done, residual=rel,
        converged=bool(np.isfinite(rel) and rel <= rtol),
        flops=(done + 1) * plan.flops + done * 8 * pattern.nnz,
    )
    return x, info


def global_g_newton_schulz(
    a: CSRMatrix,
    pattern: Pattern,
    *,
    sweeps: int = DEFAULT_SWEEPS,
    rtol: float = DEFAULT_GLOBAL_RTOL,
    backend: Optional[str] = None,
) -> Tuple[np.ndarray, GlobalIterInfo]:
    """Pattern-capped Newton–Schulz on the factor equations.

    ``X ← 2X − P_S(P_S(X A) · X)`` with the damped Jacobi start
    ``X₀ = (2 / (1 + μ)) D⁻¹`` (``μ = max_i Σ_j |a_ij| / a_ii``), which
    guarantees ``ρ(I − X₀A) < 1`` for the uncapped iteration.  The exact
    FSAI ``Ĝ`` is a fixed point — at it ``P_S(ĜA)`` is the identity
    restricted to ``S``, so the correction term reproduces ``Ĝ`` — but
    the per-sweep projection reduces the classical quadratic rate to
    linear, and on hard patterns the capped map can stall above the
    tolerance; the iteration guards against divergence by stopping when
    the residual stops improving.
    """
    _validate(a, pattern, sweeps, rtol)
    kb = _resolve_setup_backend(backend)
    plan_xa = plan_spgemm(pattern, a.pattern, cap=pattern)
    plan_zx = plan_spgemm(pattern, pattern, cap=pattern)
    rhs = _identity_rhs(pattern)
    rhs_norm = float(np.sqrt(rhs @ rhs))
    diag = a.diagonal()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(diag > 0, 1.0 / diag, 0.0)
    mu = float(np.max(_row_abs_sums(a) * ratios)) if a.n_rows else 1.0
    mu = max(mu, 1.0)
    x = _jacobi_seed(a, pattern, scale=2.0 / (1.0 + mu))
    # Double-buffered iterate (the fused correction writes x_next while
    # reading x) plus one scratch buffer for the capped Z·X product.
    z = np.empty(pattern.nnz)
    x_next = np.empty(pattern.nnz)
    scratch = np.empty(pattern.nnz)
    best = x.copy()
    best_res = np.inf
    with trace.span(
        "fsai.global_iter", method="gsai_ns",
        rows=pattern.n_rows, nnz=pattern.nnz, max_sweeps=sweeps,
    ):
        done = 0
        res = np.inf
        for _ in range(sweeps):
            kb.spgemm_numeric_into(plan_xa, x, a.data, z)
            np.subtract(rhs, z, out=scratch)
            res = float(np.linalg.norm(scratch))
            if res < best_res:
                np.copyto(best, x)
                best_res = res
            if res <= rtol * rhs_norm or not np.isfinite(res):
                break
            if res > 2.0 * best_res:
                # Capped map is diverging; keep the best iterate seen.
                break
            kb.sweep_ns_correction(plan_zx, z, x, x_next, scratch)
            x, x_next = x_next, x
            done += 1
        trace.set_attr("sweeps", done)
        trace.set_attr("residual", best_res)
    rel = best_res / rhs_norm if rhs_norm else best_res
    info = GlobalIterInfo(
        method="gsai_ns", sweeps=done, residual=rel,
        converged=bool(np.isfinite(rel) and rel <= rtol),
        flops=(done + 1) * plan_xa.flops + done * (
            plan_zx.flops + 4 * pattern.nnz
        ),
    )
    return best, info


def _row_abs_sums(a: CSRMatrix) -> np.ndarray:
    row_ids = np.repeat(
        np.arange(a.n_rows, dtype=np.int64), np.diff(a.indptr)
    )
    return np.bincount(row_ids, weights=np.abs(a.data), minlength=a.n_rows)


def normalize_factor(
    a: CSRMatrix, pattern: Pattern, data: np.ndarray
) -> Tuple[np.ndarray, int]:
    """FSAI normalisation ``g_i = ĝ_i / sqrt(ĝ_ii)`` with Jacobi fallback.

    Rows whose iterate is unusable — non-positive or non-finite pivot,
    or any non-finite entry — fall back to the Jacobi row
    (``1/sqrt(a_ii)`` on the diagonal, zeros elsewhere), exactly the
    policy of :func:`repro.fsai.frobenius.precalculate_g`.  Returns the
    normalised data and the number of fallback rows.
    """
    lengths = np.diff(pattern.indptr)
    slots = _diag_slots(pattern)
    pivots = data[slots]
    row_ids = np.repeat(np.arange(pattern.n_rows, dtype=np.int64), lengths)
    finite_rows = (
        np.bincount(
            row_ids,
            weights=(~np.isfinite(data)).astype(np.float64),
            minlength=pattern.n_rows,
        ) == 0
    )
    good = (pivots > 0) & np.isfinite(pivots) & finite_rows
    scale = np.zeros(pattern.n_rows)
    scale[good] = 1.0 / np.sqrt(pivots[good])
    out = np.where(np.repeat(good, lengths), data * np.repeat(scale, lengths), 0.0)
    if not good.all():
        diag = a.diagonal()
        fallback = np.where(diag > 0, 1.0 / np.sqrt(np.abs(diag)), 1.0)
        out[slots[~good]] = fallback[~good]
    return out, int(np.count_nonzero(~good))


_ITERATIONS = {
    "gsai_st": global_g_minres,
    "gsai_cheb": global_g_chebyshev,
    "gsai_ns": global_g_newton_schulz,
}


def _setup_global(
    method: str,
    a: CSRMatrix,
    *,
    level: int,
    threshold: float,
    sweeps: int,
    rtol: float,
    setup_backend: Optional[str],
    flop_key: str = "global",
    **iter_kwargs,
) -> FSAISetup:
    require_spd_screen(a)
    with trace.span("fsai.setup", method=method, n=a.n_rows):
        base = fsai_initial_pattern(a, level=level, threshold=threshold)
        data, info = _ITERATIONS[method](
            a, base, sweeps=sweeps, rtol=rtol, backend=setup_backend,
            **iter_kwargs,
        )
        g_data, fallback_rows = normalize_factor(a, base, data)
        if trace.enabled():
            trace.add_counter("fsai.global_sweeps", info.sweeps)
            if fallback_rows:
                trace.add_counter("fsai.global_fallback_rows", fallback_rows)
        g = CSRMatrix.from_pattern(base, g_data).prune_zeros()
        return FSAISetup(
            method=method,
            application=FSAIApplication(g),
            base_pattern=base,
            final_pattern=g.pattern,
            flops={flop_key: info.flops},
            filter_value=None,
            sweeps=info.sweeps,
        )


def setup_gsai_st(
    a: CSRMatrix,
    *,
    level: int = 1,
    threshold: float = 0.0,
    sweeps: int = DEFAULT_SWEEPS,
    rtol: float = DEFAULT_GLOBAL_RTOL,
    setup_backend: Optional[str] = None,
) -> FSAISetup:
    """End-to-end setup via the Salkuyeh–Toutounian global iteration.

    Same pattern pipeline as :func:`repro.fsai.extended.setup_fsai`
    (threshold → pattern power → lower triangle), but ``G`` comes from
    global minimal-residual sweeps instead of per-row direct solves.
    ``setup_backend`` resolves exactly as in
    :func:`~repro.fsai.frobenius.compute_g`: explicit name, then
    ``$REPRO_KERNEL_BACKEND``, then ``"auto"``.
    """
    return _setup_global(
        "gsai_st", a, level=level, threshold=threshold,
        sweeps=sweeps, rtol=rtol, setup_backend=setup_backend,
    )


def setup_gsai_cheb(
    a: CSRMatrix,
    *,
    level: int = 1,
    threshold: float = 0.0,
    sweeps: int = DEFAULT_SWEEPS,
    rtol: float = DEFAULT_GLOBAL_RTOL,
    lambda_lo: Optional[float] = None,
    lambda_hi: Optional[float] = None,
    setup_backend: Optional[str] = None,
) -> FSAISetup:
    """End-to-end setup via the Chebyshev global semi-iteration."""
    return _setup_global(
        "gsai_cheb", a, level=level, threshold=threshold,
        sweeps=sweeps, rtol=rtol, setup_backend=setup_backend,
        lambda_lo=lambda_lo, lambda_hi=lambda_hi,
    )


def setup_gsai_ns(
    a: CSRMatrix,
    *,
    level: int = 1,
    threshold: float = 0.0,
    sweeps: int = DEFAULT_SWEEPS,
    rtol: float = DEFAULT_GLOBAL_RTOL,
    setup_backend: Optional[str] = None,
) -> FSAISetup:
    """End-to-end setup via pattern-capped Newton–Schulz sweeps."""
    return _setup_global(
        "gsai_ns", a, level=level, threshold=threshold,
        sweeps=sweeps, rtol=rtol, setup_backend=setup_backend,
    )
