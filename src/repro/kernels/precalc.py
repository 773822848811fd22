"""Shared driver for the ``fsai_precalc`` kernel op (§5 precalculation).

The §5 precalculation runs a *truncated* CG (loose ``rtol``, capped
iteration count) on every local system ``A[S_i, S_i] ĝ = e_i`` to obtain
order-of-magnitude estimates of the factor entries — the cheap half of
Algorithm 2 that exists purely to classify weak entries before
filtering.  This op reuses the ``fsai_setup`` layout wholesale: the same
packed lower-triangle gather (the bounded row walk of
:func:`repro.kernels.setup.gather_group_stack`, which falls back to
probing pairs by binary search where walking ``A``'s rows would examine
more entries), the same identity-padded row-length groups from
:func:`repro.kernels.setup.plan_groups`, the same batch-last
``(K, K, m)`` stacks.  What replaces the Cholesky is one
batched CG iteration loop per group with per-system convergence masking.

Determinism contract
--------------------
Every backend must produce **byte-identical** data.  The canonical
iteration schedule is defined by :func:`solve_precalc_stack` and replayed
scalar-for-scalar by the reference and numba backends:

* **Sequential reductions via strided einsum** — on a batch-last stack,
  ``np.einsum('jis,js->is', full, d)`` (the matvec) and
  ``np.einsum('js,js->s', d, q)`` (the dots) reduce over the *strided*
  axis ``j`` while streaming the contiguous batch axis innermost, which
  NumPy evaluates as a plain ascending-``j`` accumulation from a ``0.0``
  start — exactly the loop a scalar backend writes.  The one exception
  is a batch width of 1, where the reduction axis becomes contiguous and
  NumPy switches to pairwise summation; therefore the stack is
  **batch-padded to width ≥ 2** with one identity system (dropped at
  scatter) and the convergence compaction below never shrinks under two
  columns.
* **Symmetrisation** — the gather stores lower triangles; the batched
  solver forms ``full = systems + systemsᵀ`` (diagonal overwritten with
  the exact stored value), which turns a stored off-diagonal ``-0.0``
  into ``+0.0``.  Scalar replays must read off-diagonals as
  ``systems[max(i,j), min(i,j), s] + 0.0`` and the diagonal exactly.
* **Per-system masking** — a system leaves the active set when its
  curvature check fails (``dᵀq ≤ 0``: truncated-CG breakdown, frozen at
  the current iterate) or its residual norm drops to ``rtol`` (the rhs
  is a unit vector, so ``‖r‖ ≤ rtol`` *is* the relative test).  Frozen
  systems must never change another bit of ``x``: the ``x`` increment is
  masked to ``-0.0`` (the additive identity that preserves both zero
  signs) before the update, while ``r``/``d``/``rho`` are allowed to
  keep running vectorised — the active mask only ever shrinks, so their
  values never reach ``x`` again.
* **First iteration shortcut** — ``r₀ = d₀ = e_last`` exactly, so the
  first matvec is the (symmetrised) last row of each system and the
  first curvature is its diagonal entry; both are formed with a ``+0.0``
  pass, which is bit-equal to the sequential sum over the zero terms.
* **Convergence compaction** — when fewer than half the live systems
  remain active (and more than two are live), converged columns are
  compacted out.  Compaction is bitwise neutral: it only re-indexes
  contiguous copies.

Identity padding is bitwise neutral here for the same reason as in the
setup op: a padded identity block is decoupled from the real system, its
rhs block is zero, and every operation on exact zeros stays an exact
zero.

Fallback
--------
Unlike the exact setup, a breakdown never raises: §5 wants a
conservative estimate, not a diagnosis.  Rows whose truncated estimate
has a non-positive or non-finite diagonal take the Jacobi guess (zeros
except ``1/sqrt(a_ii)`` — or ``1.0`` for a non-positive diagonal — in
the last slot), and while tracing the driver counts them as
``fsai.precalc_fallback_rows``.

This op is the only implementation of the §5 precalculation; the
kernel ``reference`` backend replays it in scalar Python and is its
oracle.
"""

from __future__ import annotations

import numpy as np

from repro import trace
from repro.kernels.setup import lower_ends, plan_groups

__all__ = [
    "symmetrize",
    "solve_precalc_stack",
    "run_fsai_precalc",
]


def symmetrize(systems: np.ndarray) -> np.ndarray:
    """Full symmetric stack from a packed lower-triangle ``(K, K, m)`` stack.

    ``full = systems + systemsᵀ`` with the diagonal overwritten by the
    exact stored values.  The transpose add turns a stored ``-0.0``
    off-diagonal into ``+0.0`` — scalar replays reproduce this by
    reading off-diagonals as ``systems[max, min, s] + 0.0``.
    """
    K = systems.shape[0]
    full = systems + systems.transpose(1, 0, 2)
    idx = np.arange(K)
    full[idx, idx, :] = systems[idx, idx, :]
    return full


def solve_precalc_stack(
    systems: np.ndarray, rtol: float, max_iterations: int
) -> np.ndarray:
    """Truncated CG on every system of a ``(K, K, m)`` lower stack.

    The canonical batched schedule every backend replays (see the module
    docstring for the determinism contract).  Returns the ``(K, m)``
    iterates; systems that broke down (``dᵀq ≤ 0``) stay frozen at their
    last iterate and ``max_iterations <= 0`` returns exact zeros — the
    driver's fallback classification owns both cases.
    """
    K, _, m = systems.shape
    x = np.zeros((K, m))
    if m == 0 or K == 0 or max_iterations <= 0:
        return x
    full = symmetrize(systems)
    if m == 1:
        # Keep the einsum reduction axis strided (see module docstring):
        # pad the batch with one identity system, dropped below.
        pad = np.zeros((K, K, 1))
        pad[np.arange(K), np.arange(K), 0] = 1.0
        full = np.concatenate([full, pad], axis=2)
    mw = full.shape[2]
    live = np.arange(mw)          # original column ids of the working set
    r = np.zeros((K, mw))
    r[-1] = 1.0                   # rhs is e_last; ‖r₀‖ = 1 exactly
    d = r.copy()
    rho = np.ones(mw)
    act = np.ones(mw, dtype=bool)
    xl = np.zeros((K, mw))
    first = True
    for _ in range(max_iterations):
        n_act = int(np.count_nonzero(act))
        if n_act == 0:
            break
        if n_act * 2 <= len(live) and len(live) > 2:
            keep = np.flatnonzero(act)
            if len(keep) < 2:     # retain frozen columns so width stays ≥ 2
                extra = np.flatnonzero(~act)[: 2 - len(keep)]
                keep = np.sort(np.concatenate([keep, extra]))
            x[:, live[live < m]] = xl[:, live < m]
            live = live[keep]
            xl = np.ascontiguousarray(xl[:, keep])
            full = np.ascontiguousarray(full[:, :, keep])
            r = np.ascontiguousarray(r[:, keep])
            d = np.ascontiguousarray(d[:, keep])
            rho = rho[keep]
            act = act[keep]
        mv = len(live)
        if first:
            # d = e_last exactly: the matvec is the symmetrised last row
            # and the curvature its diagonal; the +0.0 pass replays the
            # sequential sum over the zero terms bit-for-bit.
            q = full[K - 1] + 0.0
            dq = q[-1] + 0.0
            first = False
        else:
            q = np.einsum("jis,js->is", full, d)
            dq = np.einsum("js,js->s", d, q)
        ok = act & (dq > 0)       # curvature breakdown → frozen for good
        if not ok.any():
            break
        alpha = np.zeros(mv)
        alpha[ok] = rho[ok] / dq[ok]
        incx = alpha * d
        if not ok.all():
            np.copyto(incx, -0.0, where=~ok)  # frozen x: keep every bit
        xl += incx
        q *= alpha                # IEEE multiply commutes: q·α ≡ α·q
        r -= q
        rr = np.einsum("js,js->s", r, r)
        act = ok & (np.sqrt(rr) > rtol)
        beta = np.zeros(mv)
        nz = rho > 0
        beta[nz] = rr[nz] / rho[nz]
        d *= beta                 # IEEE add commutes: β·d + r ≡ r + β·d
        d += r
        rho = rr
    x[:, live[live < m]] = xl[:, live < m]
    return x


def run_fsai_precalc(
    backend, a, pattern, rtol: float, max_iterations: int, lengths=None
) -> np.ndarray:
    """Truncated-CG estimates for every local system of ``pattern``.

    The shared driver behind :meth:`KernelBackend.fsai_precalc`: plans
    the same groups as the setup op, reuses the backend's
    ``_fsai_setup_build`` gather hook (the gathered stacks are already
    bit-identical across backends), calls ``_fsai_precalc_solve`` per
    group and normalises ``g = ĝ / sqrt(ĝ_i)`` centrally.  Rows whose
    truncated estimate has a non-positive or non-finite diagonal fall
    back to the Jacobi guess — zeros except ``1/sqrt(a_ii)`` (or ``1.0``
    when ``a_ii ≤ 0``) in the diagonal slot — and are counted as
    ``fsai.precalc_fallback_rows`` while tracing.  Never raises on
    breakdown; §5 only needs a conservative magnitude estimate.

    ``lengths`` is the validated row-length array from
    ``repro.fsai.frobenius._check_diagonals`` (recomputed when omitted).
    Returns the ``pattern.nnz`` data array aligned with the pattern.
    """
    indptr = pattern.indptr
    if lengths is None:
        lengths = np.diff(indptr)
    nnz = int(indptr[-1])
    data = np.empty(nnz)
    diag = a.diagonal()
    low_end = lower_ends(a)
    fallback_rows = 0
    sizes, counts = np.unique(lengths, return_counts=True)
    for group in plan_groups(sizes.tolist(), counts.tolist()):
        K = group[-1]
        rows_parts = [np.flatnonzero(lengths == k) for k in group]
        systems = backend._fsai_setup_build(
            a, low_end, indptr, pattern.indices, rows_parts, group, K,
        )
        sol = backend._fsai_precalc_solve(systems, rtol, max_iterations)
        piv = sol[-1]
        good = (piv > 0) & np.isfinite(piv)
        fallback_rows += len(good) - int(np.count_nonzero(good))
        with np.errstate(invalid="ignore", divide="ignore"):
            norm = sol / np.sqrt(piv)
        r0 = 0
        for k, rows in zip(group, rows_parts):
            r1 = r0 + len(rows)
            vals = norm[K - k:, r0:r1].T
            g = good[r0:r1]
            if not g.all():
                vals = vals.copy()
                fb_diag = diag[rows[~g]]
                fb = np.ones(len(fb_diag))
                positive = fb_diag > 0
                fb[positive] = 1.0 / np.sqrt(fb_diag[positive])
                vals[~g] = 0.0
                vals[~g, -1] = fb
            span = indptr[rows][:, None] + np.arange(k)
            data[span] = vals
            r0 = r1
    if fallback_rows and trace.enabled():
        trace.add_counter("fsai.precalc_fallback_rows", fallback_rows)
    return data
