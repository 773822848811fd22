"""Kernel-backend interface: the solve-side hot-path primitives.

The paper's wall-time analysis (§2) shows PCG time is dominated by two
memory-bound kernels — the SpMV with ``A`` and the FSAI application
``z = G^T (G r)`` — so those, plus the PCG vector updates, are the
operations a backend must provide.  Serving many right-hand sides
against one operator adds their blocked twins, as bound handles only
(:meth:`KernelBackend.spmm_op`, :meth:`KernelBackend.fsai_apply_multi_op`):
the SpMM over a ``(k, n)`` block holding one vector per row, and the
fused multi-vector FSAI application.  Their default is a row loop over
the single-vector kernels (rows of a C-contiguous block are contiguous,
so no copies), which makes every row byte-identical to the
single-vector product of that row; a backend may batch rows only under
that same contract.
Everything else in the library stays backend-agnostic and calls these
primitives through the registry (:func:`repro.kernels.get_backend`).

Operand contract
----------------
Sparse operands are duck-typed CSR objects (in practice
:class:`repro.sparse.csr.CSRMatrix`) exposing ``n_rows``, ``n_cols``,
``indptr``, ``indices``, ``data`` plus the cached structure helper
``row_ids()``; the numpy backend also reads the cached product views
``dia_view()``/``dia_t_view()`` and ``ell_view()``/``ell_t_view()``.
Backends never mutate operands; any auxiliary structure they need is
cached on the matrix so repeated calls (the CG loop) pay for it once.

Dense operands (``x``) are validated at every public entry point: a
non-float64 input is upcast to float64 with a :class:`KernelInputWarning`
(a silent float32 operand would otherwise crash deep inside a workspace
kernel, or quietly degrade precision), and a non-contiguous input is
compacted silently.  ``out`` buffers are the
caller's result storage and cannot be coerced — a wrong dtype or shape
raises immediately.  The *bound handles* (``spmv_op`` and friends) skip
this validation by contract: they are built once per solve for loops
that own their buffers.

Workspace contract
------------------
Every primitive accepts optional caller-owned buffers and allocates only
when they are omitted:

``out``
    Result buffer (``n_rows`` for :meth:`spmv`, ``n_cols`` for
    :meth:`spmv_t`, ``n`` for the FSAI application; the blocked handles
    take the ``(k, ·)`` analogues).  Always returned, so call sites read
    uniformly whether they preallocated or not.
``scratch``
    ``nnz``-length float buffer for the gather product ``data * x[...]``;
    the blocked handles reuse the same buffer for every row.  The
    reference backend leaves the (structure-ordered) products behind in
    it; the numpy and numba backends ignore it — its contents are
    backend-specific, only its role is contractual.
``tmp``
    ``n``-length (``(k, n)`` for :meth:`fsai_apply_multi_op`) float
    buffer holding the intermediate ``t = G r`` of the fused FSAI
    application.
``work``
    ``n``-length float buffer for :meth:`pcg_step`'s AXPY temporaries.

With all buffers supplied, ``pcg_step``/``pcg_direction`` allocate
nothing, and the sparse products allocate no result or workspace of
their own.  What a product still allocates is backend-specific: the
numpy backend gathers one block per product (DIA's selected windows, or
one ``x.take`` per ELL bucket plus, for a multi-bucket view, each
bucket's row-dot before it is scattered into ``out``), because
preallocated ``np.take(..., out=)`` gathers measured slower.  See
``docs/kernels.md`` for the full rationale.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Optional, Tuple

import numpy as np

from repro import trace
from repro.kernels.precalc import run_fsai_precalc, solve_precalc_stack
from repro.kernels.setup import (
    gather_group_stack,
    run_fsai_setup,
    solve_group_stack,
)
from repro.kernels.spgemm import SpgemmPlan, plan_spgemm, spgemm_numeric

if TYPE_CHECKING:  # pragma: no cover - runtime import would be circular
    from repro.sparse.pattern import Pattern

__all__ = ["KernelBackend", "KernelInputWarning", "coerce_operand"]


def _pattern_view(m: Any) -> "Pattern":
    """Structure view of a duck-typed CSR operand (no validation copy)."""
    from repro.sparse.pattern import Pattern

    pattern = getattr(m, "pattern", None)
    if isinstance(pattern, Pattern):
        return pattern
    return Pattern(m.n_rows, m.n_cols, m.indptr, m.indices, _validated=True)


class KernelInputWarning(UserWarning):
    """A kernel operand needed upcasting to float64 at the boundary."""


def coerce_operand(
    x: Any, *, name: str = "x", ndim: Optional[int] = None,
) -> np.ndarray:
    """Validate a dense kernel input: float64, C-contiguous, right rank.

    Non-float64 inputs (float32 data files, integer RHS from tests) are
    upcast with a :class:`KernelInputWarning`; non-contiguous float64
    inputs (column slices of a block) are compacted silently — only the
    gather path's speed is at stake there, never correctness.
    """
    arr = np.asarray(x)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(
            f"kernel operand {name!r} must be {ndim}-D, got shape {arr.shape}"
        )
    if arr.dtype != np.float64:
        warnings.warn(
            f"kernel operand {name!r} has dtype {arr.dtype}; upcasting to "
            "float64 (supply float64 data to avoid the copy)",
            KernelInputWarning,
            stacklevel=3,
        )
        return np.ascontiguousarray(arr, dtype=np.float64)
    if not arr.flags.c_contiguous:
        return np.ascontiguousarray(arr)
    return arr


def _prepare_out(
    out: Optional[np.ndarray], shape: Tuple[int, ...], *, name: str = "out",
) -> np.ndarray:
    """Allocate ``out`` when omitted; reject unusable caller buffers.

    ``out`` is where the caller will read the result, so unlike inputs it
    cannot be coerced — a silent copy would leave the caller's buffer
    stale.  Wrong dtype or shape therefore raises.
    """
    if out is None:
        return np.empty(shape)
    if out.dtype != np.float64:
        raise TypeError(
            f"{name} buffer must be float64, got {out.dtype} "
            "(kernels write results in place; a cast copy would be lost)"
        )
    if out.shape != shape:
        raise ValueError(f"{name} has shape {out.shape}, expected {shape}")
    return out


class KernelBackend(ABC):
    """Abstract kernel backend: SpMV / SpMM / FSAI-apply / PCG primitives.

    Implementations must be numerically equivalent — the property suite
    (``tests/kernels``) holds every registered backend to the dense
    reference within ``1e-13`` — but are free to differ in summation
    strategy, parallelism and workspace use.  The numpy backend's DIA
    and ELL products keep the reference backend's summation order and
    are asserted equal to its bytes; only its HYB products reorder a
    row's sum.

    The public entry points (:meth:`spmv`, :meth:`spmv_t`) validate
    operands and allocate missing ``out`` buffers, then delegate to the
    ``_``-prefixed hooks backends actually implement.  The blocked
    handles (:meth:`spmm_op`, :meth:`fsai_apply_multi_op`) default to a
    row loop over the single-vector hooks, so a minimal backend —
    including the reference oracle — is automatically multi-RHS-correct,
    every row byte-identical to its single-vector product.
    """

    #: Registry name; also stamped on trace spans (``backend=...``).
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Sparse kernels — public validated entry points
    # ------------------------------------------------------------------
    def spmv(
        self, a: Any, x: np.ndarray, out: Optional[np.ndarray] = None,
        *, scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``out = A @ x`` over a CSR operand."""
        x = coerce_operand(x, name="x", ndim=1)
        out = _prepare_out(out, (a.n_rows,))
        return self._spmv(a, x, out, scratch)

    def spmv_t(
        self, a: Any, x: np.ndarray, out: Optional[np.ndarray] = None,
        *, scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``out = A.T @ x`` without materialising the transpose."""
        x = coerce_operand(x, name="x", ndim=1)
        out = _prepare_out(out, (a.n_cols,))
        return self._spmv_t(a, x, out, scratch)

    # ------------------------------------------------------------------
    # FSAI setup — the one *setup-side* kernel op
    # ------------------------------------------------------------------
    def fsai_setup(self, a: Any, pattern: Any, lengths=None) -> np.ndarray:
        """Normalised FSAI factor data for ``pattern`` over SPD ``a``.

        Solves every per-row local system ``A[S_i, S_i] ĝ = e_i`` in
        identity-padded groups and returns the ``pattern.nnz`` data array
        of the normalised factor ``G`` (see :mod:`repro.kernels.setup`
        for the grouping and determinism contract).  The driver is
        shared; backends override :meth:`_fsai_setup_build` (the gather)
        and :meth:`_fsai_setup_solve` (the batched Cholesky) — both must
        preserve the canonical per-element operation order so that every
        backend's output is byte-identical.

        Raises :class:`repro.errors.NotSPDError` when any local system
        is not SPD.  ``lengths`` is the caller's validated row-length
        array (recomputed when omitted).
        """
        return run_fsai_setup(self, a, pattern, lengths=lengths)

    def setup_threads(self) -> int:
        """Worker threads :meth:`fsai_setup` will use (1 = sequential).

        Stamped on ``fsai_setup`` trace spans and consulted by the
        orchestrator's thread-budget policy; parallel backends report
        their live thread-pool size.
        """
        return 1

    def _fsai_setup_build(
        self, a, low_end, indptr, indices, rows_parts, group, K,
    ) -> np.ndarray:
        # Default: the vectorized packed lower-triangle gather (row walk,
        # or pair probe where the walk would examine more entries).
        # Gathered values are exact copies of a.data (or exact +0.0), so
        # any override is automatically bit-compatible.
        return gather_group_stack(
            a, low_end, indptr, indices, rows_parts, group, K,
        )

    def _fsai_setup_solve(self, systems: np.ndarray) -> np.ndarray:
        # Default: the canonical vectorized fused-column Cholesky +
        # column back-substitution.  Overrides must replay the same
        # per-element operation sequence (see solve_group_stack).
        return solve_group_stack(systems)

    def fsai_precalc(
        self, a: Any, pattern: Any, *, rtol: float, max_iterations: int,
        lengths=None,
    ) -> np.ndarray:
        """Truncated-CG estimate data for ``pattern`` (the §5 precalc op).

        Runs the batched truncated CG on the same identity-padded groups
        as :meth:`fsai_setup` and returns the ``pattern.nnz`` data array
        of the *approximate* normalised factor used by the filtering
        step (see :mod:`repro.kernels.precalc` for the iteration
        schedule and determinism contract).  The driver is shared;
        backends reuse :meth:`_fsai_setup_build` for the gather and
        override :meth:`_fsai_precalc_solve` (the masked batched CG) —
        every backend's output is byte-identical.

        Breakdowns never raise: rows whose truncated estimate is not
        positive fall back to the Jacobi guess.  ``lengths`` is the
        caller's validated row-length array (recomputed when omitted).
        """
        return run_fsai_precalc(
            self, a, pattern, rtol, max_iterations, lengths=lengths
        )

    def _fsai_precalc_solve(
        self, systems: np.ndarray, rtol: float, max_iterations: int
    ) -> np.ndarray:
        # Default: the canonical batched masked CG.  Overrides must
        # replay the same per-element schedule (see solve_precalc_stack).
        return solve_precalc_stack(systems, rtol, max_iterations)

    # ------------------------------------------------------------------
    # SpGEMM — sparse × sparse products (setup-side, pattern-capped)
    # ------------------------------------------------------------------
    def spgemm(self, a: Any, b: Any, *, cap: Optional[Pattern] = None):
        """``A @ B`` over CSR operands, optionally capped to ``cap``.

        Runs both phases of the two-pass SpGEMM: the symbolic plan
        (:func:`repro.kernels.spgemm.plan_spgemm`) and the backend's
        numeric phase, returning a :class:`~repro.sparse.csr.CSRMatrix`
        on the product pattern — or on exactly ``cap``, with explicit
        zeros where no product lands (see the cap semantics in
        :mod:`repro.kernels.spgemm`).  Iterative callers multiplying on
        fixed structure should bind :meth:`spgemm_op` instead, which
        amortises the symbolic phase across products.
        """
        a_data = coerce_operand(a.data, name="a.data", ndim=1)
        b_data = coerce_operand(b.data, name="b.data", ndim=1)
        plan = plan_spgemm(_pattern_view(a), _pattern_view(b), cap=cap)
        with trace.span(
            "spgemm",
            backend=self.name,
            rows=plan.out.n_rows,
            nnz_out=plan.out.nnz,
            products=plan.n_products,
            capped=plan.capped,
        ):
            data = self._spgemm_numeric(plan, a_data, b_data)
        from repro.sparse.csr import CSRMatrix

        return CSRMatrix.from_pattern(plan.out, data)

    def spgemm_op(
        self,
        a_pattern: Optional[Pattern] = None,
        b_pattern: Optional[Pattern] = None,
        *,
        cap: Optional[Pattern] = None,
        plan: Optional[SpgemmPlan] = None,
    ):
        """Return ``op(a_data, b_data) -> data`` with the symbolic phase bound.

        The global SAI sweeps multiply on the *same* pattern pair dozens
        of times per setup; the bound handle runs :func:`plan_spgemm`
        once and every call is then pure numeric work.  Pass ``plan`` to
        reuse an already-built plan (it wins over the pattern arguments);
        the plan is exposed as ``op.plan`` for flop accounting.  Like the
        other bound handles, ``op`` skips per-call validation and opens
        no trace span.
        """
        if plan is None:
            if a_pattern is None or b_pattern is None:
                raise ValueError(
                    "spgemm_op needs either a prebuilt plan or both patterns"
                )
            plan = plan_spgemm(a_pattern, b_pattern, cap=cap)

        def op(a_data: np.ndarray, b_data: np.ndarray) -> np.ndarray:
            return self._spgemm_numeric(plan, a_data, b_data)

        op.plan = plan
        return op

    def _spgemm_numeric(
        self, plan: SpgemmPlan, a_data: np.ndarray, b_data: np.ndarray
    ) -> np.ndarray:
        # Default: the canonical vectorised gather-multiply-bincount
        # pass in the plan's Gustavson order.  Overrides must either
        # replay that accumulation order exactly (numba) or are held to
        # 1e-13 dense agreement instead (the reference oracle).
        return spgemm_numeric(plan, a_data, b_data)

    def spgemm_numeric_into(
        self,
        plan: SpgemmPlan,
        a_data: np.ndarray,
        b_data: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """Numeric phase written into a caller buffer.

        The global-SAI sweep loops call this dozens of times per setup
        with preallocated buffers; backends whose numeric kernel already
        writes in place (numba) override it to skip the copy.  Values
        are byte-identical to :meth:`_spgemm_numeric`.
        """
        np.copyto(out, self._spgemm_numeric(plan, a_data, b_data))
        return out

    # ------------------------------------------------------------------
    # Fused global-iteration sweep updates (see repro.fsai.global_iter)
    # ------------------------------------------------------------------
    # Each default below is the exact numpy expression the sweep loops
    # historically ran — overrides must stay byte-identical to it (the
    # cross-backend identity suite in tests/kernels/test_sweep_fused.py
    # pins this with tobytes() comparisons).  The numba backend fuses
    # each update with the capped SpGEMM row loop so the sweep touches
    # the pattern arrays once instead of materialising the intermediate
    # product and re-traversing it.

    def sweep_axpy_pair(
        self,
        x: np.ndarray,
        r: np.ndarray,
        w: np.ndarray,
        alpha: float,
    ) -> None:
        """Minimal-residual sweep update ``x += αr; r -= αw`` in place."""
        x += alpha * r
        r -= alpha * w

    def sweep_scale_add(
        self, d: np.ndarray, r: np.ndarray, c0: float, c1: float
    ) -> None:
        """Chebyshev direction update ``d = c0·d + c1·r`` in place."""
        d *= c0
        d += c1 * r

    def sweep_cheb_update(
        self,
        plan: SpgemmPlan,
        d: np.ndarray,
        b_data: np.ndarray,
        x: np.ndarray,
        r: np.ndarray,
        w: np.ndarray,
    ) -> None:
        """Chebyshev sweep core ``x += d; r -= P_S(D·A)`` (``w`` scratch).

        ``plan`` must be the factor-equation plan (a/out patterns are
        both the factor pattern ``S``); ``b_data`` is ``A``'s data.
        """
        x += d
        self.spgemm_numeric_into(plan, d, b_data, w)
        r -= w

    def sweep_ns_correction(
        self,
        plan: SpgemmPlan,
        z: np.ndarray,
        x: np.ndarray,
        x_next: np.ndarray,
        scratch: np.ndarray,
    ) -> np.ndarray:
        """Newton–Schulz correction ``x_next = 2x − P_S(Z·X)``.

        ``x_next`` must not alias ``x`` or ``scratch``; all three share
        the factor pattern's data layout.
        """
        self.spgemm_numeric_into(plan, z, x, scratch)
        np.multiply(x, 2.0, out=x_next)
        np.subtract(x_next, scratch, out=x_next)
        return x_next

    # ------------------------------------------------------------------
    # Implementation hooks (operands pre-validated, ``out`` allocated)
    # ------------------------------------------------------------------
    @abstractmethod
    def _spmv(self, a, x, out, scratch) -> np.ndarray: ...

    @abstractmethod
    def _spmv_t(self, a, x, out, scratch) -> np.ndarray: ...

    def _fsai_apply(self, g, r, out, tmp, scratch) -> np.ndarray:
        # Default: the two products through ``tmp``, ``G r`` then
        # ``G^T t`` scattered through G's own storage; numba fuses them.
        self._spmv(g, r, tmp, scratch)
        return self._spmv_t(g, tmp, out, scratch)

    # ------------------------------------------------------------------
    # Bound kernel handles (OSKI-style tuned operators)
    # ------------------------------------------------------------------
    def spmv_op(self, a: Any, scratch: Optional[np.ndarray] = None):
        """Return ``op(x, out) -> out`` for repeated products with ``a``.

        Solver loops multiply by the *same* matrix thousands of times;
        a bound handle lets a backend resolve the per-matrix strategy
        (format selection, cached views, workspaces) once instead of on
        every call.  Bound handles skip per-call operand validation — the
        solver validated its buffers when it allocated them.  The default
        just closes over :meth:`_spmv`.
        """
        def op(x: np.ndarray, out: np.ndarray) -> np.ndarray:
            return self._spmv(a, x, out, scratch)
        return op

    def fsai_apply_op(self, g: Any, tmp: np.ndarray,
                      scratch: Optional[np.ndarray] = None):
        """Return ``op(r, out) -> out`` applying ``G^T (G r)`` repeatedly.

        Same rationale as :meth:`spmv_op`, for the preconditioner
        application — the other half of every PCG iteration's cost.
        """
        def op(r: np.ndarray, out: np.ndarray) -> np.ndarray:
            return self._fsai_apply(g, r, out, tmp, scratch)
        return op

    def spmm_op(self, a: Any, scratch: Optional[np.ndarray] = None):
        """Return ``op(X, out) -> out`` for repeated block products.

        The blocked twin of :meth:`spmv_op`: the multi-RHS PCG binds one
        handle per solve, so each iteration's SpMM is a single call with
        the format dispatch already resolved.  The handle takes any block
        width; ``scratch`` is the single-vector ``(nnz,)`` gather
        workspace for backends that use one.
        """
        def op(x: np.ndarray, out: np.ndarray) -> np.ndarray:
            # Each (contiguous) row through the single-vector kernel, so
            # every row is *identical* to the spmv of that row — the
            # oracle any batched override is held to.
            for xj, yj in zip(x, out):
                self._spmv(a, xj, yj, scratch)
            return out
        return op

    def fsai_apply_multi_op(self, g: Any, tmp: np.ndarray,
                            scratch: Optional[np.ndarray] = None):
        """Return ``op(R, out) -> out`` for the blocked FSAI application.

        ``out[j] = G^T (G R[j])`` for every row of ``R``.  ``tmp`` is the
        caller-owned ``(k, n)`` intermediate block; the handle takes any
        block of up to ``k`` rows and keeps row ``j``'s ``G R[j]`` in
        ``tmp[j]``.  ``scratch`` is as for :meth:`spmm_op`.
        """
        def op(r: np.ndarray, out: np.ndarray) -> np.ndarray:
            # The fused single-vector kernel on each row, so every row is
            # the fsai_apply_op product of that row by construction.
            for rj, yj, tj in zip(r, out, tmp):
                self._fsai_apply(g, rj, yj, tj, scratch)
            return out
        return op

    # ------------------------------------------------------------------
    # PCG vector primitives
    # ------------------------------------------------------------------
    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """Euclidean inner product (shared default: BLAS ``np.dot``)."""
        return float(np.dot(u, v))

    @abstractmethod
    def pcg_step(
        self, alpha: float, x: np.ndarray, d: np.ndarray, r: np.ndarray,
        q: np.ndarray, work: Optional[np.ndarray] = None,
    ) -> float:
        """Fused PCG iterate update; returns the new ``r·r``.

        In place: ``x += alpha d``; ``r -= alpha q``; the squared residual
        norm of the updated ``r`` comes back so the convergence test needs
        no extra pass.
        """

    @abstractmethod
    def pcg_direction(self, beta: float, d: np.ndarray, z: np.ndarray) -> None:
        """In place ``d = z + beta d`` (the PCG search-direction update)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
