"""Frobenius-minimal computation of ``G`` (paper §2.2) and its approximate
precalculation (§5).

For a lower-triangular pattern ``S`` with rows ``S_i ∋ i``, the minimiser of
``‖I − G L‖_F`` over matrices with pattern ``S`` is obtained row-by-row
(Kolotilina–Yeremin [28], Chow [11]) *without forming the Cholesky factor
L*: solve

    ``A[S_i, S_i] ĝ = e_i|_{S_i}``            (local SPD system)

then normalise ``g_i = ĝ / sqrt(ĝ_i)`` so that ``G A G^T`` has unit
diagonal.  ``ĝ_i = (A[S_i,S_i]^{-1})_{ii} > 0`` for SPD ``A``, so the
normalisation is always defined.

Two computation modes, each one kernel op resolved through the kernel
registry:

* **direct** — the ``fsai_setup`` op (:mod:`repro.kernels.setup`):
  grouped, identity-padded batched Cholesky (exact; Alg. 1 step 3 and
  Alg. 2 step 5);
* **approximate** — the ``fsai_precalc`` op (:mod:`repro.kernels.precalc`):
  truncated CG at loose tolerance (the §5 precalculation used only to
  classify entry magnitudes before filtering).

Every backend returns byte-identical data; the kernel ``reference``
backend is the scalar oracle both ops are tested against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import trace
from repro._typing import IndexArray
from repro.errors import PatternError, ShapeError
from repro.kernels import get_backend
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import Pattern
from repro.sparse.validate import require_finite, require_square

__all__ = [
    "DEFAULT_PRECALC_RTOL",
    "DEFAULT_PRECALC_ITERATIONS",
    "compute_g",
    "precalculate_g",
    "resolve_setup_backend",
    "setup_flops_direct",
    "setup_flops_precalc",
]

#: Loose §5 defaults: a handful of CG iterations at a tolerance that
#: discriminates magnitudes, not digits.
DEFAULT_PRECALC_RTOL = 1e-2
DEFAULT_PRECALC_ITERATIONS = 20


def resolve_setup_backend(backend: Optional[str] = None) -> str:
    """Concrete setup-backend name ``backend`` resolves to right now.

    Set-up resolves like the solve side (:func:`repro.kernels.get_backend`):
    an explicit name wins, then an active ``use_backend``, then
    ``$REPRO_KERNEL_BACKEND``, then numpy.  Unknown names raise
    :class:`~repro.errors.ConfigurationError`.  This is the name
    :class:`repro.experiments.runner.CaseResult` records.
    """
    return get_backend(backend).name


def _check_pattern(a: CSRMatrix, pattern: Pattern) -> None:
    require_finite(a)
    require_square(a)
    if pattern.shape != a.shape:
        raise ShapeError(
            f"pattern shape {pattern.shape} does not match matrix {a.shape}"
        )
    if not pattern.is_lower_triangular():
        raise PatternError("FSAI pattern must be lower triangular")


def _check_diagonals(pattern: Pattern) -> IndexArray:
    """Validate that every row ends in its diagonal; returns row lengths."""
    lengths = np.diff(pattern.indptr)
    last = np.full(pattern.n_rows, -1, dtype=np.int64)
    nonempty = lengths > 0
    last[nonempty] = pattern.indices[pattern.indptr[1:][nonempty] - 1]
    bad = last != np.arange(pattern.n_rows)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise PatternError(f"row {i} of FSAI pattern must contain the diagonal")
    return lengths


def compute_g(
    a: CSRMatrix, pattern: Pattern, *, backend: Optional[str] = None
) -> CSRMatrix:
    """Exact Frobenius-minimal ``G`` on ``pattern`` (batched direct solves).

    The result satisfies ``diag(G A G^T) = 1`` exactly (up to roundoff);
    :mod:`tests.fsai` asserts this invariant.

    ``backend`` is a kernel-registry name; ``None`` (default) resolves
    as :func:`resolve_setup_backend` does.  The ``fsai_setup`` op runs
    grouped, identity-padded batched Cholesky with byte-identical
    output on every backend (see
    :mod:`repro.kernels.setup`).  Raises
    :class:`~repro.errors.NotSPDError` naming the first row whose local
    system is not SPD.
    """
    _check_pattern(a, pattern)
    kb = get_backend(backend)
    with trace.span(
        "fsai.frobenius", rows=pattern.n_rows, nnz=pattern.nnz, backend=kb.name,
    ):
        if trace.enabled():
            trace.add_counter("fsai.frobenius_flops", setup_flops_direct(pattern))
        lengths = _check_diagonals(pattern)
        data = kb.fsai_setup(a, pattern, lengths=lengths)
        return CSRMatrix.from_pattern(pattern, data)


def precalculate_g(
    a: CSRMatrix,
    pattern: Pattern,
    *,
    rtol: float = DEFAULT_PRECALC_RTOL,
    max_iterations: int = DEFAULT_PRECALC_ITERATIONS,
    backend: Optional[str] = None,
) -> CSRMatrix:
    """Approximate ``G`` via truncated CG on the local systems (§5).

    Cheap by construction: the returned values are order-of-magnitude
    estimates used exclusively by the filtering step.  Rows whose truncated
    solve produces a non-positive diagonal estimate fall back to a Jacobi
    guess (``1/sqrt(a_ii)`` on the diagonal, zeros elsewhere) — the filter
    then simply keeps that row's extension decisions conservative rather
    than aborting setup.  While tracing, the fallback rows are counted as
    ``fsai.precalc_fallback_rows``.

    ``backend`` resolves exactly as in :func:`compute_g`.  The
    ``fsai_precalc`` op batches the truncated CG over the same
    identity-padded row-length groups as the exact setup, byte-identical
    across kernel backends (see :mod:`repro.kernels.precalc`).
    """
    _check_pattern(a, pattern)
    kb = get_backend(backend)
    with trace.span(
        "fsai.precalc", rows=pattern.n_rows, nnz=pattern.nnz, backend=kb.name,
    ):
        if trace.enabled():
            trace.add_counter(
                "fsai.precalc_flops", setup_flops_precalc(pattern, max_iterations)
            )
        lengths = _check_diagonals(pattern)
        data = kb.fsai_precalc(
            a, pattern, rtol=rtol, max_iterations=max_iterations,
            lengths=lengths,
        )
        return CSRMatrix.from_pattern(pattern, data)


def setup_flops_direct(pattern: Pattern) -> int:
    """Flop estimate of the exact setup on ``pattern``.

    Per row of size ``k``: Cholesky ``k³/3`` + two triangular solves ``2k²``
    + gather/normalise ``O(k)``.  Feeds the §7.4 setup-overhead model.
    """
    k = pattern.row_lengths().astype(np.float64)
    return int(np.sum(k**3 / 3.0 + 2.0 * k**2 + 4.0 * k))


def setup_flops_precalc(
    pattern: Pattern, iterations: int = DEFAULT_PRECALC_ITERATIONS
) -> int:
    """Flop estimate of the truncated-CG precalculation on ``pattern``.

    Per row of size ``k``: ``min(iterations, k)`` CG steps (CG terminates in
    at most ``k`` steps on a ``k×k`` system, and the batched solver masks
    converged rows out), each a dense matvec ``2k²`` plus ``~8k`` of vector
    work.
    """
    k = pattern.row_lengths().astype(np.float64)
    steps = np.minimum(float(iterations), k)
    return int(np.sum(steps * (2.0 * k**2 + 8.0 * k)))
