"""Validation utilities for sparse matrices.

Experiment code calls these before long campaigns so that malformed inputs
fail fast with a precise message instead of producing NaNs thousands of CG
iterations later.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import MatrixFormatError, NotSPDError, NotSymmetricError, ShapeError
from repro.sparse.csr import CSRMatrix

__all__ = [
    "require_finite",
    "require_norm_in_range",
    "require_square",
    "require_symmetric",
    "require_positive_diagonal",
    "require_spd_screen",
    "check_spd_sample",
    "gershgorin_bounds",
]


def require_finite(a: Union[CSRMatrix, np.ndarray], name: str = "vector") -> None:
    """Raise :class:`MatrixFormatError` at the first NaN or infinite entry.

    ``a`` is a matrix, or a vector or ``(k, n)`` block of them, which the
    message calls ``name`` (``b``, ``x0``, ``rhs``).  The FSAI setups and
    serving's ``register`` check matrices; ``pcg``, ``pcg_multi`` and the
    serving ``submit`` methods check right-hand sides and initial
    guesses; all before any arithmetic on the values.  Non-finite input then ends in
    one typed error instead of numpy warnings, a misleading
    ``NotSPDError`` or a "converged" solve of garbage.  One vectorised
    pass; locating the entry costs a second only on failure.
    """
    values = a.data if isinstance(a, CSRMatrix) else np.asarray(a)
    finite = np.isfinite(values)
    if finite.all():
        return
    k = int(np.argmin(finite.ravel()))
    if isinstance(a, CSRMatrix):
        i = int(np.searchsorted(a.indptr, k, side="right")) - 1
        raise MatrixFormatError(
            f"non-finite value {a.data[k]} at ({i}, {int(a.indices[k])})"
        )
    index = ", ".join(str(int(i)) for i in np.unravel_index(k, values.shape))
    raise MatrixFormatError(
        f"non-finite value {values.flat[k]} at {name}[{index}]"
    )


def require_norm_in_range(
    r: np.ndarray, norm: Union[float, np.ndarray], name: str = "vector"
) -> None:
    """Raise :class:`MatrixFormatError` where a computed 2-norm left float64.

    ``norm`` is ``‖r‖₂`` as the caller computed it, or one norm per row
    of a ``(k, n)`` block.  Its sum of squares overflows to ``inf`` for a
    finite ``r`` with entries near 1e154, and underflows to 0 for a
    nonzero ``r`` with entries near 1e-170.  Either turns PCG's relative
    stopping test into ``inf <= inf`` or ``0 <= 0``: a "converged" zero
    iterate.  ``pcg`` and ``pcg_multi`` check their initial residual
    (called only when a norm is not in ``(0, inf)``), and both serving
    ``submit`` methods each right-hand side, before any iteration.  ``r``
    is scanned only where a norm is 0: a zero vector is legitimate.
    """
    norms = np.atleast_1d(np.asarray(norm, dtype=np.float64))
    bad = ~np.isfinite(norms)
    zero = np.flatnonzero(norms == 0)
    if len(zero):
        bad[zero] = np.any(np.reshape(r, (len(norms), -1))[zero], axis=1)
    if not bad.any():
        return
    j = int(np.argmax(bad))
    label = name if np.ndim(r) == 1 else f"{name}[{j}]"
    raise MatrixFormatError(
        f"the 2-norm of {label} evaluates to {norms[j]}: its sum of squares "
        f"leaves the float64 range; rescale the system"
    )


def require_square(a: CSRMatrix) -> None:
    """Raise :class:`ShapeError` unless ``a`` is square."""
    if a.n_rows != a.n_cols:
        raise ShapeError(f"matrix must be square, got {a.shape}")


def require_symmetric(a: CSRMatrix, tol: float = 1e-12) -> None:
    """Raise :class:`NotSymmetricError` unless ``a`` is numerically symmetric."""
    require_square(a)
    if not a.is_symmetric(tol):
        raise NotSymmetricError(
            f"matrix {a.shape} is not symmetric within tolerance {tol}"
        )


def require_positive_diagonal(a: CSRMatrix) -> None:
    """Raise :class:`NotSPDError` if any diagonal entry is <= 0.

    A positive diagonal is necessary (not sufficient) for SPD; it is the
    cheap screen applied before every FSAI setup.
    """
    require_square(a)
    d = a.diagonal()
    bad = np.flatnonzero(d <= 0)
    if len(bad):
        raise NotSPDError(
            f"non-positive diagonal at rows {bad[:5].tolist()}"
            + ("..." if len(bad) > 5 else "")
        )


def require_spd_screen(a: CSRMatrix) -> None:
    """Entry check of every FSAI setup and of serving's ``register``:
    finite (:class:`MatrixFormatError`), square (:class:`ShapeError`) and
    a positive diagonal (:class:`NotSPDError`), in that order, at O(nnz).
    """
    require_finite(a)
    require_positive_diagonal(a)


def check_spd_sample(a: CSRMatrix, n_probes: int = 8, seed: int = 0) -> None:
    """Probabilistic SPD check: ``v^T A v > 0`` for random probe vectors.

    Cheap (``n_probes`` SpMVs) and catches gross indefiniteness; the
    definitive check happens implicitly inside the FSAI Cholesky solves.
    """
    require_square(a)
    rng = np.random.default_rng(seed)
    for _ in range(n_probes):
        v = rng.standard_normal(a.n_rows)
        quad = float(v @ a.matvec(v))
        if quad <= 0:
            raise NotSPDError(f"probe vector gives v^T A v = {quad:.3e} <= 0")


def gershgorin_bounds(a: CSRMatrix) -> tuple:
    """Gershgorin eigenvalue enclosure ``(lo, hi)`` of a square matrix.

    Useful for sanity-checking generator conditioning targets: all
    eigenvalues lie in ``[lo, hi]``.
    """
    require_square(a)
    d = a.diagonal()
    rows = a.row_ids()
    offdiag = np.abs(a.data) * (rows != a.indices)
    radius = np.bincount(rows, weights=offdiag, minlength=a.n_rows)
    return float(np.min(d - radius)), float(np.max(d + radius))
