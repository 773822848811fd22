"""Dense direct SPD solve for small local systems.

The paper offloads the small dense SPD systems of the FSAI setup to
MKL / LAPACK / OpenBLAS (§7.1).  The setup itself runs as the batched
``fsai_setup`` kernel op (:mod:`repro.kernels.setup`); this module keeps
the one-system LAPACK solve that the adaptive (FSPAI) pattern search in
:mod:`repro.fsai.adaptive` calls row by row.
"""

from __future__ import annotations

import numpy as np

from repro._typing import FloatArray
from repro.errors import NotSPDError, ShapeError

__all__ = ["solve_spd"]


def solve_spd(a: np.ndarray, b: FloatArray) -> FloatArray:
    """Solve one dense SPD system via Cholesky.

    Uses LAPACK (``np.linalg.cholesky``) for the factorisation — the paper's
    configuration — and converts the LAPACK failure into the library's
    :class:`NotSPDError`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
        raise ShapeError(f"SPD solve shape mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        return np.empty(0)
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"dense local system is not SPD: {exc}") from exc
    # Two triangular solves; for the tiny systems of FSAI setup the generic
    # LAPACK-backed np.linalg.solve on L is dominated by call overhead, so
    # delegate both solves to one call each.
    y = np.linalg.solve(L, b)
    return np.linalg.solve(L.T, y)
