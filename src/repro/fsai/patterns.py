"""Initial FSAI pattern construction (paper Alg. 1, steps 1-2).

The a-priori pattern of ``G`` is the lower triangle of ``Ã^N`` where ``Ã``
is ``A`` with small entries thresholded away and ``N`` is the *sparse level*.
The paper's evaluation uses the simplest configuration — the lower triangular
pattern of ``A`` itself, no thresholding (``N = 1``, ``τ = 0``) — but the
machinery supports the general form, which the level-sweep ablation bench
exercises.
"""

from __future__ import annotations

from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import Pattern
from repro.sparse.symbolic import pattern_power, threshold_matrix
from repro.sparse.validate import require_finite, require_square

__all__ = ["fsai_initial_pattern"]


def fsai_initial_pattern(
    a: CSRMatrix,
    *,
    level: int = 1,
    threshold: float = 0.0,
) -> Pattern:
    """Lower-triangular a-priori pattern for ``G``.

    Parameters
    ----------
    a:
        SPD system matrix.
    level:
        Sparse level ``N``: the pattern of ``Ã^N`` is used.  ``1`` (default)
        reproduces the paper's evaluation configuration.
    threshold:
        Relative threshold ``τ`` applied to produce ``Ã`` (scale-independent,
        see :func:`repro.sparse.symbolic.threshold_matrix`).  ``0`` keeps all
        structurally non-zero entries.

    Returns
    -------
    Pattern
        Lower-triangular pattern including the full diagonal (required for
        the local systems to be non-singular).
    """
    require_square(a)
    if threshold > 0:
        # Thresholding is the one pattern step that reads the values.
        require_finite(a)
    base = threshold_matrix(a, threshold).pattern if threshold > 0 else a.pattern
    powered = pattern_power(base, level) if level > 1 else base
    return powered.tril().with_full_diagonal()
