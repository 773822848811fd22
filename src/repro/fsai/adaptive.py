"""Dynamic (adaptive) FSAI patterns — FSPAI-style, Huckle [21].

The paper's related work (§8) contrasts the *static* a-priori patterns it
evaluates with *dynamic* methods that grow the pattern adaptively from a
diagonal start (FSPAI, BSAI, PSAI, ...), and argues the cache-friendly
extension is **complementary to any of them**.  This module provides a
from-scratch FSPAI-style adaptive pattern builder so that claim can be
exercised:

* :func:`adaptive_pattern` — greedy pattern growth.  Starting from
  ``S_i = {i}``, each row repeatedly solves its local system
  ``A[S_i,S_i] ĝ_i = e_i`` and adds the admissible candidate
  ``j ∉ S_i``, ``j < i`` with the largest normalised residual
  ``|(ĝ_i A)_j| / sqrt(a_jj)`` — the first-order decrease of the Kaporin /
  Frobenius functional — until that residual is at most ``tolerance`` or
  the per-row budget is exhausted.
* :func:`setup_fspai` — exact ``G`` on the adaptive pattern.
* :func:`setup_fspai_cache_extended` — the composition: adaptive pattern →
  cache-friendly extension → precalculation filtering → exact ``G``
  (the §9 "complementary to any numerical strategy" pipeline).

Batched growth
--------------
Rows grow independently, so one growth step serves every still-growing
row (the batched residual-driven selection of Jia & Kang):

1. :func:`~repro.fsai.frobenius.compute_g` on the current pattern, with
   stopped rows cut to their diagonal;
2. ``ĝ_i = G_ii · G_i``, since ``G_i = ĝ_i / sqrt(ĝ_ii)`` makes
   ``G_ii = sqrt(ĝ_ii)``;
3. one backend ``spgemm(Ĝ, A)``, whose structure is the candidate set;
4. one ``np.lexsort`` for the picks: score descending, exact ties to the
   largest column.

The result is the per-row greedy loop's pattern up to ulp-level ties.
Where two scores agree to the last bits, the batched Cholesky's rounding
and the SpGEMM summation order decide the pick; a dense solve may round
the other way.
"""

from __future__ import annotations

import numpy as np

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.fsai.extended import FSAISetup, setup_fsaie_sweep
from repro.fsai.frobenius import (
    _resolve_setup_backend,
    compute_g,
    setup_flops_direct,
)
from repro.fsai.precond import FSAIApplication
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import Pattern
from repro.sparse.validate import require_spd_screen

__all__ = ["adaptive_pattern", "setup_fspai", "setup_fspai_cache_extended"]


def adaptive_pattern(
    a: CSRMatrix,
    *,
    max_new_per_row: int = 8,
    tolerance: float = 1e-2,
) -> Pattern:
    """FSPAI-style adaptive lower-triangular pattern (batched growth).

    Parameters
    ----------
    a:
        SPD matrix.
    max_new_per_row:
        Budget of adaptively added entries per row (dynamic methods trade
        preprocessing cost for pattern quality; the budget bounds it).
    tolerance:
        Stop growing a row when its best candidate's normalised residual
        is at most this value.
    """
    require_spd_screen(a)
    if max_new_per_row < 0:
        raise ValueError("invalid growth budget")
    n = a.n_rows
    kb = _resolve_setup_backend(None)
    scale = np.sqrt(a.diagonal())
    pattern = Pattern.identity(n)
    growing = np.ones(n, dtype=bool)
    steps = 0
    while steps < max_new_per_row and growing.any():
        steps += 1
        rows, cols = pattern.coo()
        keep = growing[rows] | (rows == cols)  # stopped rows: diagonal only
        current = Pattern.from_coo(n, n, rows[keep], cols[keep])
        g = compute_g(a, current, backend=kb.name)
        g_diag = g.data[current.indptr[1:] - 1]
        g_hat = CSRMatrix.from_pattern(current, g.data * g_diag[g.row_ids()])
        resid = kb.spgemm(g_hat, a)
        rows, cols = resid.row_ids(), resid.indices
        in_s = np.isin(resid.entry_keys(), current._keys(), assume_unique=True)
        cand = growing[rows] & (cols < rows) & ~in_s
        rows, cols = rows[cand], cols[cand]
        scores = np.abs(resid.data[cand]) / scale[cols]
        order = np.lexsort((-cols, -scores, rows))
        best = order[np.unique(rows[order], return_index=True)[1]]
        best = best[scores[best] > tolerance]
        growing[:] = False
        growing[rows[best]] = True
        pattern = pattern.union(Pattern.from_coo(n, n, rows[best], cols[best]))
    if trace.enabled():
        trace.add_counter("fsai.adaptive_steps", steps)
    return pattern


def setup_fspai(
    a: CSRMatrix,
    *,
    max_new_per_row: int = 8,
    tolerance: float = 1e-2,
) -> FSAISetup:
    """Exact FSAI factor on an adaptively grown (FSPAI) pattern."""
    with trace.span("fsai.setup", method="fspai", n=a.n_rows):
        pattern = adaptive_pattern(
            a, max_new_per_row=max_new_per_row, tolerance=tolerance
        )
        g = compute_g(a, pattern)
        return FSAISetup(
            method="fspai",
            application=FSAIApplication(g),
            base_pattern=pattern,
            final_pattern=pattern,
            # The adaptive search re-solves growing local systems;
            # accounting a direct solve per growth step is a faithful
            # lower bound.
            flops={"direct": (max_new_per_row + 1) * setup_flops_direct(pattern)},
            filter_value=None,
        )


def setup_fspai_cache_extended(
    a: CSRMatrix,
    placement: ArrayPlacement,
    *,
    max_new_per_row: int = 8,
    tolerance: float = 1e-2,
    filter_value: float = 0.01,
) -> FSAISetup:
    """Cache-friendly extension on top of the adaptive pattern (§9 claim).

    Pipeline: adaptive pattern → Algorithm 3 extension → §5 precalculation
    filtering → exact ``G`` — i.e. the FSAIE(sp) flow with the dynamic
    pattern replacing ``tril(A)``, grown inside the setup's span.
    """
    def adaptive_base():
        base = adaptive_pattern(
            a, max_new_per_row=max_new_per_row, tolerance=tolerance
        )
        return base, {"adaptive": (max_new_per_row + 1) * setup_flops_direct(base)}

    return setup_fsaie_sweep(
        a, placement, ("fspai_ext",), (filter_value,), base=adaptive_base
    )["fspai_ext", filter_value]
