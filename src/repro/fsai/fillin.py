"""Cache-friendly fill-in (paper §4, Algorithm 3).

Given a sparse pattern ``S`` and the cache-line placement of the multiplied
vector ``x``, extend each row of ``S`` with the columns whose ``x`` elements
share a cache line with an element the row already accesses.  By
construction the extended row touches **exactly the same set of cache
lines** as the original row — the central invariant of the paper, asserted
row by row by the property-based tests in ``tests/fsai/test_fillin.py``.

The implementation is fully vectorised: one pass builds all (row, line)
pairs, a second expands each pair into its clipped column block, and the
union with the original pattern happens in a single COO round-trip.
Triangular restriction ("except if they correspond to entries above the
diagonal", §4.4) is a clip against the row index.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.errors import PatternError
from repro.sparse.pattern import Pattern

__all__ = ["extend_pattern_cache_friendly", "extension_entries"]

Triangular = Literal["lower", "upper", "none"]


def extend_pattern_cache_friendly(
    pattern: Pattern,
    placement: ArrayPlacement,
    *,
    triangular: Triangular = "lower",
) -> Pattern:
    """Algorithm 3: extend ``pattern`` with same-cache-line columns.

    Parameters
    ----------
    pattern:
        Pattern to extend (the pattern of ``G`` — or of ``G^T`` for the
        second step of FSAIE(full)).
    placement:
        Cache-line placement of the multiplied vector; supplies the line
        size (the algorithm's only architecture input, §4.1) and the
        alignment offset of element 0.
    triangular:
        ``"lower"`` clips added entries to ``col <= row`` (extending the
        pattern of lower-triangular ``G``), ``"upper"`` to ``col >= row``
        (extending the pattern of ``G^T``), ``"none"`` adds the full blocks
        (plain SpMV matrices).

    Returns
    -------
    Pattern
        Superset of ``pattern``; rows touch exactly the same cache lines of
        ``x`` as before.
    """
    if triangular not in ("lower", "upper", "none"):
        raise PatternError(f"invalid triangular mode {triangular!r}")
    if pattern.nnz == 0:
        return pattern

    with trace.span(
        "fsai.extension", triangular=triangular, nnz=pattern.nnz
    ):
        epl = placement.elements_per_line
        offset = placement.element_offset
        n_cols = pattern.n_cols

        rows, cols = pattern.coo()
        lines = (cols + offset) // epl
        # Unique (row, line) pairs == the "already considered column block"
        # skip of Algorithm 3 lines 6-8, applied globally.
        pair_keys = rows * ((n_cols + offset) // epl + 1) + lines
        _, first_idx = np.unique(pair_keys, return_index=True)
        pair_rows = rows[first_idx]
        pair_lines = lines[first_idx]

        # Expand pairs into column blocks [line*epl - offset, ... + epl-1].
        starts = pair_lines * epl - offset
        block = starts[:, None] + np.arange(epl, dtype=np.int64)[None, :]
        block_rows = np.broadcast_to(pair_rows[:, None], block.shape)

        flat_cols = block.ravel()
        flat_rows = block_rows.ravel()
        valid = (flat_cols >= 0) & (flat_cols < n_cols)
        if triangular == "lower":
            valid &= flat_cols <= flat_rows
        elif triangular == "upper":
            valid &= flat_cols >= flat_rows

        all_rows = np.concatenate([rows, flat_rows[valid]])
        all_cols = np.concatenate([cols, flat_cols[valid]])
        extended = Pattern.from_coo(pattern.n_rows, n_cols, all_rows, all_cols)
        if trace.enabled():
            trace.add_counter(
                "pattern.entries_added", int(extended.nnz - pattern.nnz)
            )
        return extended


def extension_entries(base: Pattern, extended: Pattern) -> Pattern:
    """Entries added by an extension: ``extended \\ base``.

    Raises :class:`PatternError` if ``extended`` is not a superset — callers
    always pass a pattern produced by one of the extension functions, and a
    violation indicates a bookkeeping bug upstream.
    """
    if not base.is_subset_of(extended):
        raise PatternError("extended pattern is not a superset of the base pattern")
    return extended.difference(base)
