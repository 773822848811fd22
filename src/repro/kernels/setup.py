"""Shared driver for the ``fsai_setup`` kernel op.

FSAI setup solves one small dense SPD system per pattern row
(``A[S_i, S_i] ĝ = e_i``, diagonal last) and normalises
``g = ĝ / sqrt(ĝ_i)``.  The op reformulates the whole setup around three
ideas, all chosen so that every backend produces **byte-identical** CSR
data:

* **Packed lower-triangle gather** — the solver touches only the lower
  triangle of each (symmetric) local system, so the gather looks up
  ``k(k+1)/2`` entries per row instead of ``k²``, each found by binary
  search in the matrix's sorted :meth:`~repro.sparse.csr.CSRMatrix
  .entry_keys`.  Gathered values are exact copies of ``A``'s data (or an
  exact ``0.0``), so *how* a backend searches cannot change a single bit.
* **Identity-padded grouping** — row-length buckets are greedily merged
  (:func:`plan_groups`) until a group holds ``MIN_GROUP_ROWS`` systems or
  padding would exceed ``PAD_CAP``; smaller systems sit in the bottom-right
  corner of the group's common size ``K`` with an identity block top-left.
  Padding is bitwise neutral: the identity rows solve to exact zeros, and
  ``x - 0.0 == x`` in IEEE arithmetic.  The plan is a pure function of the
  row-length histogram, so every backend builds the same groups.
* **Batch-last layout** — group stacks are stored ``(K, K, m)`` with the
  system index *last*, so the vectorized solver's column slices
  (``systems[j:, j]``) stream contiguously over all ``m`` systems instead
  of striding ``K²`` doubles between consecutive batch elements.  This
  layout is worth ~25% end to end on the campaign workload.

The factorisation itself is a fused-column Cholesky plus a column-oriented
back-substitution (:func:`solve_group_stack`), written so its per-element
operation sequence is identical whether executed as NumPy vector ops, as
scalar Python (the reference oracle) or as a numba ``prange`` kernel —
that is the determinism contract the cross-backend property tests pin
down with ``tobytes()`` equality.

Failure handling is deferred, not masked: the solver runs under IEEE
semantics (``sqrt`` of a negative pivot yields NaN, division by a zero
pivot yields inf), any non-SPD pivot propagates a non-finite value into
the solution's diagonal entry, and the driver raises
:class:`~repro.errors.NotSPDError` naming the first offending row after
all groups are solved.

This op is the only implementation of the exact setup.  The kernel
``reference`` backend replays it in scalar Python and is its oracle; the
tests also hold it to a per-row dense LAPACK solve
(:func:`repro.solvers.direct.solve_spd`) written in the test itself.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import NotSPDError

__all__ = [
    "MIN_GROUP_ROWS",
    "PAD_CAP",
    "plan_groups",
    "gather_group_stack",
    "solve_group_stack",
    "run_fsai_setup",
]

#: Merge row-length buckets until a group holds at least this many systems
#: (below it, per-group NumPy dispatch overhead dominates the solve).
MIN_GROUP_ROWS = 192

#: Never pad a size-``k0`` bucket into a group wider than
#: ``PAD_CAP * k0 + 1`` — padding work grows with ``K²`` per system.
PAD_CAP = 2.0

#: ``np.tril_indices(k)`` cache — the bench workload reuses a few dozen
#: distinct row lengths thousands of times.
_TRIL_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _tril_pairs(k: int) -> Tuple[np.ndarray, np.ndarray]:
    pair = _TRIL_CACHE.get(k)
    if pair is None:
        pair = np.tril_indices(k)
        _TRIL_CACHE[k] = pair
    return pair


def plan_groups(
    sizes: Sequence[int], counts: Sequence[int]
) -> List[List[int]]:
    """Greedy identity-padding plan over ascending row-length buckets.

    ``sizes``/``counts`` is the row-length histogram in ascending size
    order (``np.unique`` output).  Buckets are accumulated into the
    current group until it already holds :data:`MIN_GROUP_ROWS` systems
    or the next size would overshoot the padding cap; each group is then
    solved at its largest member size.  Deterministic for a given
    histogram — the cross-backend bit-identity guarantee rests on every
    backend seeing the same groups.
    """
    groups: List[List[int]] = []
    cur: List[int] = []
    cur_rows = 0
    k0 = 0
    for k, m in zip(sizes, counts):
        if cur and (cur_rows >= MIN_GROUP_ROWS or k > PAD_CAP * k0 + 1):
            groups.append(cur)
            cur, cur_rows = [], 0
        if not cur:
            k0 = k
        cur.append(int(k))
        cur_rows += int(m)
    if cur:
        groups.append(cur)
    return groups


def gather_group_stack(
    keys: np.ndarray,
    a_data: np.ndarray,
    n_cols: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    rows_parts: Sequence[np.ndarray],
    group: Sequence[int],
    K: int,
) -> np.ndarray:
    """Vectorized build of one group's ``(K, K, m)`` lower stack.

    ``keys`` is the matrix's sorted row-major entry keys with a ``-1``
    sentinel appended (so ``searchsorted`` results can be probed without
    bound checks); only the lower triangle of each local system is
    gathered, and systems smaller than ``K`` are identity-padded in the
    top-left corner.  Pattern indices are valid by construction
    (``_check_diagonals`` ran upstream), so no bound checking is needed.
    """
    m_tot = sum(len(rows) for rows in rows_parts)
    systems = np.zeros((K, K, m_tot))
    r0 = 0
    for k, rows in zip(group, rows_parts):
        r1 = r0 + len(rows)
        starts = indptr[rows]
        cols_t = indices[starts[:, None] + np.arange(k)].T  # (k, m)
        ia, ib = _tril_pairs(k)
        query = cols_t[ia] * n_cols + cols_t[ib]  # (k(k+1)/2, m)
        pos = np.searchsorted(keys[:-1], query)
        hit = keys[pos] == query
        vals = np.where(hit, a_data[np.minimum(pos, len(keys) - 2)], 0.0)
        pad = K - k
        systems[pad + ia, pad + ib, r0:r1] = vals
        if pad:
            diag = np.arange(pad)
            systems[diag, diag, r0:r1] = 1.0
        r0 = r1
    return systems


def solve_group_stack(systems: np.ndarray) -> np.ndarray:
    """Solve ``A x = e_last`` for every system of a ``(K, K, m)`` stack.

    Fused-column Cholesky over the stored lower triangles followed by a
    column-oriented back-substitution, all slicing along the contiguous
    batch axis.  The per-element operation sequence — subtract the ``t``
    updates in ascending order, one ``sqrt``, one division, then the
    back-sweep divisions/updates — is the canonical order every backend
    reproduces exactly; reordering any of it would break cross-backend
    bit-identity.

    Runs under IEEE semantics: a non-SPD pivot turns into NaN/inf and
    propagates into ``x[-1]`` instead of raising here, so one batched
    pivot check after the solve replaces per-system screening.
    """
    k, _, m = systems.shape
    x = np.zeros((k, m))
    L = np.zeros_like(systems)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(k):
            col = systems[j:, j].copy()  # (k - j, m), contiguous over m
            for t in range(j):
                col -= L[j:, t] * L[j, t]
            piv = np.sqrt(col[0])
            L[j, j] = piv
            if j + 1 < k:
                L[j + 1:, j] = col[1:] / piv
        # L^T x = y with y = (0, …, 0, 1/L_kk): column-oriented back sweep.
        x[-1] = 1.0 / L[-1, -1]
        for i in range(k - 1, 0, -1):
            x[i] = x[i] / L[i, i]
            x[:i] -= L[i, :i] * x[i]
        x[0] = x[0] / L[0, 0]
    return x


def run_fsai_setup(backend, a, pattern, lengths=None) -> np.ndarray:
    """Solve every local system of ``pattern`` and return normalised data.

    The shared driver behind :meth:`KernelBackend.fsai_setup`: plans the
    groups, calls the backend's ``_fsai_setup_build`` /
    ``_fsai_setup_solve`` hooks per group, normalises
    ``g = ĝ / sqrt(ĝ_i)`` centrally (so the normalisation arithmetic is
    one implementation for all backends) and raises
    :class:`~repro.errors.NotSPDError` naming the first row whose pivot
    is non-positive or non-finite.

    ``lengths`` is the validated row-length array from
    ``repro.fsai.frobenius._check_diagonals`` (recomputed when omitted;
    callers are expected to have validated the diagonal-last invariant).
    Returns the ``pattern.nnz`` data array aligned with the pattern.
    """
    indptr = pattern.indptr
    if lengths is None:
        lengths = np.diff(indptr)
    n_rows = len(indptr) - 1
    nnz = int(indptr[-1])
    data = np.empty(nnz)
    pivots = np.empty(n_rows)
    keys = np.concatenate(
        [a.entry_keys(), np.asarray([-1], dtype=np.int64)]
    )
    n_cols = np.int64(a.n_cols)
    sizes, counts = np.unique(lengths, return_counts=True)
    for group in plan_groups(sizes.tolist(), counts.tolist()):
        K = group[-1]
        rows_parts = [np.flatnonzero(lengths == k) for k in group]
        systems = backend._fsai_setup_build(
            keys, a.data, n_cols, indptr, pattern.indices,
            rows_parts, group, K,
        )
        sol = backend._fsai_setup_solve(systems)  # (K, m)
        piv = sol[-1]
        with np.errstate(invalid="ignore"):
            norm = sol / np.sqrt(piv)
        r0 = 0
        for k, rows in zip(group, rows_parts):
            r1 = r0 + len(rows)
            pivots[rows] = piv[r0:r1]
            span = indptr[rows][:, None] + np.arange(k)
            data[span] = norm[K - k:, r0:r1].T
            r0 = r1
    bad = ~((pivots > 0) & np.isfinite(pivots))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NotSPDError(
            f"row {i}: non-positive diagonal solution {pivots[i]:.3e} "
            "(matrix restriction not SPD)"
        )
    return data
