"""Shared driver for the ``fsai_setup`` kernel op.

FSAI setup solves one small dense SPD system per pattern row
(``A[S_i, S_i] ĝ = e_i``, diagonal last) and normalises
``g = ĝ / sqrt(ĝ_i)``.  The op reformulates the whole setup around three
ideas, all chosen so that every backend produces **byte-identical** CSR
data:

* **Packed lower-triangle gather, by row walk** — the solver touches
  only the lower triangle of each (symmetric) local system.  Slot ``p``
  of system ``s`` walks the lower part of ``A``'s row ``S_s[p]`` and
  keeps the entries whose column lies in ``S_s`` (one ``searchsorted``
  into the row-length part's own ``(s, column)`` keys), which examines
  far fewer entries than testing all ``k(k+1)/2`` pairs against ``A``.
  The input bounds the walk: a part whose rows of ``A`` hold more lower
  entries than its pairs (``Σ lowlen > m·k(k+1)/2`` — a dense row of
  ``A``, say) binary-searches each pair in the matrix's sorted
  :meth:`~repro.sparse.csr.CSRMatrix.entry_keys` instead, so the gather
  never examines more than the pair probe would.  Gathered values are
  exact copies of ``A``'s data (or an exact ``+0.0``), so *how* a backend
  gathers cannot change a single bit.
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

This op is the only implementation of the exact setup; the adaptive
FSPAI growth (:mod:`repro.fsai.adaptive`) runs it once per growth step.
The kernel ``reference`` backend replays it in scalar Python and is its
oracle; the tests also hold it to a per-row dense ``np.linalg.solve``
written in the test itself.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import trace
from repro.errors import NotSPDError

__all__ = [
    "MIN_GROUP_ROWS",
    "PAD_CAP",
    "plan_groups",
    "lower_ends",
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


def lower_ends(a) -> np.ndarray:
    """End offset of the lower part (columns ``<= row``) of each CSR row.

    ``a.indptr[r]:lower_ends(a)[r]`` is the slice of row ``r`` the row
    walk of :func:`gather_group_stack` examines.
    """
    ids = a.row_ids()
    low = np.bincount(ids[a.indices <= ids], minlength=a.n_rows)
    return a.indptr[:-1] + low


def gather_group_stack(
    a,
    low_end: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    rows_parts: Sequence[np.ndarray],
    group: Sequence[int],
    K: int,
) -> np.ndarray:
    """Vectorized build of one group's ``(K, K, m)`` lower stack.

    Only the lower triangle of each local system is gathered, and systems
    smaller than ``K`` are identity-padded in the top-left corner.  Each
    row-length part takes the cheaper of two gathers, judged by the
    number of ``A`` entries each would examine:

    * **row walk** (``Σ lowlen ≤ m·k(k+1)/2``): slot ``p`` of system
      ``s`` walks the lower part of ``A``'s row ``S_s[p]``
      (``a.indptr[r]:low_end[r]``, from :func:`lower_ends`) and keeps
      the entries whose column is in ``S_s``, found by one
      ``searchsorted`` into the part's own sorted ``(s, column)`` keys;
    * **pair probe** (otherwise, e.g. when the part's slots include a
      dense row of ``A``): each of the ``k(k+1)/2`` pairs is
      binary-searched in ``A``'s global
      :meth:`~repro.sparse.csr.CSRMatrix.entry_keys`.

    Both store exact copies of ``a.data`` and leave every other entry at
    the zeroed ``+0.0``, so the choice never changes a bit.  Pattern rows
    must be sorted with the diagonal last (``_check_diagonals`` ran
    upstream); no further bound checking is needed.  While tracing, the
    entries examined and stored are counted as
    ``fsai.gather_candidates`` and ``fsai.gather_hits``.
    """
    m_tot = sum(len(rows) for rows in rows_parts)
    systems = np.zeros((K, K, m_tot))
    flat = systems.reshape(-1)
    a_ptr, a_cols, a_data = a.indptr, a.indices, a.data
    n_cols = np.int64(a.n_cols)
    candidates = hits = 0
    r0 = 0
    for k, rows in zip(group, rows_parts):
        m = len(rows)
        r1 = r0 + m
        pad = K - k
        if pad:
            diag = np.arange(pad)
            systems[diag, diag, r0:r1] = 1.0
        cols = indices[indptr[rows][:, None] + np.arange(k)]  # (m, k)
        lo = a_ptr[cols].ravel()
        lens = low_end[cols].ravel() - lo
        walked = int(lens.sum())
        pairs = m * k * (k + 1) // 2
        if walked <= pairs:
            # Candidate e sits in slot ``slot[e] = s*k + p``; its position
            # in A runs over the concatenated segments lo[slot]:low_end.
            slot = np.repeat(np.arange(m * k), lens)
            pos = np.arange(walked) + np.repeat(lo - (np.cumsum(lens) - lens), lens)
            sys_keys = (np.arange(m)[:, None] * n_cols + cols).ravel()
            query = (slot // k) * n_cols + a_cols[pos]
            at = np.searchsorted(sys_keys, query)
            np.minimum(at, len(sys_keys) - 1, out=at)
            keep = np.flatnonzero(sys_keys[at] == query)
            # Hit (s, p) -> (s, q) with q = at % k; row-major flat index
            # of systems[pad + p, pad + q, r0 + s].
            slot, at = slot[keep], at[keep]
            s = slot // k
            flat[((pad + slot - s * k) * K + pad + at - s * k) * m_tot + r0 + s] = (
                a_data[pos[keep]]
            )
            candidates += walked
            hits += len(keep)
        else:
            # walked > pairs >= 1, so A has entries and keys is non-empty.
            keys = a.entry_keys()
            ia, ib = _tril_pairs(k)
            cols_t = cols.T
            query = cols_t[ia] * n_cols + cols_t[ib]  # (k(k+1)/2, m)
            at = np.searchsorted(keys, query)
            np.minimum(at, len(keys) - 1, out=at)
            hit = keys[at] == query
            systems[pad + ia, pad + ib, r0:r1] = np.where(hit, a_data[at], 0.0)
            candidates += pairs
            if trace.enabled():
                hits += int(np.count_nonzero(hit))
        r0 = r1
    if trace.enabled():
        trace.add_counter("fsai.gather_candidates", candidates)
        trace.add_counter("fsai.gather_hits", hits)
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
    low_end = lower_ends(a)
    sizes, counts = np.unique(lengths, return_counts=True)
    for group in plan_groups(sizes.tolist(), counts.tolist()):
        K = group[-1]
        rows_parts = [np.flatnonzero(lengths == k) for k in group]
        systems = backend._fsai_setup_build(
            a, low_end, indptr, pattern.indices, rows_parts, group, K,
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
