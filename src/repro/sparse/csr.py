"""Compressed Sparse Row matrix and its SpMV kernels.

:class:`CSRMatrix` is the computational workhorse of the library: the CG
solver, the FSAI preconditioner application and the cache simulator all
consume CSR.  The kernels themselves live in :mod:`repro.kernels` — a
pluggable backend registry (``numpy``/``reference``) —
:meth:`matvec`/:meth:`rmatvec` validate shapes, then delegate to the
active backend.  The matrix caches the structure views the backends need
(row-id expansion, the diagonal and row-length-bucketed ELL views of
``A`` and ``A.T``) so repeated products pay for them once.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro._einsum import _einsum
from repro._typing import (
    FloatArray,
    IndexArray,
    as_index_array,
    as_value_array,
)
from repro.errors import ShapeError
from repro.kernels import get_backend
from repro.sparse.pattern import Pattern, _validate_structure

__all__ = ["CSRMatrix", "EllBucket", "EllView"]

#: Below this many stored entries no DIA/HYB view is built (nor does a
#: HYB remainder count as padding well): the plain ELL view already costs
#: next to nothing there.
_ELL_MIN_NNZ = 256

#: Padding bound of the ELL view (see :meth:`CSRMatrix.ell_view`): a
#: matrix whose rows pad to the widest row within this factor of its
#: stored entry count is one block; otherwise every row-length bucket
#: stays within it.
_ELL_MAX_PAD = 1.5

#: A DIA view stores ``n_diagonals * n`` values; build it only when that
#: is within this factor of the stored entry count (true stencils sit
#: near 1.0, anything unstructured blows past it immediately).
_DIA_MAX_FILL = 1.5

#: Hybrid (HYB) split gates for matrices that are *almost* stencils:
#: diagonals at least this occupied go into the DIA part (below ~25%
#: occupancy the padded einsum row costs more than scattering the same
#: entries through ``bincount``), and the split is only worthwhile when
#: the DIA part captures at least this fraction of the stored entries.
_HYB_MIN_OCCUPANCY = 0.25
_HYB_MIN_COVERAGE = 0.5

#: A matrix whose HYB remainder rows pad to within this factor takes the
#: plain ELL view instead of a DIA view: on the benchmark matrices of that
#: shape the ELL view ran as fast as DIA plus a padded remainder or
#: faster, and a COO remainder slower (timings in ``docs/kernels.md``).
#: Sparser remainders stay COO.
_HYB_REM_MAX_PAD = 2.0

#: Byte budget of the gathered window stack in one blocked DIA product
#: (:meth:`DiaView.apply_multi`): ``rows * n_diagonals * n_out * 8`` stays
#: under it, so the einsum's operand stays cache-resident.  A view whose
#: single row already exceeds it (a 64k-row stencil) takes the row loop
#: over :meth:`DiaView.apply` instead.  Measured on a 2-core Xeon: on the
#: eight ``serve`` benchmark operators, budgets from 128 KiB to 1 MiB (and
#: the plain row loop) ran at the same speed within noise; with no budget,
#: the 64k-row ``heat2d`` FSAIE(full) factor ran 2.2-2.3x slower at
#: k = 8 and 32.  The batching pays on small stencils: ``pcg_multi`` at
#: k = 32 on n = 144/256 ran 4.6x the looped ``pcg``, 1.4x with rows alone.
_DIA_BLOCK_BYTES = 256 * 1024

#: Cache slot sentinel: "not computed yet" (``None`` means "ineligible").
_UNSET = object()


class DiaView:
    """Diagonal (DIA) view of a stencil-structured CSR matrix (cached).

    For matrices whose entries concentrate on a few diagonals — the
    discretized-PDE shape of the paper's suite — SpMV needs no gather at
    all: ``y[i] = sum_d data[d, i] * x[i + offset_d]`` where each shifted
    ``x`` is a *contiguous window* of a zero-padded copy.  The view owns
    that padded buffer and a precomputed sliding-window view over it, so
    one product is: refill the pad interior, select ``k`` window rows
    (``k`` contiguous copies, no random access), one ``einsum`` row-dot.

    Almost-stencils (a dominant band plus scattered off-band entries, as
    boundary conditions and irregular couplings produce) get a *hybrid*
    split in the spirit of the classic HYB format: the well-occupied
    diagonals form the DIA part and the leftover entries are added on
    top as a COO remainder through one gather + ``bincount`` scatter per
    product.  A remainder dense enough to pad well sends the whole
    matrix to the ELL view instead (see ``_HYB_REM_MAX_PAD``).

    When the remainder is empty, offsets ascend, so per output element
    the ``k`` terms accumulate in column order — the same sequential
    order as the CSR reference kernel, keeping the pure-stencil fast path
    bit-exact, not just close.  A non-empty remainder reorders the
    accumulation (DIA terms first, remainder terms second), which is
    float-associativity-accurate rather than bitwise.

    The padded buffers are per-matrix mutable scratch: products on the
    same matrix are not re-entrant (single-threaded solver loops, the only
    consumer, never interleave them).
    """

    __slots__ = (
        "data", "sel", "xp", "windows", "lo", "n_in", "n_out",
        "rem_out", "rem_in", "rem_data", "rem_buf",
        "block_rows", "xpb", "windows_b",
    )

    def __init__(self, data: FloatArray, offsets: IndexArray,
                 n_in: int, n_out: int,
                 rem_out: Optional[IndexArray] = None,
                 rem_in: Optional[IndexArray] = None,
                 rem_data: Optional[FloatArray] = None) -> None:
        self.data = data  # (k, n_out): data[d, i] = A[i, i + offsets[d]]
        lo = max(0, -int(offsets[0]))
        hi = max(0, int(offsets[-1]) + n_out - n_in)
        self.xp = np.zeros(n_in + lo + hi)
        self.windows = np.lib.stride_tricks.sliding_window_view(self.xp, n_out)
        self.sel = offsets + lo
        self.lo = lo
        self.n_in = n_in
        self.n_out = n_out
        self.rem_out = rem_out  # COO remainder (HYB split), or None
        self.rem_in = rem_in
        self.rem_data = rem_data
        self.rem_buf = None if rem_data is None else np.empty(len(rem_data))
        # Vectors per blocked einsum (see _DIA_BLOCK_BYTES); 0 = row loop.
        self.block_rows = _DIA_BLOCK_BYTES // (8 * data.shape[0] * n_out)
        self.xpb = None  # (block_rows, pad) twin of ``xp``, built lazily
        self.windows_b = None  # sliding windows over ``xpb``, built with it

    def apply(self, x: FloatArray, out: FloatArray) -> FloatArray:
        """``out[i] = sum_d data[d, i] * x[i + offset_d]`` (+ remainder)."""
        self.xp[self.lo:self.lo + self.n_in] = x
        _einsum("kn,kn->n", self.data, self.windows[self.sel], out=out)
        self._add_remainder(x, out)
        return out

    def _add_remainder(self, x: FloatArray, out: FloatArray) -> None:
        if self.rem_out is not None:
            np.multiply(self.rem_data, x[self.rem_in], out=self.rem_buf)
            out += np.bincount(
                self.rem_out, weights=self.rem_buf, minlength=self.n_out,
            )

    def apply_multi(self, x: FloatArray, out: FloatArray) -> FloatArray:
        """Blocked :meth:`apply` over a ``(k, n)`` block: ``out[j] = A @ x[j]``.

        Up to ``block_rows`` vectors share one ``(rows, pad)`` padded
        buffer and one ``einsum("dn,kdn->kn")``; the diagonal axis is
        contracted in the same ascending order per output element as
        :meth:`apply`, so every row is byte-identical to its
        single-vector product.  Views too large for one row per block,
        and a HYB remainder, take :meth:`apply`'s own kernels row by
        row.
        """
        rows = self.block_rows
        if rows == 0:
            for xj, oj in zip(x, out):
                self.apply(xj, oj)
            return out
        if self.xpb is None:
            self.xpb = np.zeros((rows, len(self.xp)))
            self.windows_b = np.lib.stride_tricks.sliding_window_view(
                self.xpb, self.n_out, axis=1
            )
        interior = slice(self.lo, self.lo + self.n_in)
        for start in range(0, len(x), rows):
            stop = min(start + rows, len(x))
            m = stop - start
            self.xpb[:m, interior] = x[start:stop]
            _einsum(
                "dn,kdn->kn", self.data, self.windows_b[:m, self.sel],
                out=out[start:stop],
            )
        if self.rem_out is not None:
            for xj, oj in zip(x, out):
                self._add_remainder(xj, oj)
        return out


def _build_dia(
    offs_per_entry: np.ndarray, out_ids: IndexArray, in_ids: IndexArray,
    values: FloatArray, n_in: int, n_out: int,
) -> Optional[DiaView]:
    """DIA view over entries at ``(out_ids, out_ids + offs_per_entry)``.

    Pure stencils (every diagonal worth storing) get an exact DIA view;
    almost-stencils get the HYB split with the under-occupied diagonals'
    entries kept as a COO remainder; anything unstructured, and an
    almost-stencil whose remainder pads well, returns ``None`` and the
    caller falls back to the ELL view.
    """
    nnz = len(values)
    if nnz < _ELL_MIN_NNZ:
        return None
    offsets, counts = np.unique(offs_per_entry, return_counts=True)
    k = len(offsets)
    if k == 0:
        return None
    if k * n_out <= _DIA_MAX_FILL * nnz:  # true stencil: exact DIA
        data = np.zeros((k, n_out))
        data[np.searchsorted(offsets, offs_per_entry), out_ids] = values
        return DiaView(data, offsets, n_in, n_out)
    dense = offsets[counts >= _HYB_MIN_OCCUPANCY * n_out]
    if len(dense) == 0:
        return None
    on_band = np.isin(offs_per_entry, dense)
    if int(on_band.sum()) < _HYB_MIN_COVERAGE * nnz:
        return None
    off_band = ~on_band
    rem_out = out_ids[off_band]
    # A remainder that pads well runs faster in the plain ELL view.
    counts = np.bincount(rem_out, minlength=n_out)
    if (len(rem_out) >= _ELL_MIN_NNZ
            and n_out * counts.max() <= _HYB_REM_MAX_PAD * len(rem_out)):
        return None
    data = np.zeros((len(dense), n_out))
    data[
        np.searchsorted(dense, offs_per_entry[on_band]), out_ids[on_band]
    ] = values[on_band]
    return DiaView(
        data, dense, n_in, n_out,
        rem_out=rem_out, rem_in=in_ids[off_band], rem_data=values[off_band],
    )


class EllBucket(NamedTuple):
    """One padded block of an ELL view: rows of one row-length range.

    ``gather_ids`` and ``data`` are slot-major ``(width, m)`` arrays:
    column ``j`` holds row ``j``'s entries in stored order, padded to the
    block's widest row, so slot ``k`` of every row is one contiguous
    line.  Padding slots gather index 0 against a stored value of 0.0,
    so a product over the padded arrays equals the exact CSR product.
    ``rows`` lists the block's output ids in ascending order, or is
    ``None`` when the block holds every row in order.

    ``einsum("km,km->m")`` over this layout reduces along the strided
    slot axis, which numpy evaluates as a plain accumulation from 0.0 in
    slot order: the order in which the reference backend's ``bincount``
    adds the same entries, so the products are its bytes.  With a single
    column the slot axis turns contiguous and numpy sums it pairwise
    instead, so a bucket of one row stores it twice, under row ids
    ``[r, r]`` (both copies write the same value).
    """

    rows: Optional[IndexArray]
    gather_ids: IndexArray
    data: FloatArray


def _ell_block(
    counts: np.ndarray, gather_ids: IndexArray, values: FloatArray,
    rows: Optional[IndexArray] = None,
) -> EllBucket:
    """Pad ``counts``-sized groups (entries in group order) to one width.

    The block is slot-major, ``(width, m)``; a lone group is stored twice
    under explicit row ids (see :class:`EllBucket`).
    """
    if len(counts) == 1:
        counts = np.repeat(counts, 2)
        gather_ids = np.tile(gather_ids, 2)
        values = np.tile(values, 2)
        rows = np.zeros(2, dtype=np.int64) if rows is None else np.repeat(rows, 2)
    width = int(counts.max(initial=0))
    idx = np.zeros((width, len(counts)), dtype=np.int64)
    dat = np.zeros((width, len(counts)))
    # Fill through the transposed views, which visit entries in group
    # order; a mask laid out like the arrays fills faster than a (m, width)
    # one.
    valid = (np.arange(width)[:, None] < counts).T
    idx.T[valid] = gather_ids
    dat.T[valid] = values
    return EllBucket(rows, idx, dat)


class EllView:
    """Row-length-bucketed ELLPACK view of a CSR matrix (cached, immutable).

    A product is one 2-D gather and one slot-major ``einsum`` contraction
    per bucket (the DIA kernel's shape), with no per-segment reduction
    machinery.  Rows that pad into one block (within ``_ELL_MAX_PAD`` of
    the stored entries, the near-uniform rows of FEM and stencil
    matrices) form a single bucket written straight into ``out``.  Skewed
    matrices — an extended FSAI factor's few long rows among thousands of
    5-entry ones, or a graph's hubs — get a short list of buckets over
    ascending row-length ranges, each padded only to its own widest row
    and scattered into ``out`` by its row ids.  The buckets cover every
    row exactly once, empty rows included, so no output needs a separate
    zero fill.  Every row sums its entries in stored order from 0.0, so
    the products equal the reference backend's byte for byte (see
    :class:`EllBucket`).
    """

    __slots__ = ("buckets",)

    def __init__(self, buckets: Tuple[EllBucket, ...]) -> None:
        self.buckets = buckets

    def apply(self, x: FloatArray, out: FloatArray) -> FloatArray:
        """``out = A @ x`` over the padded buckets."""
        for rows, ids, data in self.buckets:
            if rows is None:
                _einsum("km,km->m", data, x.take(ids), out=out)
            else:
                out[rows] = _einsum("km,km->m", data, x.take(ids))
        return out

    def apply_multi(self, x: FloatArray, out: FloatArray) -> FloatArray:
        """:meth:`apply` on every row of a ``(k, n)`` block, in turn."""
        for xj, oj in zip(x, out):
            self.apply(xj, oj)
        return out


def _bucket_ids(counts: np.ndarray) -> np.ndarray:
    """Bucket of every group: a greedy plan over ascending group lengths.

    The plan walks the length histogram the way
    :func:`repro.kernels.setup.plan_groups` does.  A length joins the
    open bucket only when the padding it forces on the bucket's shorter
    rows stays within ``_ELL_MAX_PAD - 1`` of the entries it brings;
    otherwise it opens the next bucket.  Every bucket therefore pads
    within ``_ELL_MAX_PAD`` of its entries, and a bulk of equal rows is
    never widened by a few longer ones.
    """
    sizes, n_rows = np.unique(counts, return_counts=True)
    plan = np.empty(len(sizes), dtype=np.int64)
    bucket = rows = width = 0
    for j, (k, m) in enumerate(zip(sizes.tolist(), n_rows.tolist())):
        if rows and rows * (k - width) > (_ELL_MAX_PAD - 1.0) * m * k:
            bucket, rows = bucket + 1, 0
        plan[j] = bucket
        rows += m
        width = k
    return plan[np.searchsorted(sizes, counts)]


def _build_ell(
    counts: np.ndarray, gather_ids: IndexArray, values: FloatArray,
) -> EllView:
    """Bucketed ELL view over ``counts``-sized groups in group order."""
    if len(counts) * counts.max(initial=0) <= _ELL_MAX_PAD * len(values):
        return EllView((_ell_block(counts, gather_ids, values),))
    bucket = _bucket_ids(counts)
    entry_bucket = np.repeat(bucket, counts)
    buckets = []
    for b in range(int(bucket.max()) + 1):
        rows = np.flatnonzero(bucket == b)
        keep = entry_bucket == b
        buckets.append(
            _ell_block(counts[rows], gather_ids[keep], values[keep], rows)
        )
    return EllView(tuple(buckets))


class CSRMatrix:
    """Sparse matrix in Compressed Sparse Row format.

    Parameters
    ----------
    n_rows, n_cols:
        Matrix dimensions.
    indptr, indices:
        CSR structure; indices must be sorted and unique within each row.
    data:
        Values aligned with ``indices``.  Explicit zeros are legal structural
        entries (FSAI patterns routinely carry them).
    """

    __slots__ = (
        "n_rows", "n_cols", "indptr", "indices", "data", "_row_ids",
        "_entry_keys", "_ell", "_ell_t",
        "_dia", "_dia_t", "_fingerprint",
    )

    def __init__(
        self, n_rows: int, n_cols: int, indptr, indices, data, *,
        _validated: bool = False,
    ) -> None:
        self.indptr: IndexArray = as_index_array(indptr)
        self.indices: IndexArray = as_index_array(indices)
        self.data: FloatArray = as_value_array(data)
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        if not _validated:
            _validate_structure(self.n_rows, self.n_cols, self.indptr, self.indices)
        if len(self.data) != len(self.indices):
            raise ShapeError(
                f"data has {len(self.data)} entries, indices has {len(self.indices)}"
            )
        self._row_ids: Optional[IndexArray] = None  # lazy np.repeat expansion
        self._entry_keys: Optional[IndexArray] = None  # lazy row-major keys
        self._ell: Optional[EllView] = None  # lazy bucketed row view
        self._ell_t: Optional[EllView] = None  # lazy bucketed view of A.T
        self._dia = _UNSET  # lazy diagonal view (None = not a stencil)
        self._dia_t = _UNSET  # lazy diagonal view of A.T
        self._fingerprint: Optional[str] = None  # lazy content hash

    # pickle and copy.deepcopy carry only the CSR arrays; the lazy views
    # and the fingerprint are rebuilt on demand on the other side.
    def __getstate__(self) -> tuple:
        return (self.n_rows, self.n_cols, self.indptr, self.indices, self.data)

    def __setstate__(self, state: tuple) -> None:
        CSRMatrix.__init__(self, *state, _validated=True)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        """Number of stored entries (including explicit zeros)."""
        return len(self.data)

    @property
    def pattern(self) -> Pattern:
        """Structure-only view of this matrix (shares index arrays)."""
        return Pattern(
            self.n_rows, self.n_cols, self.indptr, self.indices, _validated=True
        )

    def fingerprint(self) -> str:
        """Content hash over dimensions, structure and values (cached).

        The preconditioner cache (:mod:`repro.fsai.cache`) keys on this:
        two matrices fingerprint equal exactly when they would produce the
        same FSAI factor.  SHA-256 over the raw array bytes — a one-time
        linear pass, cached because callers (the cache, campaign dedup)
        probe repeatedly with the same object.  Mutating ``data`` in place
        after the first call is outside the contract, as with every other
        cached view on this class.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(np.int64([self.n_rows, self.n_cols]).tobytes())
            h.update(np.ascontiguousarray(self.indptr).tobytes())
            h.update(np.ascontiguousarray(self.indices).tobytes())
            h.update(np.ascontiguousarray(self.data).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def row_ids(self) -> IndexArray:
        """Row id of every stored entry (cached ``np.repeat`` expansion)."""
        if self._row_ids is None:
            self._row_ids = np.repeat(
                np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr)
            )
        return self._row_ids

    def row(self, i: int) -> Tuple[IndexArray, FloatArray]:
        """``(columns, values)`` of row ``i`` (views, do not mutate)."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def entry_keys(self) -> IndexArray:
        """Row-major key ``row * n_cols + col`` of every stored entry.

        Sorted ascending by construction (rows ascend, columns are sorted
        within each row), so :meth:`gather_entries` can binary-search it.
        Cached like :meth:`row_ids`.
        """
        if self._entry_keys is None:
            self._entry_keys = self.row_ids() * np.int64(self.n_cols) + self.indices
        return self._entry_keys

    def dia_view(self) -> Optional[DiaView]:
        """Diagonal view for the numpy backend's stencil SpMV (cached).

        ``None`` unless the entries concentrate on few enough diagonals
        (``_DIA_MAX_FILL``, or the ``_HYB_*`` split for almost-stencils);
        see :class:`DiaView` for the product shape.
        """
        if self._dia is _UNSET:
            self._dia = _build_dia(
                self.indices - self.row_ids(), self.row_ids(), self.indices,
                self.data, self.n_cols, self.n_rows,
            ) if self.n_rows == self.n_cols else None
        return self._dia

    def dia_t_view(self) -> Optional[DiaView]:
        """Diagonal view of ``A.T`` for stencil transpose products (cached)."""
        if self._dia_t is _UNSET:
            self._dia_t = _build_dia(
                self.row_ids() - self.indices, self.indices, self.row_ids(),
                self.data, self.n_rows, self.n_cols,
            ) if self.n_rows == self.n_cols else None
        return self._dia_t

    def ell_view(self) -> EllView:
        """Row-length-bucketed ELL view for the numpy backend (cached).

        Built for every matrix; see :class:`EllView` for when it is one
        block and when several.
        """
        if self._ell is None:
            self._ell = _build_ell(
                np.diff(self.indptr), self.indices, self.data
            )
        return self._ell

    def ell_t_view(self) -> EllView:
        """Bucketed ELL view of ``A.T``, grouped by column (cached).

        One stable argsort of ``indices`` orders the entries by column
        (rows ascending within a column), so ``A.T @ x`` takes the same
        gather + row-dot shape as :meth:`ell_view` gives ``A @ x``.
        """
        if self._ell_t is None:
            order = np.argsort(self.indices, kind="stable")
            self._ell_t = _build_ell(
                np.bincount(self.indices, minlength=self.n_cols),
                self.row_ids()[order], self.data[order],
            )
        return self._ell_t

    # ------------------------------------------------------------------
    # Kernels (delegated to the repro.kernels backend registry)
    # ------------------------------------------------------------------
    def _check_scratch(self, scratch: Optional[FloatArray]) -> None:
        if scratch is not None and scratch.shape != (self.nnz,):
            raise ShapeError(
                f"scratch has shape {scratch.shape}, expected ({self.nnz},)"
            )

    def matvec(
        self, x: FloatArray, out: Optional[FloatArray] = None,
        *, scratch: Optional[FloatArray] = None, backend=None,
    ) -> FloatArray:
        """``y = A @ x`` — CSR SpMV via the active kernel backend.

        ``out`` may be supplied to receive the result.  ``scratch`` — an
        ``nnz``-length float buffer — receives the gather products on the
        reference backend instead of a fresh array; the numpy backend's
        views do not use it.  ``backend`` names a registered kernel
        backend (default: the registry's active one).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ShapeError(f"x has shape {x.shape}, expected ({self.n_cols},)")
        self._check_scratch(scratch)
        return get_backend(backend).spmv(self, x, out=out, scratch=scratch)

    def rmatvec(
        self, x: FloatArray, out: Optional[FloatArray] = None,
        *, scratch: Optional[FloatArray] = None, backend=None,
    ) -> FloatArray:
        """``y = A.T @ x`` without materialising the transpose.

        Every stored entry ``(i, j, v)`` contributes ``v * x[i]`` to
        ``y[j]``; the active backend chooses between scatter-add and the
        cached transpose views (:meth:`dia_t_view`, :meth:`ell_t_view`).
        ``out``/``scratch``/``backend`` work as in :meth:`matvec`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_rows,):
            raise ShapeError(f"x has shape {x.shape}, expected ({self.n_rows},)")
        self._check_scratch(scratch)
        return get_backend(backend).spmv_t(self, x, out=out, scratch=scratch)

    def __matmul__(self, x):
        return self.matvec(x)

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def diagonal(self) -> FloatArray:
        """Main-diagonal values; structurally-absent positions read as 0."""
        n = min(self.n_rows, self.n_cols)
        diag = np.zeros(n)
        rows = self.row_ids()
        hit = (rows == self.indices) & (rows < n)
        diag[rows[hit]] = self.data[hit]
        return diag

    def _tri(self, *, lower: bool, keep_diagonal: bool) -> "CSRMatrix":
        rows = self.row_ids()
        if lower:
            keep = self.indices <= rows if keep_diagonal else self.indices < rows
        else:
            keep = self.indices >= rows if keep_diagonal else self.indices > rows
        return self._masked(keep)

    def tril(self, *, keep_diagonal: bool = True) -> "CSRMatrix":
        """Lower-triangular part as a new CSR matrix."""
        return self._tri(lower=True, keep_diagonal=keep_diagonal)

    def triu(self, *, keep_diagonal: bool = True) -> "CSRMatrix":
        """Upper-triangular part as a new CSR matrix."""
        return self._tri(lower=False, keep_diagonal=keep_diagonal)

    def _masked(self, keep: np.ndarray) -> "CSRMatrix":
        """New matrix keeping only entries where ``keep`` is True."""
        rows = self.row_ids()[keep]
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n_rows), out=indptr[1:])
        return CSRMatrix(
            self.n_rows, self.n_cols, indptr, self.indices[keep], self.data[keep],
            _validated=True,
        )

    def drop_small(self, threshold: float, *, keep_diagonal: bool = True) -> "CSRMatrix":
        """Drop entries with ``|a_ij| <= threshold`` (optionally sparing the diagonal)."""
        keep = np.abs(self.data) > threshold
        if keep_diagonal:
            keep |= self.row_ids() == self.indices
        return self._masked(keep)

    def prune_zeros(self) -> "CSRMatrix":
        """Remove explicitly stored zeros."""
        return self._masked(self.data != 0.0)

    def gather_entries(self, rows: IndexArray, cols: IndexArray) -> np.ndarray:
        """Values at positions ``(rows[j], cols[j])``; absent entries read 0.

        ``rows`` and ``cols`` may have any (matching) shape — the
        post-filter rescale passes whole ``(batch, k, k)`` index blocks —
        and the values come back in that shape.  One binary search over the
        cached row-major :meth:`entry_keys` serves the whole block, so
        extracting every local system of a row-length bucket is a single
        vectorised lookup.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ShapeError(f"rows shape {rows.shape} != cols shape {cols.shape}")
        out = np.zeros(rows.shape)
        if rows.size == 0:
            return out
        if (rows.min() < 0 or rows.max() >= self.n_rows
                or cols.min() < 0 or cols.max() >= self.n_cols):
            raise ShapeError("gather_entries index out of range")
        keys = self.entry_keys()
        if len(keys) == 0:
            return out
        query = rows * np.int64(self.n_cols) + cols
        pos = np.searchsorted(keys, query)
        pos_c = np.minimum(pos, len(keys) - 1)
        hit = keys[pos_c] == query
        out[hit] = self.data[pos_c[hit]]
        return out

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def transpose(self) -> "CSRMatrix":
        """CSR matrix of ``A.T`` (explicit structure transpose)."""
        order = np.lexsort((self.row_ids(), self.indices))
        new_rows = self.indices[order]
        new_cols = self.row_ids()[order]
        new_data = self.data[order]
        indptr = np.zeros(self.n_cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_rows, minlength=self.n_cols), out=indptr[1:])
        return CSRMatrix(
            self.n_cols, self.n_rows, indptr, new_cols, new_data, _validated=True
        )

    @property
    def T(self) -> "CSRMatrix":
        return self.transpose()

    def to_coo(self):
        from repro.sparse.coo import COOMatrix

        return COOMatrix(
            self.n_rows, self.n_cols, self.row_ids().copy(),
            self.indices.copy(), self.data.copy(),
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.row_ids(), self.indices] = self.data
        return dense

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(
            self.n_rows, self.n_cols, self.indptr.copy(), self.indices.copy(),
            self.data.copy(), _validated=True,
        )

    def with_data(self, data: FloatArray) -> "CSRMatrix":
        """Same structure, new values (used when recomputing G on a fixed pattern)."""
        return CSRMatrix(
            self.n_rows, self.n_cols, self.indptr, self.indices, data,
            _validated=True,
        )

    @classmethod
    def from_pattern(cls, pattern: Pattern, data=None) -> "CSRMatrix":
        """Matrix over ``pattern``; values default to zero."""
        if data is None:
            data = np.zeros(pattern.nnz)
        return cls(
            pattern.n_rows, pattern.n_cols, pattern.indptr, pattern.indices,
            data, _validated=True,
        )

    # ------------------------------------------------------------------
    # Algebra helpers
    # ------------------------------------------------------------------
    def scale_rows(self, s: FloatArray) -> "CSRMatrix":
        """Return ``diag(s) @ A``."""
        s = as_value_array(s)
        if s.shape != (self.n_rows,):
            raise ShapeError("row scale vector has wrong length")
        return self.with_data(self.data * s[self.row_ids()])

    def scale_cols(self, s: FloatArray) -> "CSRMatrix":
        """Return ``A @ diag(s)``."""
        s = as_value_array(s)
        if s.shape != (self.n_cols,):
            raise ShapeError("column scale vector has wrong length")
        return self.with_data(self.data * s[self.indices])

    def frobenius_norm(self) -> float:
        """Frobenius norm of the stored values."""
        return float(np.sqrt(np.dot(self.data, self.data)))

    def max_norm(self) -> float:
        """Largest absolute stored value (0 for an empty matrix)."""
        return float(np.abs(self.data).max()) if self.nnz else 0.0

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        """Numerical symmetry check via ``‖A - A^T‖_max <= tol·‖A‖_max``."""
        if self.n_rows != self.n_cols:
            return False
        t = self.transpose()
        if not np.array_equal(t.indptr, self.indptr) or not np.array_equal(
            t.indices, self.indices
        ):
            # Structurally asymmetric — compare densely only for tiny matrices,
            # otherwise declare asymmetric (value-symmetric but structurally
            # asymmetric matrices do not occur in this library).
            return False
        scale = max(self.max_norm(), 1.0)
        return bool(np.abs(t.data - self.data).max() <= tol * scale) if self.nnz else True

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
