"""SpGEMM planning: the symbolic phase of CSR×CSR products.

The global SAI iterations (:mod:`repro.fsai.global_iter`) and the FSAIE
pattern powers both multiply sparse matrices whose *structure* is fixed
across many products — only the values change between sweeps.  This
module therefore splits SpGEMM the classic two-pass way:

* **symbolic** (:func:`plan_spgemm`) — expand every scalar product
  ``a_ik · b_kj`` the multiplication generates, map each one to its
  output slot, and return the result :class:`~repro.sparse.pattern.Pattern`
  together with the three gather/scatter index arrays;
* **numeric** (:func:`spgemm_numeric`, or the reference oracle's
  override of ``_spgemm_numeric``) — pure data-array arithmetic over a
  plan, with no index construction at all.

A plan is immutable and reusable: backends bind it into a handle
(``KernelBackend.spgemm_op``) so iterative callers pay the symbolic cost
once per pattern pair instead of once per product.

Cap semantics
-------------
``cap`` prescribes the output pattern exactly.  Products landing outside
``cap`` are dropped (the projection ``P_cap(A·B)``), and ``cap`` entries
no product reaches are kept as explicit ``0.0`` — the output structure is
``cap`` itself, never a subset, which is what lets a capped plan feed the
same buffers sweep after sweep.  Without ``cap`` the output pattern is
the exact structural product.

Determinism contract
--------------------
Products are enumerated in Gustavson order: for output entry ``(i, j)``,
the contributions ``a_ik · b_kj`` are accumulated in ascending order of
``k``'s position within row ``i`` of ``A``.  Each product is rounded once
(one multiply) and added into a zero-initialised accumulator in that
fixed order, so the result is a pure function of the plan and the data.
The reference backend's dense oracle deliberately does *not* honour it
(it re-derives the result from dense matmul) and is held to ``1e-13``
agreement instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ShapeError

if TYPE_CHECKING:  # pragma: no cover - runtime import would be circular:
    # repro.sparse/__init__ pulls in csr, which imports repro.kernels.
    from repro.sparse.pattern import Pattern

__all__ = ["SpgemmPlan", "plan_spgemm", "spgemm_pattern", "spgemm_numeric"]


@dataclass(frozen=True)
class SpgemmPlan:
    """Symbolic phase of one CSR×CSR product, frozen for reuse.

    ``a_sel``/``b_sel``/``out_sel`` are parallel arrays over the scalar
    products the multiplication generates: product ``p`` multiplies entry
    ``a_sel[p]`` of ``A``'s data with entry ``b_sel[p]`` of ``B``'s data
    and accumulates into slot ``out_sel[p]`` of the output data array
    (length ``out.nnz``).  Products appear in Gustavson order (see the
    module determinism contract).
    """

    a_pattern: Pattern
    b_pattern: Pattern
    #: Output structure: the exact product pattern, or ``cap`` verbatim.
    out: Pattern
    #: True when the plan was built with an output cap.
    capped: bool
    a_sel: np.ndarray
    b_sel: np.ndarray
    out_sel: np.ndarray

    @property
    def n_products(self) -> int:
        """Scalar multiply-adds one numeric pass performs."""
        return int(len(self.a_sel))

    @property
    def flops(self) -> int:
        """Flop count of one numeric pass (multiply + add per product)."""
        return 2 * self.n_products

    def __repr__(self) -> str:
        return (
            f"SpgemmPlan({self.a_pattern.shape} x {self.b_pattern.shape}, "
            f"nnz_out={self.out.nnz}, products={self.n_products}, "
            f"capped={self.capped})"
        )


def _expand_products(a: Pattern, b: Pattern):
    """Enumerate every scalar product of ``A @ B`` in Gustavson order.

    Returns ``(a_sel, b_sel, key)`` where ``key`` is the row-major
    linearised output position ``i * b.n_cols + j`` of each product.
    Fully vectorised: one segmented arange over ``B``-row slices.
    """
    a_rows = np.repeat(
        np.arange(a.n_rows, dtype=np.int64), np.diff(a.indptr)
    )
    counts = np.diff(b.indptr)[a.indices]
    total = int(counts.sum())
    a_sel = np.repeat(np.arange(len(a.indices), dtype=np.int64), counts)
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    # Segmented arange: offset of each product within its B-row slice.
    seg_starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=seg_starts[1:])
    offsets = np.arange(total, dtype=np.int64) - np.repeat(seg_starts, counts)
    b_sel = np.repeat(b.indptr[a.indices], counts) + offsets
    key = a_rows[a_sel] * np.int64(b.n_cols) + b.indices[b_sel]
    return a_sel, b_sel, key


def plan_spgemm(
    a: Pattern, b: Pattern, *, cap: Optional[Pattern] = None
) -> SpgemmPlan:
    """Build the symbolic phase of ``A @ B`` (optionally capped).

    Raises :class:`~repro.errors.ShapeError` when the inner dimensions
    disagree or ``cap`` does not have the product's shape.
    """
    if a.n_cols != b.n_rows:
        raise ShapeError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    if cap is not None and cap.shape != (a.n_rows, b.n_cols):
        raise ShapeError(
            f"cap shape {cap.shape} does not match product shape "
            f"{(a.n_rows, b.n_cols)}"
        )
    from repro.sparse.pattern import Pattern

    a_sel, b_sel, key = _expand_products(a, b)
    if cap is not None:
        cap_keys = cap._keys()
        pos = np.searchsorted(cap_keys, key)
        hit = pos < len(cap_keys)
        hit[hit] = cap_keys[pos[hit]] == key[hit]
        return SpgemmPlan(
            a_pattern=a, b_pattern=b, out=cap, capped=True,
            a_sel=a_sel[hit], b_sel=b_sel[hit],
            out_sel=pos[hit].astype(np.int64),
        )
    uniq, inverse = np.unique(key, return_inverse=True)
    out_rows = uniq // np.int64(b.n_cols)
    out_cols = uniq % np.int64(b.n_cols)
    indptr = np.zeros(a.n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(out_rows, minlength=a.n_rows), out=indptr[1:])
    out = Pattern(a.n_rows, b.n_cols, indptr, out_cols, _validated=True)
    return SpgemmPlan(
        a_pattern=a, b_pattern=b, out=out, capped=False,
        a_sel=a_sel, b_sel=b_sel,
        # numpy >= 2.1 returns the inverse with the input's shape; 1-D
        # inputs are unaffected, but ravel() keeps the contract explicit.
        out_sel=np.asarray(inverse, dtype=np.int64).ravel(),
    )


def spgemm_pattern(a: Pattern, b: Pattern) -> Pattern:
    """Pattern of ``A @ B`` — the symbolic phase alone.

    This is the vectorised replacement for the per-row union loop that
    :func:`repro.sparse.symbolic.pattern_multiply` used to run; output is
    identical (row-major, sorted-unique per row).
    """
    return plan_spgemm(a, b).out


def spgemm_numeric(
    plan: SpgemmPlan, a_data: np.ndarray, b_data: np.ndarray
) -> np.ndarray:
    """Canonical vectorised numeric phase over a plan.

    One gather-multiply forms every product (rounded once each), then a
    single sequential ``np.bincount`` accumulates them into the output
    slots — ascending product index, which is exactly the plan's
    Gustavson order.
    """
    products = a_data[plan.a_sel] * b_data[plan.b_sel]
    return np.bincount(
        plan.out_sel, weights=products, minlength=plan.out.nnz
    )
