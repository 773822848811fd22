"""Access-trace generation for the SpMV and FSAI-application kernels.

A trace is a sequence of cache-line ids in program order.  Line ids of
different data structures are kept in disjoint integer *regions* so that one
cache can be shared by all of them (matching reality) while per-structure
attribution stays possible:

* ``REGION_X``       — the multiplied vector (the paper's problem child);
* ``REGION_MATRIX``  — the CSR ``data``/``indices``/``indptr`` streams;
* ``REGION_Y``       — the output vector.

Streaming structures (matrix arrays, ``y``) are perfectly sequential, so only
their *line-boundary crossings* are emitted, which keeps the trace about
0.6x as long as emitting every stream access (0.5x at 256 B lines).  The
skipped accesses are hits, but each would move its stream line back to
most-recently-used; without them the stream line ages and LRU evicts it
before ``x`` lines the full trace would evict instead, so ``x`` misses are
*undercounted*: on the quick slice at 1/8-scale L1s, by up to 10% per trace
at 64 B lines and up to 2x (case 28) at 256 B lines.
``docs/simulation_model.md`` §2 has the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro._typing import IndexArray
from repro.arch.address import ArrayPlacement
from repro.sparse.pattern import Pattern

__all__ = [
    "REGION_X",
    "REGION_MATRIX",
    "REGION_Y",
    "REGION_Z",
    "TraceResult",
    "spmv_trace",
    "fsai_apply_trace",
]

#: Region bases: large disjoint offsets so line ids never collide.  Region
#: bases are multiples of large powers of two, so set-index distribution
#: within each region is preserved.
REGION_X = 0
REGION_MATRIX = 1 << 42
REGION_Y = 1 << 43
REGION_Z = 3 << 42  # second multiplied vector in G^T (G p)

#: Bytes consumed from the matrix streams per stored entry: 8 (value) +
#: 8 (int64 column index).  ``indptr`` adds 8 bytes/row, folded into the
#: per-row ``y`` stream cost.
_MATRIX_STREAM_BYTES_PER_NNZ = 16
_ROW_STREAM_BYTES_PER_ROW = 16  # y value + indptr entry


@dataclass
class TraceResult:
    """A generated access trace.

    Attributes
    ----------
    lines:
        Cache-line ids in program order.
    is_x:
        Boolean mask, True where the access belongs to the multiplied vector
        (``REGION_X``/``REGION_Z``).  Used for miss attribution.
    """

    lines: IndexArray
    is_x: np.ndarray

    def __len__(self) -> int:
        return len(self.lines)

    def concat(self, other: "TraceResult") -> "TraceResult":
        """Concatenate two traces in program order."""
        return TraceResult(
            np.concatenate([self.lines, other.lines]),
            np.concatenate([self.is_x, other.is_x]),
        )


def _stream_crossing_events(
    total_bytes: int, positions_bytes: np.ndarray, region: int, line_bytes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Line-boundary crossing events of a sequential byte stream.

    ``positions_bytes[k]`` is the stream offset consumed *before* program
    step ``k``; an event is emitted at the first step whose line differs from
    the previous one's.  Returns ``(step_indices, line_ids)``.
    """
    if total_bytes <= 0 or len(positions_bytes) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    lines = positions_bytes // line_bytes
    first = np.ones(len(lines), dtype=bool)
    first[1:] = np.diff(lines) != 0
    steps = np.flatnonzero(first)
    return steps.astype(np.int64), (region // line_bytes + lines[steps]).astype(np.int64)


def spmv_trace(
    pattern: Pattern,
    x_placement: ArrayPlacement,
    *,
    include_streams: bool = True,
    x_region: int = REGION_X,
) -> TraceResult:
    """Trace of ``y = A x`` for a CSR matrix with the given pattern.

    Per stored entry (row-major order) one access to the line of ``x[col]``
    is emitted; with ``include_streams`` the boundary-crossing accesses of
    the matrix arrays and ``y`` are interleaved at their program positions,
    modelling the pollution those streams exert on the cache.

    ``x_region`` lets callers place the multiplied vector of a second product
    in a different address region (see :func:`fsai_apply_trace`).
    """
    nnz = pattern.nnz
    line_bytes = x_placement.line_bytes
    x_lines = (
        np.asarray(x_placement.line_of(pattern.indices), dtype=np.int64)
        + x_region // line_bytes
    )
    if not include_streams or nnz == 0:
        return TraceResult(x_lines, np.ones(nnz, dtype=bool))

    # Matrix stream: 16 bytes consumed per stored entry.
    mat_pos = np.arange(nnz, dtype=np.int64) * _MATRIX_STREAM_BYTES_PER_NNZ
    mat_steps, mat_lines = _stream_crossing_events(
        nnz * _MATRIX_STREAM_BYTES_PER_NNZ, mat_pos, REGION_MATRIX, line_bytes
    )
    # Row stream (y + indptr): 16 bytes per row, event at the row's first nnz.
    row_pos = np.arange(pattern.n_rows, dtype=np.int64) * _ROW_STREAM_BYTES_PER_ROW
    row_steps_raw, row_lines = _stream_crossing_events(
        pattern.n_rows * _ROW_STREAM_BYTES_PER_ROW, row_pos, REGION_Y, line_bytes
    )
    row_steps = pattern.indptr[:-1][row_steps_raw]

    # Merge the three event streams by program step; stream events sort
    # before the x access of the same step (operands are fetched before the
    # product is accumulated — the exact tie order is immaterial to misses).
    steps = np.concatenate([np.arange(nnz, dtype=np.int64), mat_steps, row_steps])
    lines = np.concatenate([x_lines, mat_lines, row_lines])
    is_x = np.zeros(len(lines), dtype=bool)
    is_x[:nnz] = True
    prio = np.ones(len(lines), dtype=np.int8)
    prio[:nnz] = 2  # x accesses after stream fetches within one step
    order = np.lexsort((prio, steps))
    return TraceResult(lines[order], is_x[order])


def fsai_apply_trace(
    g_pattern: Pattern,
    gt_pattern: Pattern,
    placement: ArrayPlacement,
    *,
    include_streams: bool = True,
) -> TraceResult:
    """Trace of the FSAI application ``q = G p`` followed by ``z = G^T q``.

    ``gt_pattern`` is the CSR pattern of the second product's matrix, the
    transpose of ``G``'s pattern: the trace models the paper's §4.3
    layout, which stores ``G^T`` explicitly in CSR and runs two row-order
    SpMVs.  The multiplied vector of
    the first product (``p``) lives in ``REGION_X``; the intermediate ``q``
    is the multiplied vector of the second product and lives in ``REGION_Z``
    — both are attributed as "x" accesses, matching the paper's Figure 3
    metric (misses on the multiplied vector across the whole preconditioner
    application).
    """
    first = spmv_trace(
        g_pattern, placement, include_streams=include_streams, x_region=REGION_X
    )
    second = spmv_trace(
        gt_pattern, placement, include_streams=include_streams, x_region=REGION_Z
    )
    return first.concat(second)
