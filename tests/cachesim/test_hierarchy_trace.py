"""Unit tests for repro.cachesim.trace."""

import numpy as np

from repro.arch.address import ArrayPlacement
from repro.cachesim.trace import (
    REGION_MATRIX,
    REGION_X,
    REGION_Y,
    REGION_Z,
    fsai_apply_trace,
    spmv_trace,
)
from repro.sparse.pattern import Pattern


def band_pattern(n, bandwidth=1):
    rows, cols = [], []
    for i in range(n):
        for j in range(max(0, i - bandwidth), min(n, i + bandwidth + 1)):
            rows.append(i)
            cols.append(j)
    return Pattern.from_coo(n, n, np.array(rows), np.array(cols))


class TestTrace:
    def test_x_only_trace_lines(self):
        p = band_pattern(16)
        pl = ArrayPlacement.aligned(64)
        tr = spmv_trace(p, pl, include_streams=False)
        assert len(tr) == p.nnz
        assert tr.is_x.all()
        # Line ids match the placement mapping of the column indices.
        assert np.array_equal(tr.lines, pl.line_of(p.indices))

    def test_streams_interleaved(self):
        p = band_pattern(16)
        tr = spmv_trace(p, ArrayPlacement.aligned(64), include_streams=True)
        assert len(tr) > p.nnz
        assert tr.is_x.sum() == p.nnz
        # Stream lines live in their own regions.
        stream_lines = tr.lines[~tr.is_x]
        assert (stream_lines >= min(REGION_MATRIX, REGION_Y) // 64).all()

    def test_empty_pattern(self):
        tr = spmv_trace(Pattern.empty(4, 4), ArrayPlacement.aligned(64))
        assert len(tr) == 0

    def test_matrix_stream_line_count(self):
        # nnz entries consume 16 B each; one matrix-stream event per 64 B.
        p = band_pattern(64, bandwidth=0)  # diagonal: 64 entries
        tr = spmv_trace(p, ArrayPlacement.aligned(64), include_streams=True)
        mat_events = (
            (tr.lines >= REGION_MATRIX // 64) & (tr.lines < REGION_Y // 64)
        ).sum()
        assert mat_events == 64 * 16 // 64

    def test_x_region_offset(self):
        p = band_pattern(8)
        pl = ArrayPlacement.aligned(64)
        tr0 = spmv_trace(p, pl, include_streams=False, x_region=REGION_X)
        trz = spmv_trace(p, pl, include_streams=False, x_region=REGION_Z)
        assert np.array_equal(trz.lines - trz.lines.min(), tr0.lines - tr0.lines.min())
        assert trz.lines.min() >= REGION_Z // 64

    def test_fsai_apply_concatenates(self):
        g = band_pattern(16).tril()
        tr = fsai_apply_trace(g, g.transpose(), ArrayPlacement.aligned(64))
        single = spmv_trace(g, ArrayPlacement.aligned(64))
        assert len(tr) > len(single)
        assert tr.is_x.sum() == 2 * g.nnz

    def test_concat_preserves_order(self):
        p = band_pattern(4)
        pl = ArrayPlacement.aligned(64)
        a = spmv_trace(p, pl, include_streams=False)
        b = spmv_trace(p, pl, include_streams=False, x_region=REGION_Z)
        c = a.concat(b)
        assert np.array_equal(c.lines[: len(a)], a.lines)
        assert np.array_equal(c.lines[len(a):], b.lines)
