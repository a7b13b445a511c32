"""Windowed tile-product primitives underlying the 8 multiplication kernels.

Four product routines cover the (sparse|dense) x (sparse|dense) operand
combinations; each exists in a variant for a dense target (a dense block,
or for sparse x sparse the raw expansion) and one producing compressed
coordinate triples, giving the paper's ``2**3 = 8`` kernels once combined
with the two accumulator flavors.

Sparse products follow Gustavson's row-wise algorithm in vectorized
form: every non-zero ``A[i,k]`` is expanded against row ``k`` of ``B``
(:func:`spsp_expansion`).  A dense target sums that expansion in place,
duplicates and all; only a sparse target pays for merging it by sorting
on the target coordinate (:func:`spsp_triples`, *expand-sort-compress*).
All routines chunk their expansion buffers so peak memory stays bounded
regardless of operand size.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .._types import FloatArray, IndexArray
from ..errors import ShapeError
from ..formats.csr import CSRMatrix, _segment_gather_indices
from ..formats.dense import DenseMatrix
from .spmv import row_sum
from .window import Window

#: Expansion buffer budget (elements) for chunked products.
EXPANSION_CHUNK = 1 << 22

Triples = tuple[IndexArray, IndexArray, FloatArray]


def _empty_triples() -> Triples:
    empty = np.empty(0, dtype=np.int64)
    return empty, empty, np.empty(0, dtype=np.float64)


def _check_inner(wa: Window, wb: Window) -> None:
    if wa.cols != wb.rows:
        raise ShapeError(
            f"inner dimensions differ: A window {wa.rows}x{wa.cols}"
            f" vs B window {wb.rows}x{wb.cols}"
        )


def compress_triples(
    rows: IndexArray, cols: IndexArray, values: FloatArray, ncols: int
) -> Triples:
    """Sort triples row-major and sum duplicates, dropping explicit zeros."""
    if not len(values):
        return _empty_triples()
    keys = rows * np.int64(ncols) + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    values = values[order]
    boundaries = np.empty(len(keys), dtype=bool)
    boundaries[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    summed = np.add.reduceat(values, starts)
    keys = keys[starts]
    keep = summed != 0.0
    keys = keys[keep]
    summed = summed[keep]
    return keys // ncols, keys % ncols, summed


def _csr_row_ranges(
    matrix: CSRMatrix, window: Window
) -> tuple[IndexArray, IndexArray]:
    """Per-row ``(lo, hi)`` index bounds of ``matrix`` inside ``window``.

    The column range is resolved with one vectorized binary search over
    the matrix's sorted row-major keys (paper section III-B: sorted
    column ids enable binary column-id search).
    """
    return matrix.window_ranges(window.row0, window.row1, window.col0, window.col1)


def csr_window_source(
    matrix: CSRMatrix, window: Window
) -> tuple[IndexArray, IndexArray, slice | IndexArray]:
    """Window-relative rows and columns of a CSR window, row-major order,
    plus where its values sit in ``matrix.values``.

    A full-width window is one contiguous storage slice (columns as a
    view and a ``slice`` source, no search and no gather); a narrower
    one resolves its per-row column ranges by binary search and gathers
    the segments (an index-array source).  The source depends only on
    the structure, so a compiled replay stores it and reads the values
    live.
    """
    window.validate_within(matrix.shape)
    if window.col0 == 0 and window.col1 == matrix.cols:
        bounds = matrix.indptr[window.row0 : window.row1 + 1]
        start, end = int(bounds[0]), int(bounds[-1])
        if start == end:
            rows, cols, _ = _empty_triples()
            return rows, cols, slice(0, 0)
        rows = np.repeat(np.arange(window.rows, dtype=np.int64), np.diff(bounds))
        return rows, matrix.indices[start:end], slice(start, end)
    lo, hi = _csr_row_ranges(matrix, window)
    lengths = hi - lo
    take = _segment_gather_indices(lo, lengths)
    rows = np.repeat(np.arange(window.rows, dtype=np.int64), lengths)
    return rows, matrix.indices[take] - window.col0, take


def _csr_window_triples(matrix: CSRMatrix, window: Window) -> Triples:
    """Window-relative triples of a CSR operand, row-major order."""
    rows, cols, source = csr_window_source(matrix, window)
    return rows, cols, matrix.values[source]


# ---------------------------------------------------------------------------
# sparse x sparse
# ---------------------------------------------------------------------------
def spsp_expansion(
    a: CSRMatrix, wa: Window, b: CSRMatrix, wb: Window
) -> Iterator[Triples]:
    """Uncompressed Gustavson expansion of a windowed CSR x CSR product.

    Yields window-relative ``(rows, cols, products)`` chunks of at most
    :data:`EXPANSION_CHUNK` elements (one ``A`` non-zero's run may exceed
    it); a target coordinate may repeat within and across chunks.
    """
    _check_inner(wa, wb)
    a_rows, a_cols, a_vals = _csr_window_triples(a, wa)
    if not len(a_vals):
        return
    b_lo, b_hi = _csr_row_ranges(b, wb)
    lens = (b_hi - b_lo)[a_cols]
    cumulative = np.cumsum(lens)
    if not cumulative[-1]:
        return
    start = 0
    while start < len(a_vals):
        base = cumulative[start - 1] if start else 0
        end = int(np.searchsorted(cumulative, base + EXPANSION_CHUNK, side="left"))
        end = min(max(end, start + 1), len(a_vals))
        chunk_lens = lens[start:end]
        take = _segment_gather_indices(b_lo[a_cols[start:end]], chunk_lens)
        yield (
            np.repeat(a_rows[start:end], chunk_lens),
            b.indices[take] - wb.col0,
            np.repeat(a_vals[start:end], chunk_lens) * b.values[take],
        )
        start = end


def spsp_triples(a: CSRMatrix, wa: Window, b: CSRMatrix, wb: Window) -> Triples:
    """Windowed CSR x CSR product as compressed triples (expand-sort-compress).

    The sort is the price of a sparse target; dense targets scatter
    :func:`spsp_expansion` directly instead.
    """
    runs = [
        compress_triples(rows, cols, values, wb.cols)
        for rows, cols, values in spsp_expansion(a, wa, b, wb)
    ]
    if not runs:
        return _empty_triples()
    if len(runs) == 1:
        return runs[0]
    rows, cols, values = (np.concatenate(parts) for parts in zip(*runs, strict=True))
    return compress_triples(rows, cols, values, wb.cols)


def spsp_flops(a: CSRMatrix, wa: Window, b: CSRMatrix, wb: Window) -> int:
    """Exact scalar-multiplication count of the windowed CSR x CSR product."""
    _check_inner(wa, wb)
    __, a_cols, __ = _csr_window_triples(a, wa)
    if not len(a_cols):
        return 0
    b_lo, b_hi = _csr_row_ranges(b, wb)
    return int((b_hi - b_lo)[a_cols].sum())


# ---------------------------------------------------------------------------
# sparse x dense
# ---------------------------------------------------------------------------
def spd_dense(a: CSRMatrix, wa: Window, b: DenseMatrix, wb: Window) -> FloatArray:
    """Windowed CSR x dense product as a dense block.

    For every non-zero ``A[i,k]`` the dense row ``B[k,:]`` is scaled and
    added into output row ``i``; rows are merged with a segmented
    reduction instead of a scatter.  A one-column ``B`` window (a
    matvec) sums each row sequentially through the shared
    :func:`~repro.kernels.spmv.row_sum`, unchunked: its weights are one
    float per stored element of the window, no more than the window
    itself holds.
    """
    _check_inner(wa, wb)
    b_view = b.window_view(wb.row0, wb.row1, wb.col0, wb.col1)
    out = np.zeros((wa.rows, wb.cols), dtype=np.float64)
    a_rows, a_cols, a_vals = _csr_window_triples(a, wa)
    if not len(a_vals):
        return out
    if wb.cols == 1:
        out[:, 0] = row_sum(a_rows, a_vals, b_view[:, 0], a_cols, wa.rows)
        return out
    chunk = max(1, EXPANSION_CHUNK // max(1, wb.cols))
    for start in range(0, len(a_vals), chunk):
        end = min(start + chunk, len(a_vals))
        rows_c = a_rows[start:end]
        expanded = a_vals[start:end, None] * b_view[a_cols[start:end]]
        boundaries = np.empty(end - start, dtype=bool)
        boundaries[0] = True
        np.not_equal(rows_c[1:], rows_c[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        # Rows are unique within a chunk; += merges rows split across chunks.
        out[rows_c[starts]] += np.add.reduceat(expanded, starts, axis=0)
    return out


def spd_triples(a: CSRMatrix, wa: Window, b: DenseMatrix, wb: Window) -> Triples:
    """Windowed CSR x dense product as compressed triples."""
    block = spd_dense(a, wa, b, wb)
    rows, cols = np.nonzero(block)
    return rows.astype(np.int64), cols.astype(np.int64), block[rows, cols]


# ---------------------------------------------------------------------------
# dense x sparse
# ---------------------------------------------------------------------------
def dsp_dense(a: DenseMatrix, wa: Window, b: CSRMatrix, wb: Window) -> FloatArray:
    """Windowed dense x CSR product as a dense block.

    Every non-zero ``B[k,j]`` contributes ``A[:,k] * v`` to output column
    ``j``; contributions are grouped by target column and merged with a
    segmented reduction along the expansion axis.
    """
    _check_inner(wa, wb)
    a_view = a.window_view(wa.row0, wa.row1, wa.col0, wa.col1)
    out = np.zeros((wa.rows, wb.cols), dtype=np.float64)
    b_rows, b_cols, b_vals = _csr_window_triples(b, wb)
    if not len(b_vals):
        return out
    order = np.argsort(b_cols, kind="stable")
    b_rows, b_cols, b_vals = b_rows[order], b_cols[order], b_vals[order]
    chunk = max(1, EXPANSION_CHUNK // max(1, wa.rows))
    for start in range(0, len(b_vals), chunk):
        end = min(start + chunk, len(b_vals))
        cols_c = b_cols[start:end]
        expanded = a_view[:, b_rows[start:end]] * b_vals[start:end]
        boundaries = np.empty(end - start, dtype=bool)
        boundaries[0] = True
        np.not_equal(cols_c[1:], cols_c[:-1], out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        out[:, cols_c[starts]] += np.add.reduceat(expanded, starts, axis=1)
    return out


def dsp_triples(a: DenseMatrix, wa: Window, b: CSRMatrix, wb: Window) -> Triples:
    """Windowed dense x CSR product as compressed triples."""
    block = dsp_dense(a, wa, b, wb)
    rows, cols = np.nonzero(block)
    return rows.astype(np.int64), cols.astype(np.int64), block[rows, cols]


# ---------------------------------------------------------------------------
# dense x dense
# ---------------------------------------------------------------------------
def dd_dense(a: DenseMatrix, wa: Window, b: DenseMatrix, wb: Window) -> FloatArray:
    """Windowed dense x dense product (delegates to BLAS via numpy)."""
    _check_inner(wa, wb)
    a_view = a.window_view(wa.row0, wa.row1, wa.col0, wa.col1)
    b_view = b.window_view(wb.row0, wb.row1, wb.col0, wb.col1)
    return a_view @ b_view


def dd_triples(a: DenseMatrix, wa: Window, b: DenseMatrix, wb: Window) -> Triples:
    """Windowed dense x dense product as compressed triples."""
    block = dd_dense(a, wa, b, wb)
    rows, cols = np.nonzero(block)
    return rows.astype(np.int64), cols.astype(np.int64), block[rows, cols]


__all__ = [
    "EXPANSION_CHUNK",
    "compress_triples",
    "csr_window_source",
    "spsp_expansion",
    "spsp_triples",
    "spsp_flops",
    "spd_dense",
    "spd_triples",
    "dsp_dense",
    "dsp_triples",
    "dd_dense",
    "dd_triples",
]
