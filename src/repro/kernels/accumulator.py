"""Output accumulators for tile-granular multiplication.

A target tile ``C_(ti,tj)`` is written accumulatively by every tile
product of its block-row/block-column pair (paper Fig. 4).  Two
accumulator flavors mirror the paper's write-side representations:

:class:`DenseAccumulator`
    wraps a dense array; every product adds in place (cheap writes, the
    reason ``spspd_gemm`` beats ``spspsp_gemm`` on dense outputs).  A
    sparse x sparse expansion is scattered in uncompressed — duplicate
    coordinates sum on write, so nothing is sorted.

:class:`SparseAccumulator`
    the classical SPA realized as a triple buffer: products append
    coordinate runs, and :meth:`finalize` sorts/merges them into CSR once
    (expensive writes — the paper's read/write cost asymmetry).
"""

from __future__ import annotations

import numpy as np

from .._types import FloatArray, IndexArray
from ..errors import ShapeError
from ..formats.csr import CSRMatrix
from ..formats.dense import DenseMatrix
from ..kinds import StorageKind


class DenseAccumulator:
    """Accumulates tile products into a dense array."""

    kind = StorageKind.DENSE

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"accumulator dims must be positive, got ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        self.array = np.zeros((rows, cols), dtype=np.float64)
        #: Number of scalar writes performed (cost-model bookkeeping).
        self.writes = 0

    def add_dense(self, row0: int, col0: int, block: FloatArray) -> None:
        """Add a dense product block at offset ``(row0, col0)``."""
        rows, cols = block.shape
        self.array[row0 : row0 + rows, col0 : col0 + cols] += block
        self.writes += block.size

    def add_triples(
        self,
        row0: int,
        col0: int,
        rows: IndexArray,
        cols: IndexArray,
        values: FloatArray,
        *,
        shape: tuple[int, int] | None = None,
    ) -> None:
        """Scatter-add coordinate triples at offset ``(row0, col0)``.

        Coordinates may repeat (they sum), so a raw product expansion
        needs no compression first.  ``shape`` is the window the triples
        fall in (default: the rest of the array).  Scatters large
        relative to that window go through ``bincount`` over its area (a
        dense histogram pass, ~2x faster than ``np.add.at``); small ones
        scatter directly so no scratch of the window area is allocated.
        """
        win_rows, win_cols = shape or (self.rows - row0, self.cols - col0)
        area = win_rows * win_cols
        target = self.array[row0 : row0 + win_rows, col0 : col0 + win_cols]
        if len(values) * 8 >= area:
            flat = rows * np.int64(win_cols) + cols
            target += np.bincount(flat, weights=values, minlength=area).reshape(
                win_rows, win_cols
            )
        else:
            np.add.at(target, (rows, cols), values)
        self.writes += len(values)

    def finalize(self) -> DenseMatrix:
        """The accumulated tile as a dense matrix (owns the array)."""
        return DenseMatrix(self.array, copy=False)


class SparseAccumulator:
    """Accumulates tile products as coordinate runs, merged once at the end."""

    kind = StorageKind.SPARSE

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"accumulator dims must be positive, got ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        self._row_runs: list[IndexArray] = []
        self._col_runs: list[IndexArray] = []
        self._val_runs: list[FloatArray] = []
        self.writes = 0

    def add_dense(self, row0: int, col0: int, block: FloatArray) -> None:
        """Add a dense product block (non-zeros extracted) at an offset."""
        nz_rows, nz_cols = np.nonzero(block)
        self.add_triples(row0, col0, nz_rows, nz_cols, block[nz_rows, nz_cols])

    def add_triples(
        self, row0: int, col0: int, rows: IndexArray, cols: IndexArray, values: FloatArray
    ) -> None:
        """Append coordinate triples at offset ``(row0, col0)``."""
        if len(values) == 0:
            return
        self._row_runs.append(np.asarray(rows, dtype=np.int64) + row0)
        self._col_runs.append(np.asarray(cols, dtype=np.int64) + col0)
        self._val_runs.append(np.asarray(values, dtype=np.float64))
        self.writes += len(values)

    @property
    def pending(self) -> int:
        """Number of buffered (pre-merge) triples."""
        return sum(len(run) for run in self._val_runs)

    def finalize(self) -> CSRMatrix:
        """Merge all runs into a CSR matrix (duplicates summed)."""
        if not self._val_runs:
            return CSRMatrix.empty(self.rows, self.cols)
        return CSRMatrix.from_arrays_unsorted(
            self.rows,
            self.cols,
            np.concatenate(self._row_runs),
            np.concatenate(self._col_runs),
            np.concatenate(self._val_runs),
            sum_duplicates=True,
        )


Accumulator = DenseAccumulator | SparseAccumulator


def make_accumulator(kind: StorageKind, rows: int, cols: int) -> Accumulator:
    """Accumulator factory keyed by target storage kind."""
    if kind is StorageKind.DENSE:
        return DenseAccumulator(rows, cols)
    return SparseAccumulator(rows, cols)
