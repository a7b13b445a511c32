"""Matrix-vector multiplication kernels.

The paper's related work (section V-A) leans on SpMV results — notably
Vuduc's observation that "CSR tends to have best performance for sparse
matrix-vector multiplication on a wide class of matrices", which
motivated CSR as the sparse tile format.  These kernels provide the
vector path for both plain matrices and windowed tiles, so the AT Matrix
can serve iterative solvers (power iteration, PageRank, CG-style loops)
without densifying.

Every ``n x 1`` product in the library sums its rows through one
primitive, :func:`row_sum`: the plain kernels here, the engine's
CSR x dense kernel on a one-column window
(:func:`~repro.kernels.products.spd_dense`) and the compiled matvec
replay (:mod:`repro.engine.replay`).  ``np.bincount`` adds the weights
of each bin strictly in input order, so every path sums a row's stored
elements left to right from ``0.0`` and they agree bit for bit;
``np.add.reduceat`` gives no such order (it may sum pairwise).
"""

from __future__ import annotations

import numpy as np

from .._types import FloatArray, IndexArray
from ..errors import ShapeError
from ..formats.csr import CSRMatrix
from ..formats.dense import DenseMatrix
from .window import Window


def row_sum(
    rows: IndexArray,
    values: FloatArray,
    vector: FloatArray,
    cols: IndexArray,
    length: int,
) -> FloatArray:
    """``y[r] = sum(values[e] * vector[cols[e]] for e with rows[e] == r)``.

    The shared sequential row sum of every ``n x 1`` product: each
    row's terms are added in element order, starting from ``0.0``.
    """
    return np.bincount(rows, weights=values * vector[cols], minlength=length)


def csr_spmv(matrix: CSRMatrix, vector: np.ndarray) -> np.ndarray:
    """``y = A @ x`` for CSR: the classic row-wise kernel, vectorized.

    Products are formed per stored element and summed per row by
    :func:`row_sum` — the numpy equivalent of Gustavson's row loop.
    """
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if len(vector) != matrix.cols:
        raise ShapeError(f"vector length {len(vector)} != cols {matrix.cols}")
    if not matrix.nnz:
        return np.zeros(matrix.rows, dtype=np.float64)
    rows = np.repeat(np.arange(matrix.rows, dtype=np.int64), matrix.row_nnz())
    return row_sum(rows, matrix.values, vector, matrix.indices, matrix.rows)


def csr_spmv_window(
    matrix: CSRMatrix, window: Window, vector: np.ndarray
) -> np.ndarray:
    """Windowed CSR SpMV: ``y = A[window] @ x`` (x indexes window cols)."""
    window.validate_within(matrix.shape)
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if len(vector) != window.cols:
        raise ShapeError(f"vector length {len(vector)} != window cols {window.cols}")
    rows, cols, values = matrix.window_mask(
        window.row0, window.row1, window.col0, window.col1
    )
    if not len(values):
        return np.zeros(window.rows, dtype=np.float64)
    return row_sum(rows, values, vector, cols, window.rows)


def dense_spmv(matrix: DenseMatrix, vector: np.ndarray) -> np.ndarray:
    """``y = A @ x`` for the dense representation (BLAS gemv)."""
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if len(vector) != matrix.cols:
        raise ShapeError(f"vector length {len(vector)} != cols {matrix.cols}")
    return matrix.array @ vector


def dense_spmv_window(
    matrix: DenseMatrix, window: Window, vector: np.ndarray
) -> np.ndarray:
    """Windowed dense SpMV over a zero-copy view."""
    window.validate_within(matrix.shape)
    vector = np.asarray(vector, dtype=np.float64).ravel()
    if len(vector) != window.cols:
        raise ShapeError(f"vector length {len(vector)} != window cols {window.cols}")
    view = matrix.window_view(window.row0, window.row1, window.col0, window.col1)
    return view @ vector
