"""Iterative linear solvers over AT Matrices.

"Solving linear systems" is the first application the paper's
introduction lists.  These solvers accept any matrix operand (AT Matrix,
CSR or dense); the operand is wrapped **once** before the iteration loop
— the pre-redesign solvers rebuilt the wrapper every iteration, which
defeated plan reuse — and every iteration benefits from the
heterogeneous tile storage (dense regions go through BLAS gemv).

Matrix-vector products take one of two routes.  Both sum every row
through :func:`~repro.kernels.spmv.row_sum`, so they return the same
bits whenever the engine adds the tiles' contributions in
:func:`~repro.core.atmv.atmv`'s order (see there):

* plain (default): the light :func:`~repro.core.atmv.atmv` tile loop;
* engine (``options=``, which :meth:`repro.Session.solve` passes):
  every product is ``atmult(A, x, options=options)`` with the vector as
  a dense ``n x 1`` operand.  With a plan cache attached (a
  :class:`~repro.Session` always has one), the first product builds the
  single ``A @ x`` plan and every later one is a cache hit: dense
  topology is shape plus quantized density, so a solve's fully
  populated iterates all share one plan key, and the cached plan runs
  as its compiled replay program (:mod:`repro.engine.replay`).

Provided methods:

* :func:`jacobi` — diagonal preconditioned fixed point; needs a
  diagonally dominant system.
* :func:`conjugate_gradient` — for symmetric positive definite systems.
* :func:`richardson` — plain damped fixed point (the building block the
  others refine; exposed mostly for teaching/tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from .config import DEFAULT_CONFIG
from .core.atmult import atmult
from .core.atmv import atmv
from .core.operands import MatrixOperand, as_at_matrix
from .engine.options import MultiplyOptions
from .errors import ReproError, ShapeError
from .formats.dense import DenseMatrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.atmatrix import ATMatrix


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to reach the tolerance in its budget."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an iterative solve."""

    solution: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool

    def raise_if_failed(self) -> SolveResult:
        if not self.converged:
            raise ConvergenceError(
                f"no convergence after {self.iterations} iterations "
                f"(residual {self.residual_norm:.3e})"
            )
        return self


def _check_system(matrix: MatrixOperand, rhs: np.ndarray) -> np.ndarray:
    if matrix.rows != matrix.cols:
        raise ShapeError(f"solver needs a square matrix, got {matrix.shape}")
    rhs = np.asarray(rhs, dtype=np.float64).ravel()
    if len(rhs) != matrix.rows:
        raise ShapeError(f"rhs length {len(rhs)} != dimension {matrix.rows}")
    return rhs


def _matvec_driver(
    matrix: MatrixOperand, options: MultiplyOptions | None
) -> tuple["ATMatrix", Callable[[np.ndarray], np.ndarray]]:
    """Hoisted operand wrapping plus the per-iteration product kernel.

    The operand is wrapped with :func:`as_at_matrix` exactly once, here,
    before any iteration runs (the regression tests count
    ``operand.wraps.*`` metric increments to pin this down).  Without
    options the product is the plain :func:`atmv` tile loop; with
    options every product is :func:`~repro.core.atmult.atmult` of the
    wrapped matrix and the iterate as a dense ``n x 1`` column — the
    same call :meth:`repro.Session.matvec` makes.  Both sum rows through
    the same primitive (see the module docstring).
    """
    if options is None:
        at = as_at_matrix(matrix, DEFAULT_CONFIG)
        return at, lambda x: atmv(at, x)

    at = as_at_matrix(matrix, options.resolved_config())

    def matvec(x: np.ndarray) -> np.ndarray:
        column = np.asarray(x, dtype=np.float64).reshape(-1, 1)
        result, _ = atmult(at, DenseMatrix(column, copy=False), options=options)
        return result.to_dense().ravel()

    return at, matvec


def richardson(
    matrix: MatrixOperand,
    rhs: np.ndarray,
    *,
    omega: float = 0.1,
    tolerance: float = 1e-8,
    max_iterations: int = 1000,
    x0: np.ndarray | None = None,
    options: MultiplyOptions | None = None,
) -> SolveResult:
    """Damped Richardson iteration ``x += omega * (b - A x)``."""
    rhs = _check_system(matrix, rhs)
    _, matvec = _matvec_driver(matrix, options)
    x = np.zeros_like(rhs) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    norm_b = np.linalg.norm(rhs) or 1.0
    residual_norm = np.inf
    for iteration in range(1, max_iterations + 1):
        residual = rhs - matvec(x)
        residual_norm = float(np.linalg.norm(residual))
        if residual_norm <= tolerance * norm_b:
            return SolveResult(x, iteration - 1, residual_norm, True)
        x = x + omega * residual
    return SolveResult(x, max_iterations, residual_norm, False)


def jacobi(
    matrix: MatrixOperand,
    rhs: np.ndarray,
    *,
    tolerance: float = 1e-10,
    max_iterations: int = 1000,
    x0: np.ndarray | None = None,
    options: MultiplyOptions | None = None,
) -> SolveResult:
    """Jacobi iteration ``x = D^-1 (b - (A - D) x)``.

    Converges for strictly diagonally dominant systems; raises
    :class:`ShapeError` when the diagonal contains zeros.
    """
    rhs = _check_system(matrix, rhs)
    at, matvec = _matvec_driver(matrix, options)
    diagonal = at.to_csr().diagonal()
    if np.any(diagonal == 0.0):
        raise ShapeError("Jacobi requires a zero-free diagonal")
    x = np.zeros_like(rhs) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    norm_b = np.linalg.norm(rhs) or 1.0
    residual_norm = np.inf
    for iteration in range(1, max_iterations + 1):
        ax = matvec(x)
        residual_norm = float(np.linalg.norm(rhs - ax))
        if residual_norm <= tolerance * norm_b:
            return SolveResult(x, iteration - 1, residual_norm, True)
        # x_{k+1} = x_k + D^-1 (b - A x_k)
        x = x + (rhs - ax) / diagonal
    return SolveResult(x, max_iterations, residual_norm, False)


def conjugate_gradient(
    matrix: MatrixOperand,
    rhs: np.ndarray,
    *,
    tolerance: float = 1e-10,
    max_iterations: int | None = None,
    x0: np.ndarray | None = None,
    options: MultiplyOptions | None = None,
) -> SolveResult:
    """Conjugate gradients for symmetric positive definite systems."""
    rhs = _check_system(matrix, rhs)
    _, matvec = _matvec_driver(matrix, options)
    n = matrix.rows
    budget = max_iterations if max_iterations is not None else 10 * n
    if x0 is None:
        # Default zero start: r0 = b - A 0 = b, no product needed.
        x = np.zeros_like(rhs)
        residual = rhs.copy()
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        residual = rhs - matvec(x)
    direction = residual.copy()
    rho = float(residual @ residual)
    norm_b = np.linalg.norm(rhs) or 1.0
    for iteration in range(1, budget + 1):
        if np.sqrt(rho) <= tolerance * norm_b:
            return SolveResult(x, iteration - 1, float(np.sqrt(rho)), True)
        a_direction = matvec(direction)
        curvature = float(direction @ a_direction)
        if curvature <= 0.0:
            # Not SPD (or numerically singular): stop honestly.
            return SolveResult(x, iteration - 1, float(np.sqrt(rho)), False)
        alpha = rho / curvature
        x = x + alpha * direction
        residual = residual - alpha * a_direction
        rho_next = float(residual @ residual)
        direction = residual + (rho_next / rho) * direction
        rho = rho_next
    return SolveResult(x, budget, float(np.sqrt(rho)), False)
