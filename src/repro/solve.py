"""Iterative linear solvers over AT Matrices.

"Solving linear systems" is the first application the paper's
introduction lists.  These solvers accept any matrix operand (AT Matrix,
CSR or dense); the operand is wrapped **once** before the iteration loop
— the pre-redesign solvers rebuilt the wrapper every iteration, which
defeated plan reuse — and every iteration benefits from the
heterogeneous tile storage (dense regions go through BLAS gemv).

Two execution paths:

* plain (default): matrix-vector products run through the light
  :func:`~repro.core.atmv.atmv` tile loop;
* engine (``options=``, which :meth:`repro.Session.solve` passes):
  products run ``A @ x`` through the engine with the caller's
  :class:`~repro.engine.options.MultiplyOptions`.  With a plan cache
  attached (a :class:`~repro.Session` always has one), the loop *pins*
  one fused matvec plan for the entire iteration: the first iteration
  records a :class:`~repro.engine.plan.FusedChainPlan`, the second
  retrieves it from the cache — one hit, after which the pinned plan
  replays directly without touching the cache or re-planning at all.

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
from .core.atmv import atmv
from .core.operands import MatrixOperand, as_at_matrix
from .engine.api import chain_fusable, run_chain
from .engine.options import MultiplyOptions
from .errors import PlanMismatchError, ReproError, ShapeError
from .formats.dense import DenseMatrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.atmatrix import ATMatrix
    from .engine.plan import FusedChainPlan


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


class _PinnedMatvec:
    """One fused matvec plan pinned across a whole solver loop.

    Each call multiplies ``A @ x`` with the vector riding as a dense
    ``n x 1`` operand — dense topology is fingerprinted by shape plus
    quantized density, and a solve's iterates are fully populated, so
    every iteration shares one chain identity.  The first call records
    the :class:`~repro.engine.plan.FusedChainPlan` (a cache miss + put),
    the second retrieves it (the loop's single cache hit) and pins it;
    every later call replays the pinned plan directly — no cache probe,
    no re-planning.  A :class:`~repro.errors.PlanMismatchError` (e.g. a
    degenerate iterate changing the intermediate topology) unpins and
    falls back to the cache-mediated path for that call.
    """

    def __init__(self, at: ATMatrix, options: MultiplyOptions) -> None:
        self._at = at
        self._options = options
        self._config = options.resolved_config()
        self._model = options.resolved_cost_model()
        self._pinned: FusedChainPlan | None = None
        self.pinned_replays = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        from .engine.executor import execute_fused_chain
        from .observe import session as observe_session

        column = np.asarray(x, dtype=np.float64).reshape(-1, 1)
        dense = DenseMatrix(column, copy=False)
        with observe_session.resolve(self._options.observer) as obs:
            if self._pinned is not None:
                at_x = as_at_matrix(dense, self._config)
                try:
                    result, _ = execute_fused_chain(
                        self._pinned,
                        [self._at, at_x],
                        config=self._config,
                        cost_model=self._model,
                        obs=obs,
                    )
                except PlanMismatchError:
                    self._pinned = None
                else:
                    self.pinned_replays += 1
                    return result.to_dense().ravel()
            result, report, fused = run_chain(
                [self._at, dense], options=self._options, obs=obs
            )
            if report.plan_cache_hit:
                self._pinned = fused
        return result.to_dense().ravel()


def _matvec_driver(
    matrix: MatrixOperand, options: MultiplyOptions | None
) -> tuple["ATMatrix", Callable[[np.ndarray], np.ndarray]]:
    """Hoisted operand wrapping plus the per-iteration product kernel.

    The operand is wrapped with :func:`as_at_matrix` exactly once, here,
    before any iteration runs (the regression tests count
    ``operand.wraps.*`` metric increments to pin this down).  Without
    options the product is the plain :func:`atmv` tile loop.  When the
    options allow fused replay (:func:`~repro.engine.api.chain_fusable`)
    the loop gets a :class:`_PinnedMatvec`; otherwise each product runs
    through plain :func:`~repro.core.atmult.atmult`.
    """
    if options is None:
        at = as_at_matrix(matrix, DEFAULT_CONFIG)
        return at, lambda x: atmv(at, x)

    at = as_at_matrix(matrix, options.resolved_config())
    if chain_fusable(options):
        return at, _PinnedMatvec(at, options)
    from .core.atmult import atmult

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
