"""Lazy matrix expressions with cost-based evaluation.

The paper positions ATMULT as a DBMS operator and builds on SpMachO [9],
which optimizes whole linear-algebra *expressions*.  This module provides
that expression layer: wrap operands in :func:`M`, compose with ``@``
(product), ``+`` (sum), ``*`` (scalar) and ``.T`` (transpose), then call
:meth:`MatrixExpr.evaluate` — the expression is normalized (transposes
pushed to the leaves via ``(AB)^T = B^T A^T``), product chains are
re-parenthesized with the density-aware chain planner, and every product
runs through ATMULT.

>>> import numpy as np
>>> from repro import COOMatrix, Session, SystemConfig, build_at_matrix
>>> from repro.expr import M
>>> config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
>>> rng = np.random.default_rng(0)
>>> raw = np.where(rng.random((32, 32)) < 0.3, 1.0, 0.0)
>>> a = M(build_at_matrix(COOMatrix.from_dense(raw), config))
>>> session = Session(config=config)
>>> result = session.evaluate(a @ a.T + 2.0 * a)
>>> bool(np.allclose(result.to_dense(), raw @ raw.T + 2.0 * raw))
True
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import SystemConfig
from .core.arith import add as at_add
from .core.arith import scale as at_scale
from .core.atmatrix import ATMatrix
from .core.chain import multiply_chain
from .core.operands import MatrixOperand, as_at_matrix
from .cost.model import CostModel
from .engine.options import MultiplyOptions
from .errors import ShapeError


class MatrixExpr:
    """Base class of lazy matrix expressions."""

    #: element shape of the expression's value
    shape: tuple[int, int]

    # -- composition -------------------------------------------------------
    def __matmul__(self, other: MatrixExpr) -> MatrixExpr:
        other = _as_expr(other)
        if self.shape[1] != other.shape[0]:
            raise ShapeError(
                f"cannot multiply {self.shape} @ {other.shape}"
            )
        return Product(self, other)

    def __add__(self, other: MatrixExpr) -> MatrixExpr:
        other = _as_expr(other)
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} + {other.shape}")
        return Sum(self, other)

    def __sub__(self, other: MatrixExpr) -> MatrixExpr:
        return self + (-1.0) * _as_expr(other)

    def __mul__(self, factor: float) -> MatrixExpr:
        return Scaled(self, float(factor))

    __rmul__ = __mul__

    @property
    def T(self) -> MatrixExpr:
        return Transpose(self)

    # -- evaluation -----------------------------------------------------------
    def evaluate(self, *, options: MultiplyOptions | None = None) -> ATMatrix:
        """Normalize, plan and execute the expression under ``options``.

        ``None`` means a default :class:`MultiplyOptions`.  With a plan
        cache attached (evaluate through :meth:`Session.evaluate
        <repro.Session.evaluate>` — a session always has one), product
        chains route through the fused chain planner, so re-evaluating
        an expression over same-topology operands replays whole fused
        chain plans.
        """
        base = options if options is not None else MultiplyOptions()
        normalized = self._pushdown(False)
        return normalized._execute(
            base.resolved_config(), base.resolved_cost_model(), base
        )

    def plan(self) -> str:
        """Human-readable normalized structure (for inspection/tests)."""
        return self._pushdown(False)._describe()

    # -- internals (overridden per node) ------------------------------------------
    def _pushdown(self, transposed: bool) -> MatrixExpr:
        raise NotImplementedError

    def _execute(
        self,
        config: SystemConfig,
        cost_model: CostModel,
        options: MultiplyOptions,
    ) -> ATMatrix:
        raise NotImplementedError

    def _describe(self) -> str:
        raise NotImplementedError


def _as_expr(value: MatrixExpr | MatrixOperand) -> MatrixExpr:
    if isinstance(value, MatrixExpr):
        return value
    return M(value)


def M(operand: MatrixOperand) -> Leaf:
    """Wrap a matrix (AT Matrix, CSR or dense) as an expression leaf."""
    return Leaf(operand)


@dataclass(frozen=True, eq=False)
class Leaf(MatrixExpr):
    """A concrete operand."""

    operand: MatrixOperand
    transposed: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        rows, cols = self.operand.shape
        return (cols, rows) if self.transposed else (rows, cols)

    def _pushdown(self, transposed: bool) -> MatrixExpr:
        if transposed:
            return Leaf(self.operand, not self.transposed)
        return self

    def _execute(
        self,
        config: SystemConfig,
        cost_model: CostModel,
        options: MultiplyOptions,
    ) -> ATMatrix:
        matrix = as_at_matrix(self.operand, config)
        return matrix.transpose() if self.transposed else matrix

    def _describe(self) -> str:
        name = type(self.operand).__name__
        return f"{name}{self.operand.shape}" + ("^T" if self.transposed else "")


@dataclass(frozen=True, eq=False)
class Transpose(MatrixExpr):
    """Deferred transpose; eliminated during normalization."""

    child: MatrixExpr

    @property
    def shape(self) -> tuple[int, int]:
        rows, cols = self.child.shape
        return cols, rows

    def _pushdown(self, transposed: bool) -> MatrixExpr:
        # Double transpose cancels.
        return self.child._pushdown(not transposed)

    def _execute(
        self,
        config: SystemConfig,
        cost_model: CostModel,
        options: MultiplyOptions,
    ) -> ATMatrix:  # pragma: no cover - normalized away
        raise AssertionError("Transpose nodes are eliminated before execution")

    def _describe(self) -> str:  # pragma: no cover - normalized away
        return f"({self.child._describe()})^T"


@dataclass(frozen=True, eq=False)
class Product(MatrixExpr):
    """Matrix product; consecutive products flatten into one chain."""

    left: MatrixExpr
    right: MatrixExpr

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.shape[0], self.right.shape[1]

    def _pushdown(self, transposed: bool) -> MatrixExpr:
        if transposed:
            # (L R)^T = R^T L^T
            return Product(
                self.right._pushdown(True), self.left._pushdown(True)
            )
        return Product(self.left._pushdown(False), self.right._pushdown(False))

    def _chain(self) -> list[MatrixExpr]:
        """Flatten nested products into the full factor list."""
        factors: list[MatrixExpr] = []
        for side in (self.left, self.right):
            if isinstance(side, Product):
                factors.extend(side._chain())
            else:
                factors.append(side)
        return factors

    def _execute(
        self,
        config: SystemConfig,
        cost_model: CostModel,
        options: MultiplyOptions,
    ) -> ATMatrix:
        factors = self._chain()
        operands = [
            factor._execute(config, cost_model, options) for factor in factors
        ]
        result, _ = multiply_chain(operands, options=options)
        return result

    def _describe(self) -> str:
        factors = self._chain()
        return "(" + " @ ".join(f._describe() for f in factors) + ")"


@dataclass(frozen=True, eq=False)
class Sum(MatrixExpr):
    """Element-wise sum."""

    left: MatrixExpr
    right: MatrixExpr

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.shape

    def _pushdown(self, transposed: bool) -> MatrixExpr:
        # (L + R)^T = L^T + R^T
        return Sum(
            self.left._pushdown(transposed), self.right._pushdown(transposed)
        )

    def _execute(
        self,
        config: SystemConfig,
        cost_model: CostModel,
        options: MultiplyOptions,
    ) -> ATMatrix:
        left = self.left._execute(config, cost_model, options)
        right = self.right._execute(config, cost_model, options)
        return at_add(left, right, config=config)

    def _describe(self) -> str:
        return f"({self.left._describe()} + {self.right._describe()})"


@dataclass(frozen=True, eq=False)
class Scaled(MatrixExpr):
    """Scalar multiple."""

    child: MatrixExpr
    factor: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.child.shape

    def _pushdown(self, transposed: bool) -> MatrixExpr:
        inner = self.child._pushdown(transposed)
        if isinstance(inner, Scaled):  # collapse nested scalars
            return Scaled(inner.child, inner.factor * self.factor)
        return Scaled(inner, self.factor)

    def _execute(
        self,
        config: SystemConfig,
        cost_model: CostModel,
        options: MultiplyOptions,
    ) -> ATMatrix:
        return at_scale(
            self.child._execute(config, cost_model, options), self.factor
        )

    def _describe(self) -> str:
        return f"{self.factor} * {self.child._describe()}"
