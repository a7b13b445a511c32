"""Session: one configuration, one plan cache, one observation.

A :class:`Session` is the object-oriented entry point of the redesigned
API: it owns a resolved :class:`~repro.engine.options.MultiplyOptions`
(with a :class:`~repro.engine.cache.PlanCache` always attached) and
optionally an :class:`~repro.observe.Observation`, and exposes the
operator surface — multiply, chains, expressions, matrix-vector
products and the iterative solvers — with plan reuse wired through
everything:

>>> from repro import Session
>>> session = Session()
>>> # result, report = session.multiply(a, b)
>>> # outcome = session.solve(a, rhs, method="cg")  # plans A once

Solvers driven through a session multiply via the engine, so iterations
2..N of a solve replay the cached plan instead of re-estimating and
re-optimizing (see docs/API.md).

A session is also a context manager: ``with Session(...) as s:`` closes
it on exit, which exports the session's observation to the paths given
as ``metrics_out`` / ``trace_out`` (creating an
:class:`~repro.observe.Observation` automatically when either path is
set and no observer was passed).
"""

from __future__ import annotations

from collections.abc import Callable
from types import TracebackType
from typing import TYPE_CHECKING, Any

import numpy as np

from ..config import SystemConfig
from ..core.operands import MatrixOperand, as_at_matrix
from ..cost.model import CostModel
from ..errors import ConfigError
from ..formats.dense import DenseMatrix
from ..observe import Observation, write_chrome_trace, write_json
from .api import plan as plan_api
from .cache import CacheStats, PlanCache
from .options import MultiplyOptions
from .plan import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.atmatrix import ATMatrix
    from ..core.chain import ChainReport
    from ..core.report import MultiplyReport
    from ..expr import MatrixExpr
    from ..solve import SolveResult


class Session:
    """A long-lived execution context with plan reuse.

    Parameters
    ----------
    config, cost_model:
        Overrides folded into the session's options.
    options:
        Base :class:`MultiplyOptions`; defaults to a fresh one.
    plan_cache:
        The cache to use; when neither this nor ``options.plan_cache``
        is given, the session creates its own :class:`PlanCache` — a
        session always has one.
    observer:
        An :class:`~repro.observe.Observation` recorded into by every
        call made through the session.
    metrics_out, trace_out:
        Paths the session's observation is exported to on
        :meth:`close` (JSON summary and Chrome trace respectively).
        Setting either without an explicit ``observer`` makes the
        session create its own :class:`~repro.observe.Observation`.
    """

    def __init__(
        self,
        *,
        config: SystemConfig | None = None,
        cost_model: CostModel | None = None,
        options: MultiplyOptions | None = None,
        plan_cache: PlanCache | None = None,
        observer: Observation | None = None,
        metrics_out: str | None = None,
        trace_out: str | None = None,
    ) -> None:
        base = options if options is not None else MultiplyOptions()
        overrides: dict[str, Any] = {}
        if config is not None:
            overrides["config"] = config
        if cost_model is not None:
            overrides["cost_model"] = cost_model
        if observer is None and (metrics_out or trace_out):
            observer = Observation()
        if observer is not None:
            overrides["observer"] = observer
        cache = plan_cache if plan_cache is not None else base.plan_cache
        overrides["plan_cache"] = cache if cache is not None else PlanCache()
        self.options = base.replace(**overrides)
        self.metrics_out = metrics_out
        self.trace_out = trace_out
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> Session:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def close(self) -> None:
        """Flush the session: export its observation to the given paths.

        Idempotent; called automatically when the session is used as a
        context manager.  A session without an observer (or without
        export paths) closes as a no-op, and the plan cache stays usable
        so a closed session can still multiply — closing only concludes
        the observability story.
        """
        if self._closed:
            return
        self._closed = True
        observer = self.observer
        if observer is None:
            return
        if self.metrics_out is not None:
            write_json(observer, self.metrics_out)
        if self.trace_out is not None:
            write_chrome_trace(observer, self.trace_out)

    # -- resolved components ----------------------------------------------
    @property
    def config(self) -> SystemConfig:
        return self.options.resolved_config()

    @property
    def cost_model(self) -> CostModel:
        return self.options.resolved_cost_model()

    @property
    def plan_cache(self) -> PlanCache:
        cache = self.options.plan_cache
        assert cache is not None  # the constructor guarantees it
        return cache

    @property
    def observer(self) -> Observation | None:
        return self.options.observer

    def cache_stats(self) -> CacheStats:
        """Frozen snapshot of the session's plan-cache counters."""
        return self.plan_cache.stats()

    def clear_cache(self) -> None:
        """Drop every cached plan (counters keep their history)."""
        self.plan_cache.clear()

    # -- operators ---------------------------------------------------------
    def plan(self, a: MatrixOperand, b: MatrixOperand) -> ExecutionPlan:
        """The (cached) execution plan for ``A x B`` under this session."""
        return plan_api(a, b, options=self.options)

    def multiply(
        self,
        a: MatrixOperand,
        b: MatrixOperand,
        c: MatrixOperand | None = None,
    ) -> tuple["ATMatrix", "MultiplyReport"]:
        """Sequential ``C' = C + A x B`` through the plan cache."""
        from ..core.atmult import atmult

        return atmult(a, b, c, options=self.options)

    def multiply_chain(
        self, operands: list[MatrixOperand]
    ) -> tuple["ATMatrix", "ChainReport"]:
        """Optimally-parenthesized chain product through the fused planner.

        A session always has a plan cache, so chains of two or more
        operands route through the engine's fused chain planner: the
        first run records one whole-chain
        :class:`~repro.engine.plan.FusedChainPlan`, every later run of
        the same chain replays it from a single cache hit with cross-hop
        interleaved execution (``report.fused`` / ``report.plan_cache_hit``).
        """
        from ..core.chain import multiply_chain

        return multiply_chain(operands, options=self.options)

    def evaluate(self, expr: MatrixExpr) -> "ATMatrix":
        """Evaluate a :class:`~repro.expr.MatrixExpr` under this session.

        The single front door for expression work: products flatten into
        chains routed through the fused chain planner and this session's
        plan cache; additions, scalings and transposes run under the
        session's configuration.
        """
        return expr.evaluate(options=self.options)

    def matvec(self, matrix: MatrixOperand, vector: np.ndarray) -> np.ndarray:
        """``A @ x`` through the engine, so repeated products reuse one plan.

        The vector rides as a dense ``n x 1`` operand; dense topology is
        shape-only, so every same-length vector hits the same plan.
        """
        at = as_at_matrix(matrix, self.config)
        column = np.asarray(vector, dtype=np.float64).reshape(-1, 1)
        result, _ = self.multiply(at, DenseMatrix(column, copy=False))
        return result.to_dense().ravel()

    # -- solvers -----------------------------------------------------------
    def solve(
        self,
        a: MatrixOperand,
        b: np.ndarray,
        *,
        method: str = "cg",
        **kwargs: Any,
    ) -> SolveResult:
        """Solve ``A x = b`` with the named iterative method.

        ``method`` is one of ``"cg"`` (conjugate gradients, the default),
        ``"jacobi"`` or ``"richardson"``.  Extra keywords go to the
        underlying solver (``tol``, ``max_iterations``, ``omega``, ...);
        every iteration multiplies through this session, so the matrix
        is planned once and replayed.
        """
        from ..solve import conjugate_gradient, jacobi, richardson

        drivers: dict[str, Callable[..., SolveResult]] = {
            "cg": conjugate_gradient,
            "jacobi": jacobi,
            "richardson": richardson,
        }
        driver = drivers.get(method)
        if driver is None:
            raise ConfigError(
                f"unknown solve method {method!r}; expected one of "
                f"{', '.join(drivers)}"
            )
        return driver(a, b, options=self.options, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.cache_stats()
        return (
            f"Session(plans={stats.entries}, hits={stats.hits}, "
            f"misses={stats.misses})"
        )
