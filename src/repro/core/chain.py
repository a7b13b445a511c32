"""Cost-based sparse matrix chain multiplication.

The paper's predecessor work SpMachO [9] optimizes *expressions* of
sparse matrix products; the paper itself notes that "the predefinition
of matrix storage types ... has a negative impact on the performance,
e.g. as observed for sparse matrix chain multiplications [9]".  This
module brings that capability to AT Matrices: given a chain
``A1 @ A2 @ ... @ An``, it propagates density-map estimates through every
possible parenthesization with the classic interval dynamic program, but
scores each split with the *kernel cost model* applied to the estimated
operand densities instead of the dense flop count ``m*k*n``.

The returned plan is executed by the engine's chain runner
(:func:`repro.engine.api.run_chain`), so every intermediate product is
itself an adaptive tile matrix with cost-optimized kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise

from ..config import DEFAULT_CONFIG, SystemConfig
from ..cost.model import CostModel
from ..density.estimate import estimate_product_density
from ..density.map import DensityMap
from ..engine.api import run_chain
from ..engine.options import MultiplyOptions
from ..errors import ShapeError
from ..kinds import StorageKind
from ..observe import session as observe_session
from .atmatrix import ATMatrix
from .operands import MatrixOperand, as_at_matrix, operand_density_map
from .report import BaseReport, MultiplyReport


@dataclass(frozen=True)
class ChainPlan:
    """An optimized parenthesization of a matrix chain.

    ``splits[i][j]`` holds the split point of the optimal plan for the
    sub-chain ``i..j`` (inclusive); ``cost`` is the model's predicted
    seconds for the whole chain; ``order`` lists the multiplications in
    execution order as ``(i, k, j)`` triples meaning
    ``result(i..j) = result(i..k) @ result(k+1..j)``.
    """

    cost: float
    splits: tuple[tuple[int, ...], ...]
    order: tuple[tuple[int, int, int], ...]

    def parenthesization(self, names: list[str] | None = None) -> str:
        """Human-readable parenthesization, e.g. ``((A B) C)``."""
        n = len(self.splits)
        names = names or [f"A{i + 1}" for i in range(n)]

        def render(i: int, j: int) -> str:
            if i == j:
                return names[i]
            k = self.splits[i][j]
            return f"({render(i, k)} {render(k + 1, j)})"

        return render(0, n - 1)


def _predicted_product_cost(
    model: CostModel, a: DensityMap, b: DensityMap, estimate: DensityMap
) -> float:
    """Whole-product cost from aggregate densities (optimizer's view)."""
    rho_a = a.overall_density()
    rho_b = b.overall_density()
    rho_c = estimate.overall_density()
    best = min(
        model.product_cost(ka, kb, kc, a.rows, a.cols, b.cols, rho_a, rho_b, rho_c)
        for ka in StorageKind
        for kb in StorageKind
        for kc in StorageKind
    )
    return best


def plan_chain(
    operands: list[MatrixOperand],
    *,
    config: SystemConfig | None = None,
    cost_model: CostModel | None = None,
    structural: bool = False,
) -> ChainPlan:
    """Find the cheapest parenthesization of ``A1 @ A2 @ ... @ An``.

    Uses the interval DP over the chain with density-map propagation:
    the density estimate of every sub-chain result feeds both the cost
    of the enclosing products and their own estimates — mirroring how a
    relational optimizer propagates cardinalities through join trees.

    ``structural=True`` scores the DP on the planner's structural
    density view (dense payloads contribute their fingerprint-quantized
    density), making the returned plan a pure function of the operands'
    structure fingerprints — what the fused chain cache requires.
    """
    config = config or DEFAULT_CONFIG
    cost_model = cost_model or CostModel()
    n = len(operands)
    if n == 0:
        raise ShapeError(
            "empty matrix chain: need at least one operand, got 0"
        )
    for position, (left, right) in enumerate(pairwise(operands)):
        if left.cols != right.rows:
            raise ShapeError(
                f"chain dimension mismatch at operand {position}: "
                f"{left.shape} then {right.shape}"
            )

    maps: list[list[DensityMap | None]] = [[None] * n for _ in range(n)]
    costs = [[0.0] * n for _ in range(n)]
    splits = [[0] * n for _ in range(n)]
    for i, operand in enumerate(operands):
        maps[i][i] = operand_density_map(operand, config, structural=structural)

    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            best_cost = None
            best_split = i
            best_map = None
            for k in range(i, j):
                left = maps[i][k]
                right = maps[k + 1][j]
                assert left is not None and right is not None
                estimate = estimate_product_density(left, right)
                cost = (
                    costs[i][k]
                    + costs[k + 1][j]
                    + _predicted_product_cost(cost_model, left, right, estimate)
                )
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_split = k
                    best_map = estimate
            assert best_cost is not None and best_map is not None
            costs[i][j] = best_cost
            splits[i][j] = best_split
            maps[i][j] = best_map

    order: list[tuple[int, int, int]] = []

    def emit(i: int, j: int) -> None:
        if i == j:
            return
        k = splits[i][j]
        emit(i, k)
        emit(k + 1, j)
        order.append((i, k, j))

    emit(0, n - 1)
    return ChainPlan(
        cost=costs[0][n - 1],
        splits=tuple(tuple(row) for row in splits),
        order=tuple(order),
    )


@dataclass
class ChainReport(BaseReport):
    """Aggregate report of one chain execution.

    Extends :class:`~repro.core.report.BaseReport` with the executed
    :class:`ChainPlan` (``.plan``) and the per-step
    :class:`~repro.core.report.MultiplyReport` list (``.steps``); the
    base phase/kernel/conversion counters hold the sums over all steps.
    The plan's ``cost``/``splits``/``order`` and :meth:`parenthesization`
    are exposed directly on the report.
    """

    plan: ChainPlan | None = None
    steps: list[MultiplyReport] = field(default_factory=list)
    #: whether the chain replayed as one fused interleaved execution
    fused: bool = False
    #: whether the whole fused plan came from one ``PlanCache`` hit
    plan_cache_hit: bool = False
    #: intermediate tiles released eagerly during fused execution
    intermediates_freed: int = 0
    #: peak bytes of intermediate tiles resident during fused execution
    peak_intermediate_bytes: int = 0

    def _plan(self) -> ChainPlan:
        assert self.plan is not None
        return self.plan

    @property
    def cost(self) -> float:
        return self._plan().cost

    @property
    def splits(self) -> tuple[tuple[int, ...], ...]:
        return self._plan().splits

    @property
    def order(self) -> tuple[tuple[int, int, int], ...]:
        return self._plan().order

    def parenthesization(self, names: list[str] | None = None) -> str:
        return self._plan().parenthesization(names)

    def merge_step(self, step: MultiplyReport) -> None:
        """Fold one multiplication's report into the aggregate."""
        self.steps.append(step)
        for name, seconds in step.phase_seconds.items():
            self.add_phase(name, seconds)
        self.merge_kernel_counts(step.kernel_counts)
        self.conversions += step.conversions


def multiply_chain(
    operands: list[MatrixOperand],
    *,
    options: MultiplyOptions | None = None,
) -> tuple[ATMatrix, ChainReport]:
    """Plan and execute a matrix chain.

    Returns ``(product, report)`` where the :class:`ChainReport` carries
    the executed :class:`ChainPlan` (``report.plan``, with ``order``/
    ``parenthesization()`` available directly on the report) plus the
    aggregated phase and kernel statistics of every step.  Each
    intermediate is an AT Matrix, so later products in the chain keep
    benefiting from the tile-granular optimization.

    Chains of two or more operands run through
    :func:`repro.engine.api.run_chain`.  With a plan cache in
    ``options`` (and no resilience, checkpoint or memory limit) the
    first run records a whole-chain
    :class:`~repro.engine.plan.FusedChainPlan` and every later run of
    the same chain replays it from one cache hit with cross-hop
    interleaved execution (``report.fused`` / ``report.plan_cache_hit``
    say which path ran).
    """
    opts = options if options is not None else MultiplyOptions()
    with observe_session.resolve(opts.observer) as obs:
        if len(operands) >= 2:
            product, report, _fused = run_chain(operands, options=opts, obs=obs)
            return product, report
        config = opts.resolved_config()
        with observe_session.tracer_span(obs, "chain_plan"):
            plan = plan_chain(
                operands, config=config, cost_model=opts.resolved_cost_model()
            )
        return as_at_matrix(operands[0], config), ChainReport(
            plan=plan, observation=obs
        )
