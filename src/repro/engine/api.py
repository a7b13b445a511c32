"""The plan/execute front door of the execution engine.

:func:`plan` resolves every decision of ``A x B`` into an
:class:`~repro.engine.plan.ExecutionPlan` (through the options' plan
cache when one is configured); :func:`execute` replays a plan against
same-topology operands.  ``atmult(a, b)`` is exactly
``execute(plan(a, b), a, b)`` — both operator front-ends in
:mod:`repro.core` share one body, :func:`run_multiply`, which routes
through :func:`resolve_plan` so iterative workloads (the solvers'
``A @ x`` included) skip estimation, partitioning and optimization from
the second call on.  :func:`run_chain` is the one execution loop for
matrix chains: hop by hop when cold, one fused replay when a cached
:class:`~repro.engine.plan.FusedChainPlan` applies.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..core.atmatrix import ATMatrix
from ..core.operands import MatrixOperand, as_at_matrix
from ..core.report import BaseReport, MultiplyReport, ParallelReport
from ..errors import ConfigError, PlanMismatchError, ShapeError
from ..observe import Observation
from ..observe import session as observe_session
from .cache import ChainKey, PlanKey
from .executor import execute_fused_chain, execute_plan
from .options import MultiplyOptions
from .plan import (
    ExecutionPlan,
    FusedChainPlan,
    HopSource,
    PlannedHop,
    build_plan,
    fused_chain_schedule,
)
from .replay import lower_matvec
from .fingerprint import (
    config_fingerprint,
    payload_fingerprint,
    structure_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.chain import ChainPlan, ChainReport


def resolve_plan(
    at_a: ATMatrix,
    at_b: ATMatrix,
    *,
    options: MultiplyOptions,
    obs: Observation | None,
) -> tuple[ExecutionPlan, bool]:
    """The plan for ``at_a x at_b`` under ``options``: cached or fresh.

    Returns ``(plan, fresh)`` — ``fresh`` is True when the plan was
    built by this call (its planning-phase durations then belong in the
    caller's report).  A plan entering the cache carries its compiled
    ``n x 1`` replay when it qualifies
    (:func:`~repro.engine.replay.lower_matvec`), attached before the
    put so the cache charges its bytes.
    """
    cache = options.plan_cache
    key = None
    if cache is not None:
        key = PlanKey(
            structure_fingerprint(at_a),
            structure_fingerprint(at_b),
            config_fingerprint(options),
        )
        cached = cache.get(key)
        if isinstance(cached, ExecutionPlan):
            return cached, False
    built = build_plan(at_a, at_b, options=options, obs=obs)
    if cache is not None and key is not None:
        built.program = lower_matvec(
            built, at_a, at_b, options.resolved_cost_model()
        )
        cache.put(key, built)
    return built, True


def fold_plan_phases(report: BaseReport, plan: ExecutionPlan) -> None:
    """Attribute a freshly built plan's phase durations to ``report``.

    Cached replays skip this — their reports show (near) zero estimate
    and decision time, which is the whole point of plan reuse.
    """
    if plan.use_estimation:
        report.add_phase("estimate", plan.estimate_seconds)
    report.add_phase("optimize", plan.optimize_seconds)


def chain_fusable(options: MultiplyOptions) -> bool:
    """Whether work under ``options`` may cache and replay fused plans.

    A fused replay runs no per-hop retry, checkpoint journal or
    memory-limit repair, so only plain runs with a plan cache qualify;
    everything else takes the hop-by-hop cold path every time.
    """
    return (
        options.plan_cache is not None
        and options.resilience is None
        and options.checkpoint is None
        and options.memory_limit_bytes is None
    )


def plan(
    a: MatrixOperand,
    b: MatrixOperand,
    *,
    options: MultiplyOptions | None = None,
) -> ExecutionPlan:
    """Resolve the execution plan for ``A x B`` without running kernels.

    Consults (and fills) ``options.plan_cache`` when one is set.
    """
    opts = options if options is not None else MultiplyOptions()
    if a.cols != b.rows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    config = opts.resolved_config()
    with observe_session.resolve(opts.observer) as obs:
        at_a = as_at_matrix(a, config)
        at_b = as_at_matrix(b, config)
        resolved, _ = resolve_plan(at_a, at_b, options=opts, obs=obs)
    return resolved


def execute(
    execution_plan: ExecutionPlan,
    a: MatrixOperand,
    b: MatrixOperand,
    c: MatrixOperand | None = None,
    *,
    options: MultiplyOptions | None = None,
) -> tuple[ATMatrix, MultiplyReport]:
    """Replay a plan against operands of matching topology.

    Raises :class:`~repro.errors.PlanMismatchError` when either
    operand's structure fingerprint differs from the plan's.
    """
    opts = options if options is not None else MultiplyOptions()
    config = opts.resolved_config()
    if c is not None and c.shape != execution_plan.shape:
        raise ShapeError(
            f"C shape {c.shape} != result shape {execution_plan.shape}"
        )
    with observe_session.resolve(opts.observer) as obs:
        at_a = as_at_matrix(a, config)
        at_b = as_at_matrix(b, config)
        at_c = as_at_matrix(c, config) if c is not None else None
        result, report = execute_plan(
            execution_plan, at_a, at_b, at_c, options=opts, obs=obs
        )
    assert isinstance(report, MultiplyReport)
    return result, report


def run_multiply(
    a: MatrixOperand,
    b: MatrixOperand,
    c: MatrixOperand | None = None,
    *,
    options: MultiplyOptions,
    execution: str = "sequential",
    workers: int = 1,
) -> tuple[ATMatrix, MultiplyReport | ParallelReport, bool]:
    """Resolve, execute and fold one product: every front door's body.

    :func:`~repro.core.atmult.atmult` runs it sequentially and
    :func:`~repro.core.parallel.parallel_atmult` on a parallel backend.
    The plan comes from :func:`resolve_plan` (the options' plan cache
    when one is set), runs through
    :func:`~repro.engine.executor.execute_plan`, and a freshly built
    plan's phase durations are folded into the report.  Returns
    ``(result, report, fresh)``.
    """
    if a.cols != b.rows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    if c is not None and c.shape != (a.rows, b.cols):
        raise ShapeError(f"C shape {c.shape} != result shape {(a.rows, b.cols)}")
    config = options.resolved_config()
    with observe_session.resolve(options.observer) as obs:
        at_a = as_at_matrix(a, config)
        at_b = as_at_matrix(b, config)
        at_c = as_at_matrix(c, config) if c is not None else None
        resolved, fresh = resolve_plan(at_a, at_b, options=options, obs=obs)
        result, report = execute_plan(
            resolved,
            at_a,
            at_b,
            at_c,
            options=options,
            obs=obs,
            execution=execution,
            workers=workers,
            check_fingerprints=False,  # resolve_plan keyed/built on these operands
        )
        if fresh:
            fold_plan_phases(report, resolved)
    return result, report, fresh


def _expected_tiles(
    execution_plan: ExecutionPlan, result: ATMatrix
) -> tuple[
    tuple[int | None, ...], tuple[tuple[int, int, int, int, str, str], ...]
]:
    """Per-pair output-tile indices and tile identities of one hop.

    Sequential execution appends each pair's result tile (when any) in
    pair order, so walking pairs and tiles in lockstep — matching on the
    pair's output region origin — recovers which pair produced which
    tile.  The identity tuples (geometry, storage kind, payload
    fingerprint) are what the fused executor validates replayed tiles
    against.
    """
    tiles = result.tiles
    tile_of_pair: list[int | None] = []
    cursor = 0
    for pair in execution_plan.pairs:
        if (
            cursor < len(tiles)
            and tiles[cursor].row0 == pair.r0
            and tiles[cursor].col0 == pair.c0
        ):
            tile_of_pair.append(cursor)
            cursor += 1
        else:
            tile_of_pair.append(None)
    assert cursor == len(tiles)  # every result tile belongs to some pair
    expected = tuple(
        (
            tile.row0,
            tile.col0,
            tile.rows,
            tile.cols,
            tile.kind.value,
            payload_fingerprint(tile.data),
        )
        for tile in tiles
    )
    return tuple(tile_of_pair), expected


def _run_chain_cold(
    ats: list[ATMatrix],
    chain: ChainPlan,
    *,
    options: MultiplyOptions,
    report: ChainReport,
    obs: Observation | None,
) -> tuple[ATMatrix, list[PlannedHop]]:
    """Execute a chain hop-by-hop, recording fused replay metadata.

    Each hop resolves through the options' plan cache (sharing per-hop
    entries with plain ``atmult`` calls) and executes sequentially under
    the options' resilience, checkpoint and cancel settings, so the
    recorded ``tile_of_pair``/``expected_tiles`` describe exactly what a
    fused replay must reproduce.
    """
    sources: dict[tuple[int, int], HopSource] = {
        (i, i): HopSource("leaf", i) for i in range(len(ats))
    }
    results: dict[tuple[int, int], ATMatrix] = {
        (i, i): at for i, at in enumerate(ats)
    }
    hops: list[PlannedHop] = []
    product: ATMatrix | None = None
    for i, k, j in chain.order:
        left = results[(i, k)]
        right = results[(k + 1, j)]
        hop_plan, fresh = resolve_plan(left, right, options=options, obs=obs)
        product, step_report = execute_plan(
            hop_plan,
            left,
            right,
            options=options,
            obs=obs,
            check_fingerprints=False,
        )
        assert isinstance(step_report, MultiplyReport)
        if fresh:
            fold_plan_phases(step_report, hop_plan)
        report.merge_step(step_report)
        tile_of_pair, expected = _expected_tiles(hop_plan, product)
        hops.append(
            PlannedHop(
                i=i,
                k=k,
                j=j,
                a_source=sources[(i, k)],
                b_source=sources[(k + 1, j)],
                plan=hop_plan,
                out_fingerprint=structure_fingerprint(product),
                tile_of_pair=tile_of_pair,
                expected_tiles=expected,
            )
        )
        sources[(i, j)] = HopSource("hop", len(hops) - 1)
        results[(i, j)] = product
    assert product is not None
    return product, hops


def run_chain(
    operands: Sequence[MatrixOperand],
    *,
    options: MultiplyOptions,
    obs: Observation | None,
) -> tuple[ATMatrix, ChainReport, FusedChainPlan]:
    """Run a matrix chain of two or more operands.

    When the chain is fusable (:func:`chain_fusable`) and a matching
    :class:`~repro.engine.plan.FusedChainPlan` is cached, the whole
    chain replays as one interleaved fused execution (intermediates
    consumed while resident, freed eagerly).  Otherwise the chain is
    planned and run cold — hop by hop, recording replay metadata — and,
    when fusable, the resulting fused plan is cached for the next run.
    Returns ``(result, report, fused_plan)``; the report's ``fused`` /
    ``plan_cache_hit`` flags say which path ran.

    A checkpoint journal holds the pairs of one product, so a
    ``checkpoint`` with more than one hop is a :class:`ConfigError`,
    raised before any kernel runs.
    """
    from ..core.chain import ChainReport, plan_chain

    if len(operands) < 2:
        raise ShapeError(
            f"a chain run needs at least two operands, got {len(operands)}"
        )
    if options.checkpoint is not None and len(operands) > 2:
        raise ConfigError(
            "a checkpoint journals a single product; a chain of "
            f"{len(operands)} operands has {len(operands) - 1} hops — "
            "checkpoint each product separately"
        )
    resolved_config = options.resolved_config()
    resolved_model = options.resolved_cost_model()
    ats = [as_at_matrix(operand, resolved_config) for operand in operands]
    fingerprints = tuple(structure_fingerprint(at) for at in ats)
    setup = config_fingerprint(options)
    key = ChainKey(fingerprints, setup)
    cache = options.plan_cache if chain_fusable(options) else None

    if cache is not None:
        cached = cache.get(key)
        if isinstance(cached, FusedChainPlan):
            try:
                result, outcome = execute_fused_chain(
                    cached,
                    ats,
                    config=resolved_config,
                    cost_model=resolved_model,
                    obs=obs,
                    check_fingerprints=False,
                )
            except PlanMismatchError:
                # Operand values changed the intermediate topology the
                # cached plan recorded; rebuild below (the put overwrites
                # the stale entry).
                pass
            else:
                report = ChainReport(observation=obs)
                report.plan = cached.chain
                report.fused = True
                report.plan_cache_hit = True
                for step in outcome.steps:
                    report.merge_step(step)
                report.intermediates_freed = outcome.intermediates_freed
                report.peak_intermediate_bytes = outcome.peak_intermediate_bytes
                return result, report, cached

    report = ChainReport(observation=obs)
    with observe_session.tracer_span(obs, "chain_plan"):
        chain = plan_chain(
            list(ats),
            config=resolved_config,
            cost_model=resolved_model,
            structural=True,
        )
    report.plan = chain
    result, hops = _run_chain_cold(
        ats, chain, options=options, report=report, obs=obs
    )
    schedule, frees = fused_chain_schedule(tuple(hops))
    fused = FusedChainPlan(
        operand_fingerprints=fingerprints,
        setup_key=setup,
        chain=chain,
        hops=tuple(hops),
        schedule=schedule,
        frees=frees,
        shape=(result.rows, result.cols),
    )
    if cache is not None:
        cache.put(key, fused)
    return result, report, fused
