"""ATMULT: the tile-granular, cost-optimized multiplication operator.

Implements paper Algorithm 2 for ``C' = C + A x B`` where each operand is
independently a plain matrix (dense array or CSR) or an AT Matrix:

1. estimate the result's block-density map by probability propagation;
2. derive the effective write density threshold from the static
   ``rho0_W`` and the water-level method under the memory limit;
3. iterate tile-row/tile-column pairs; allocate each target tile dense or
   sparse according to its estimated final density;
4. for every matching inner tile pair, compute the reference windows and
   let the cost model pick (and JIT-convert to) the cheapest input
   representations before dispatching the kernel.

Since the engine redesign, steps 1-3 plus the per-product kernel
decisions are the *planning* half (:func:`repro.engine.plan.build_plan`)
and the kernel dispatch is the *execution* half
(:func:`repro.engine.executor.execute_plan`); this module is the
sequential operator front-end over
:func:`repro.engine.api.run_multiply`, the body it shares with
:func:`~repro.core.parallel.parallel_atmult`.  Pass
``options=MultiplyOptions(plan_cache=PlanCache())`` (or drive the call
through a :class:`repro.Session`) and repeated multiplications over the
same operand topology skip estimation, partitioning and optimization
entirely.

Note on the threshold combination: Alg. 2 line 3 of the paper prints
``min{rho0_W, waterlevel(...)}``; since lowering the threshold *increases*
memory for sub-half densities, honoring the memory SLA requires the
*stricter* (larger) of the two thresholds, so this implementation combines
them with ``max``.  With an unbounded memory limit the water level drops
to 0 and the static ``rho0_W`` decides alone, which reproduces the
paper's described behavior in both regimes.

Observability: pass ``options=MultiplyOptions(observer=...)`` (or run
inside ``repro.observe()``) to record estimate/water-level/pair/optimize/
kernel spans, the metric catalogue of docs/OBSERVABILITY.md, and
per-product predicted-vs-measured cost samples.  With no active session
every hook is a strict no-op.
"""

from __future__ import annotations

import logging

from ..engine.api import run_multiply
from ..engine.options import MultiplyOptions
from ..formats.dense import DenseMatrix
from .atmatrix import ATMatrix
from .operands import MatrixOperand
from .report import MultiplyReport

__all__ = ["atmult", "enforce_memory_limit"]

logger = logging.getLogger("repro.atmult")


def atmult(
    a: MatrixOperand,
    b: MatrixOperand,
    c: MatrixOperand | None = None,
    *,
    options: MultiplyOptions | None = None,
) -> tuple[ATMatrix, MultiplyReport]:
    """Multiply ``C' = C + A x B`` with tile-granular optimization.

    Parameters
    ----------
    a, b, c:
        Operands; each may be an :class:`ATMatrix`, :class:`CSRMatrix`
        or :class:`DenseMatrix`.  ``c`` is an optional matrix added into
        the result.
    options:
        A :class:`~repro.engine.options.MultiplyOptions` holding the
        execution configuration (system config, cost model, memory
        limit, ablation flags, resilience, observer, plan cache);
        ``None`` means the defaults.  With ``options.plan_cache`` set,
        planning is skipped whenever a cached plan matches the operand
        topologies and configuration.

    Returns
    -------
    (result, report):
        The product as an :class:`ATMatrix` plus the phase report.
    """
    result, report, fresh = run_multiply(
        a, b, c, options=options if options is not None else MultiplyOptions()
    )
    assert isinstance(report, MultiplyReport)
    logger.debug(
        "atmult %sx%s @ %sx%s -> nnz=%d in %.3fs "
        "(estimate %.1f%%, optimize %.1f%%, %d conversions, kernels %s, "
        "plan %s)",
        a.rows, a.cols, b.rows, b.cols, result.nnz, report.total_seconds,
        100 * report.estimate_fraction, 100 * report.optimize_fraction,
        report.conversions, dict(report.kernel_counts),
        "fresh" if fresh else "cached",
    )
    return result, report


def enforce_memory_limit(result: ATMatrix, memory_limit_bytes: float) -> int:
    """Demote dense result tiles to CSR until the matrix fits the limit.

    The water-level threshold acts on *estimated* densities, so the
    materialized result can overshoot the SLA by the estimation error.
    This repair pass converts dense tiles to sparse in ascending density
    order (each such conversion shrinks a tile with density < S_d/S_sp)
    until the limit holds.  Returns the number of demoted tiles; raises
    :class:`MemoryLimitError` when even the all-sparse layout does not
    fit.
    """
    from ..errors import MemoryLimitError
    from ..formats.convert import dense_to_csr

    total = result.memory_bytes()
    if total <= memory_limit_bytes:
        return 0
    demotable = sorted(
        (
            tile
            for tile in result.tiles
            if isinstance(tile.data, DenseMatrix)
        ),
        key=lambda tile: tile.density,
    )
    demoted = 0
    for tile in demotable:
        if total <= memory_limit_bytes:
            break
        sparse_payload = dense_to_csr(tile.data)
        if sparse_payload.memory_bytes() >= tile.memory_bytes():
            continue  # denser than S_d/S_sp: demotion would not shrink it
        total += sparse_payload.memory_bytes() - tile.memory_bytes()
        result.replace_tile(tile, tile.with_payload(sparse_payload))
        demoted += 1
    if total > memory_limit_bytes:
        raise MemoryLimitError(
            f"result needs {total:.0f} B even all-sparse; limit is "
            f"{memory_limit_bytes:.0f} B"
        )
    return demoted

