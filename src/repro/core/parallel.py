"""Parallel ATMULT: the paper's two-level execution for real.

Paper section III-F: pairs ``(ti, tj)`` of A tile-rows and B tile-columns
form independent task sets; all tile products of one pair run on the same
worker team, different pairs run on different teams concurrently.  This
module executes that scheme on top of the same engine the sequential
operator uses: the plan is resolved once
(:func:`repro.engine.api.resolve_plan`, possibly from the plan cache,
and *shared* with the sequential path — the plan key deliberately
excludes the execution mode) and the planned pairs are dispatched by
:func:`repro.engine.executor.execute_plan` to one of two backends,
selected by ``MultiplyOptions.execution``:

* ``"threads"`` (default) — a thread pool, one worker per simulated
  socket;
* ``"processes"`` — the supervised multiprocess shard executor
  (:mod:`repro.resilience.supervisor`): one OS process per simulated
  socket, heartbeat liveness, crash detection and pair reassignment.
  Falls back to threads (with a :class:`RuntimeWarning`) when the
  platform cannot run ``multiprocessing``.

Two facts make this sound in Python:

* different pairs write *different* target accumulators, so pair tasks
  share no mutable state except the engine's conversion cache (guarded
  by a lock);
* the heavy numpy/BLAS kernels release the GIL, so dense-dominated
  workloads overlap on multicore hosts (on a single-core host the result
  is identical, just serialized).

Failure semantics: a pair task that raises no longer kills the whole
``ThreadPoolExecutor.map``.  Without a resilience policy, per-pair
exceptions are captured, busy-time statistics are preserved, and one
aggregated :class:`~repro.errors.TaskFailedError` is raised after the
pool drains (carrying ``pair_errors`` and the partially populated
report).  With a ``RetryPolicy`` as ``options.resilience``, each pair is
retried in isolation, validated by the result guard, and degraded to
sparse under memory pressure — see :mod:`repro.resilience`.

Observability: pass ``options=MultiplyOptions(observer=...)`` (or run
inside ``repro.observe()``) and the pair spans land on their worker
threads — the Chrome trace export then shows one lane per ``team``
thread with nested pair/kernel spans, which is the paper's Fig. 9
execution picture as a timeline.
"""

from __future__ import annotations

import warnings

from ..engine.api import fold_plan_phases, resolve_plan
from ..engine.executor import execute_plan
from ..engine.options import MultiplyOptions
from ..errors import ShapeError
from ..observe import session as observe_session
from ..topology.system import SystemTopology
from .atmatrix import ATMatrix
from .operands import MatrixOperand, as_at_matrix
from .report import ParallelReport

__all__ = ["parallel_atmult"]


def parallel_atmult(
    a: MatrixOperand,
    b: MatrixOperand,
    *,
    topology: SystemTopology,
    options: MultiplyOptions | None = None,
) -> tuple[ATMatrix, ParallelReport]:
    """Multiply ``C = A x B`` with one worker team per socket.

    Semantically identical to :func:`~repro.core.atmult.atmult` and
    configured the same way, through ``options`` (``topology`` replaces
    the implicit sequential execution; ``c`` seeding is not supported in
    parallel — see docs/API.md).  The tile-row/tile-column pairs are
    dispatched to ``topology.sockets`` worker teams (overridable via
    ``options.workers``) on the backend ``options.execution`` names,
    instead of a sequential loop.  With ``options.resilience``, flaky
    pairs are retried in isolation, finished tiles are validated, and
    memory pressure degrades the write threshold instead of failing the
    run.  With ``use_estimation=False`` the density estimation phase is
    skipped and every target tile is sparse (ablation step 3).
    """
    opts = options if options is not None else MultiplyOptions()
    if a.cols != b.rows:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    resolved_config = opts.resolved_config()
    resolved_model = opts.resolved_cost_model()
    worker_count = opts.workers if opts.workers is not None else topology.sockets
    execution = opts.execution
    if execution == "processes":
        # The supervisor is the only module allowed to know whether the
        # platform can run it; degrade to the thread backend otherwise.
        from ..resilience.supervisor import processes_available

        if not processes_available():  # pragma: no cover - platform-specific
            warnings.warn(
                "multiprocessing is unavailable on this platform; "
                "execution='processes' falls back to threads",
                RuntimeWarning,
                stacklevel=2,
            )
            execution = "threads"
    with observe_session.resolve(opts.observer) as obs:
        at_a = as_at_matrix(a, resolved_config)
        at_b = as_at_matrix(b, resolved_config)
        plan, fresh = resolve_plan(
            at_a,
            at_b,
            config=resolved_config,
            cost_model=resolved_model,
            options=opts,
            obs=obs,
        )
        result, report = execute_plan(
            plan,
            at_a,
            at_b,
            config=resolved_config,
            cost_model=resolved_model,
            resilience=opts.resilience,
            obs=obs,
            parallel=True,
            workers=worker_count,
            execution=execution,
            heartbeat_interval=opts.heartbeat_interval_seconds,
            pair_deadline_seconds=opts.pair_deadline_seconds,
            check_fingerprints=False,  # resolve_plan keyed/built on these operands
            checkpoint=opts.checkpoint,
            checkpoint_flush_pairs=opts.checkpoint_flush_pairs,
            cancel=opts.cancel,
            startup_grace_seconds=opts.startup_grace_seconds,
        )
        assert isinstance(report, ParallelReport)
        if fresh:
            fold_plan_phases(report, plan)
    return result, report
