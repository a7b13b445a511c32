"""The multiply configuration: :class:`MultiplyOptions`.

Every multiply entry point — `atmult`, `parallel_atmult`,
`multiply_chain`, the engine's `plan`/`execute`, the solvers and
:class:`~repro.engine.session.Session` — takes its configuration as one
frozen value object, ``options=MultiplyOptions(...)``; there are no
per-field keywords on the entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from ..config import DEFAULT_CONFIG, SystemConfig
from ..cost.model import CostModel
from ..observe import Observation
from ..resilience.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.cancel import CancelToken
    from ..resilience.checkpoint import CheckpointStore
    from .cache import PlanCache


@dataclass(frozen=True)
class MultiplyOptions:
    """Everything a multiplication needs besides its operands.

    Parameters
    ----------
    config:
        System configuration; ``None`` means the library default.
    cost_model:
        Cost oracle for planning and kernel selection; ``None`` creates
        a default model.
    memory_limit_bytes:
        Memory SLA for the output matrix (water-level method).
    dynamic_conversion:
        Enable just-in-time input conversions (ablation step 6).
    use_estimation:
        Enable density estimation and dense target tiles (ablation
        step 3+).
    resilience:
        A :class:`~repro.resilience.RetryPolicy`, or ``None`` for
        fail-fast execution.
    observer:
        An :class:`~repro.observe.Observation` activated for the call.
    workers:
        Worker-team count override for parallel execution (``None``
        uses the topology's socket count).
    execution:
        Parallel backend: ``"threads"`` (default — one worker thread
        per simulated socket) or ``"processes"`` (the supervised
        multiprocess shard executor, see docs/RESILIENCE.md).  Ignored
        by the sequential entry points.  When ``multiprocessing`` is
        unavailable on the platform, ``"processes"`` falls back to
        threads with a :class:`RuntimeWarning`.
    heartbeat_interval_seconds:
        Cadence of worker liveness heartbeats under
        ``execution="processes"``; a worker whose heartbeat goes stale
        is killed and its pairs are reassigned.
    pair_deadline_seconds:
        Per-pair dispatch deadline under ``execution="processes"``:
        a worker spending longer than this on one pair is declared hung
        (``None`` disables the deadline).  Distinct from the retry
        layer's ``task_deadline_seconds``, which measures a single
        attempt inside a live worker.
    plan_cache:
        A :class:`~repro.engine.cache.PlanCache`; when set, planning is
        skipped whenever a cached :class:`~repro.engine.plan.ExecutionPlan`
        matches the operand topologies and this configuration.
    checkpoint:
        A :class:`~repro.resilience.checkpoint.CheckpointStore`; when
        set, every completed tile-pair is journaled to its spill
        directory and pairs already present in the journal are restored
        instead of re-executed (crash-safe resume).
    checkpoint_flush_pairs:
        Flush the checkpoint journal after this many completed pairs
        (default 1: flush every pair — maximally durable).  Larger
        values trade recovery granularity for fewer fsyncs.
    cancel:
        A :class:`~repro.resilience.CancelToken` polled at tile-pair
        boundaries; when it trips (explicit cancel or deadline expiry)
        the run flushes its checkpoint and unwinds with
        :class:`~repro.errors.OperationCancelledError` /
        :class:`~repro.errors.DeadlineExceededError`.
    startup_grace_seconds:
        Under ``execution="processes"``, how long a freshly spawned
        worker may take to post its first heartbeat before it is
        declared stale (covers interpreter + import cost on cold
        machines).
    """

    config: SystemConfig | None = None
    cost_model: CostModel | None = None
    memory_limit_bytes: float | None = None
    dynamic_conversion: bool = True
    use_estimation: bool = True
    resilience: RetryPolicy | None = None
    observer: Observation | None = None
    workers: int | None = None
    execution: str = "threads"
    heartbeat_interval_seconds: float = 0.25
    pair_deadline_seconds: float | None = None
    plan_cache: PlanCache | None = field(default=None, compare=False)
    checkpoint: CheckpointStore | None = field(default=None, compare=False)
    checkpoint_flush_pairs: int = 1
    cancel: CancelToken | None = field(default=None, compare=False)
    startup_grace_seconds: float = 10.0

    def replace(self, **changes: Any) -> MultiplyOptions:
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def resolved_config(self) -> SystemConfig:
        return self.config or DEFAULT_CONFIG

    def resolved_cost_model(self) -> CostModel:
        return self.cost_model or CostModel()

