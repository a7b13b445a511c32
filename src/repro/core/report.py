"""The shared, instrumentation-backed execution report.

The paper's evaluation (Figs. 8b, 9c-d, 10) attributes runtime to
estimation, optimization, conversions and individual kernels.  Before
this module, :class:`MultiplyReport` and :class:`ParallelReport` grew
those breakdowns independently and diverged; now both extend one
:class:`BaseReport` with a canonical shape:

* ``phase_seconds`` — named phase durations (``"estimate"``,
  ``"optimize"``, ``"multiply"``); ``total_seconds`` is their sum;
* ``kernel_counts`` — per-kernel dispatch counts;
* ``conversions`` — just-in-time representation conversions;
* ``failure`` — the resilience accounting
  (:class:`~repro.resilience.report.FailureReport`);
* ``observation`` — the attached
  :class:`~repro.observe.Observation` when the run was traced, else
  ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..density.water_level import WaterLevelResult
from ..observe import Observation
from ..resilience.report import FailureReport
from ..topology.trace import TaskRecord

#: Canonical phase names shared by the sequential and parallel operators.
PHASE_ESTIMATE = "estimate"
PHASE_OPTIMIZE = "optimize"
PHASE_MULTIPLY = "multiply"


@dataclass
class BaseReport:
    """Common shape of every execution report the library returns."""

    #: per-phase wall seconds, keyed by canonical phase name
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: dispatch count per kernel name (e.g. ``"spspd_gemm"``)
    kernel_counts: dict[str, int] = field(default_factory=dict)
    #: just-in-time tile representation conversions performed
    conversions: int = 0
    #: pairs actually executed this run (excludes checkpoint-resumed pairs)
    pairs_executed: int = 0
    #: checkpoint journal flushes performed during the run
    checkpoint_flushes: int = 0
    #: structured resilience accounting (always present; empty on clean runs)
    failure: FailureReport = field(default_factory=FailureReport)
    #: the observation session the run recorded into (``None`` untraced)
    observation: Observation | None = None

    # -- canonical accessors ---------------------------------------------
    @property
    def total_seconds(self) -> float:
        """Sum of all phase durations."""
        return sum(self.phase_seconds.values())

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the named phase.

        Only the orchestrating thread writes phases; worker threads
        report their timings through ``busy_hook``/``merge_outcome``
        under the executor's ``busy_lock``.
        """
        self.phase_seconds[name] = (  # repro-lint: disable=RPR012
            self.phase_seconds.get(name, 0.0) + seconds
        )

    def phase(self, name: str) -> float:
        """Duration of one phase (0.0 when the phase never ran)."""
        return self.phase_seconds.get(name, 0.0)

    def phase_fraction(self, name: str) -> float:
        """Share of ``total_seconds`` spent in the named phase."""
        total = self.total_seconds
        return self.phase(name) / total if total else 0.0

    def count_kernel(self, name: str, count: int = 1) -> None:
        # Threaded pair execution merges its per-attempt kernel counts
        # through run_pair_captured under the executor's busy_lock; the
        # sequential/supervisor paths are single-writer.
        self.kernel_counts[name] = (  # repro-lint: disable=RPR012
            self.kernel_counts.get(name, 0) + count
        )

    def merge_kernel_counts(self, counts: dict[str, int]) -> None:
        for name, count in counts.items():
            self.count_kernel(name, count)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable summary (subclasses extend this)."""
        return {
            "phase_seconds": dict(self.phase_seconds),
            "total_seconds": self.total_seconds,
            "kernel_counts": dict(self.kernel_counts),
            "conversions": self.conversions,
            "pairs_executed": self.pairs_executed,
            "pairs_resumed": self.failure.pairs_resumed,
            "checkpoint_flushes": self.checkpoint_flushes,
            "failure": self.failure.summary(),
            "observed": self.observation is not None,
        }

    @property
    def estimate_fraction(self) -> float:
        """Share of total runtime spent estimating densities."""
        return self.phase_fraction(PHASE_ESTIMATE)

    @property
    def optimize_fraction(self) -> float:
        """Share of total runtime spent optimizing (incl. conversions)."""
        return self.phase_fraction(PHASE_OPTIMIZE)


@dataclass
class MultiplyReport(BaseReport):
    """Report of one sequential ATMULT run.

    The three canonical phases mirror the paper's runtime breakdown
    (Figs. 8b, 9c, 9d): density estimation, dynamic optimization
    (decisions, water level and just-in-time conversions), and the tile
    multiplications proper.
    """

    write_threshold: float = 0.0
    water_level: WaterLevelResult | None = None
    tasks: list[TaskRecord] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        payload = super().as_dict()
        payload["write_threshold"] = self.write_threshold
        payload["tasks"] = len(self.tasks)
        return payload


@dataclass
class ParallelReport(BaseReport):
    """Report of one parallel ATMULT run.

    ``phase_seconds["multiply"]`` holds the pair-loop wall time;
    per-worker busy time additionally
    lands in ``worker_busy_seconds`` for the efficiency metric.
    """

    pairs: int = 0
    products: int = 0
    workers: int = 1
    #: busy seconds accumulated per worker thread
    worker_busy_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def parallel_efficiency(self) -> float:
        """Total busy time over (workers x pair-loop wall time)."""
        wall = self.phase(PHASE_MULTIPLY)
        if not self.worker_busy_seconds or wall == 0.0:
            return 1.0
        busy = sum(self.worker_busy_seconds.values())
        return busy / (self.workers * wall)

    def as_dict(self) -> dict[str, Any]:
        payload = super().as_dict()
        payload["pairs"] = self.pairs
        payload["products"] = self.products
        payload["workers"] = self.workers
        payload["worker_busy_seconds"] = dict(self.worker_busy_seconds)
        payload["parallel_efficiency"] = self.parallel_efficiency
        return payload
