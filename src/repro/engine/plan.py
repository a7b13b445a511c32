"""ExecutionPlan: the resolved decisions of one ATMULT invocation.

Paper Algorithm 2 interleaves *deciding* (density estimation, the
water-level write threshold, per-tile-product kernel choice) with
*doing* (running the kernels).  :func:`build_plan` performs only the
deciding half and records every resolution into an
:class:`ExecutionPlan`:

* the tile-pair list with geometry, estimated target density, target
  storage kind and worker-team (scheduler) assignment;
* per pair, the tile products with their reference windows and the
  dynamic optimizer's chosen input representations;
* the effective write-density threshold and the water level it came
  from.

The plan is pure metadata — it references operand tiles by *index*, not
by object, so it replays against any operands whose structure
fingerprints match the ones it was built from (values may change; the
topology may not).  :func:`~repro.engine.executor.execute_plan` is the
doing half.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..config import SystemConfig
from ..cost.model import CostModel
from ..core.atmatrix import ATMatrix
from ..core.operands import operand_density_map
from ..density.estimate import estimate_product_density
from ..density.map import DensityMap
from ..density.water_level import WaterLevelResult, water_level_threshold
from ..kernels.window import Window
from ..kinds import StorageKind, kernel_name
from ..observe import Observation
from ..observe import session as observe_session
from .fingerprint import chain_fingerprint, config_fingerprint, structure_fingerprint
from .options import MultiplyOptions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.chain import ChainPlan
    from ..core.operands import MatrixOperand

_span = observe_session.tracer_span


@dataclass(frozen=True)
class PlannedProduct:
    """One tile product with its resolved kernel decision."""

    #: indices of the participating tiles in the operands' tile lists
    a_index: int
    b_index: int
    #: reference windows into the A and B tile payloads
    wa: Window
    wb: Window
    #: write offset inside the pair's target accumulator
    target_row: int
    target_col: int
    #: input representations the dynamic optimizer chose
    kind_a: StorageKind
    kind_b: StorageKind
    #: kernel the decision dispatches to (``kernel_name(kind_a, kind_b, c)``)
    kernel: str


@dataclass(frozen=True)
class PlannedPair:
    """One tile-row/tile-column pair of the result grid."""

    ti: int
    tj: int
    r0: int
    r1: int
    c0: int
    c1: int
    #: estimated density of the target region (0.0 without estimation)
    rho_c: float
    #: target representation under the plan's write threshold
    c_kind: StorageKind
    #: worker-team / NUMA-node assignment (paper's scheduler decision)
    team_node: int
    #: indices of every A / B tile overlapping this pair's strips
    a_strip: tuple[int, ...]
    b_strip: tuple[int, ...]
    products: tuple[PlannedProduct, ...]


@dataclass
class ExecutionPlan:
    """Replayable decisions for ``C' = C + A x B`` over fixed topologies.

    Replay requires ``structure_fingerprint(a) == a_fingerprint`` and
    likewise for B (checked by the executor); the ``setup_key`` captures
    every non-operand planning input so a
    :class:`~repro.engine.cache.PlanCache` never serves a plan across
    configuration changes.
    """

    a_fingerprint: str
    b_fingerprint: str
    setup_key: str
    shape: tuple[int, int]
    row_cuts: list[int]
    col_cuts: list[int]
    write_threshold: float
    water_level: WaterLevelResult | None
    estimate: DensityMap | None
    pairs: tuple[PlannedPair, ...]
    use_estimation: bool = True
    dynamic_conversion: bool = True
    memory_limit_bytes: float | None = None
    #: planning-phase durations, folded into the first report
    estimate_seconds: float = 0.0
    optimize_seconds: float = 0.0
    decisions: int = 0
    _memory_bytes: int = field(default=0, repr=False)

    @property
    def num_products(self) -> int:
        return sum(len(pair.products) for pair in self.pairs)

    @property
    def fingerprint(self) -> str:
        """Stable identity of this plan across processes.

        Digest of both operand structure fingerprints and the setup
        key — exactly the inputs replay validation checks — so a
        checkpoint journal written under one plan is recognized by any
        later process that rebuilds the same plan.
        """
        digest = hashlib.blake2b(digest_size=16)
        for part in (self.a_fingerprint, self.b_fingerprint, self.setup_key):
            digest.update(part.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint (plan-cache byte accounting)."""
        if self._memory_bytes:
            return self._memory_bytes
        total = 512 + 64 * (len(self.row_cuts) + len(self.col_cuts))
        total += sum(
            256 + 24 * (len(pair.a_strip) + len(pair.b_strip))
            + 200 * len(pair.products)
            for pair in self.pairs
        )
        if self.estimate is not None:
            total += int(self.estimate.grid.nbytes) + 128
        self._memory_bytes = total
        return total

    def describe(self) -> dict:
        """JSON-friendly summary (CLI / debugging)."""
        return {
            "shape": list(self.shape),
            "pairs": len(self.pairs),
            "products": self.num_products,
            "write_threshold": self.write_threshold,
            "dense_targets": sum(
                1 for pair in self.pairs if pair.c_kind is StorageKind.DENSE
            ),
            "use_estimation": self.use_estimation,
            "dynamic_conversion": self.dynamic_conversion,
            "memory_bytes": self.memory_bytes(),
            "kernels": self.kernel_histogram(),
        }

    def kernel_histogram(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for pair in self.pairs:
            for product in pair.products:
                counts[product.kernel] = counts.get(product.kernel, 0) + 1
        return counts


class _DecisionMemo:
    """Quantized kernel-decision memo (mirrors the legacy optimizer)."""

    def __init__(self, cost_model: CostModel, enabled: bool) -> None:
        self.cost_model = cost_model
        self.enabled = enabled
        self._cache: dict[tuple, tuple[StorageKind, StorageKind]] = {}

    def decide(
        self,
        kind_a: StorageKind,
        kind_b: StorageKind,
        c_kind: StorageKind,
        m: int,
        k: int,
        n: int,
        rho_a: float,
        rho_b: float,
        rho_c: float,
    ) -> tuple[StorageKind, StorageKind]:
        if not self.enabled:
            return kind_a, kind_b
        # Quantized memoization: densities are bucketed to 2 significant
        # decimals — far finer than any cost-crossover the model exhibits —
        # so repeated products over similar tiles skip the 4-way search.
        key = (
            kind_a, kind_b, c_kind, m, k, n,
            round(rho_a, 2), round(rho_b, 2), round(rho_c, 2),
        )
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        chosen_a, chosen_b, _cost = self.cost_model.cheapest_input_kinds(
            kind_a, kind_b, c_kind, m, k, n, rho_a, rho_b, rho_c
        )
        self._cache[key] = (chosen_a, chosen_b)
        return chosen_a, chosen_b


def build_plan(
    at_a: ATMatrix,
    at_b: ATMatrix,
    *,
    config: SystemConfig,
    cost_model: CostModel,
    memory_limit_bytes: float | None = None,
    dynamic_conversion: bool = True,
    use_estimation: bool = True,
    obs: Observation | None = None,
) -> ExecutionPlan:
    """Resolve every decision of one ATMULT invocation into a plan.

    Runs the paper's phases 1-2 (density estimation, water-level write
    threshold) and the per-product dynamic-optimizer decisions of phase
    3, but dispatches no kernel.  Span and metric emission matches the
    legacy monolith (``estimate``, ``water_level``, one ``optimize``
    span per product), so a traced uncached multiply looks identical to
    the pre-engine trace.
    """
    # -- phase 1: density estimation (Alg. 2 line 2) ----------------------
    estimate: DensityMap | None = None
    estimate_seconds = 0.0
    if use_estimation:
        start = time.perf_counter()
        with _span(obs, "estimate"):
            # Structural maps: the plan is cached under its structure
            # fingerprints, so its content may only depend on what those
            # fingerprints capture — not on the exact values it happened
            # to be built against.
            map_a = operand_density_map(at_a, config, structural=True)
            map_b = operand_density_map(at_b, config, structural=True)
            estimate = estimate_product_density(map_a, map_b)
        estimate_seconds = time.perf_counter() - start

    # -- phase 2: write threshold via the water level (line 3) ------------
    optimize_start = time.perf_counter()
    water_level: WaterLevelResult | None = None
    with _span(obs, "water_level"):
        if estimate is not None:
            water_level = water_level_threshold(estimate, memory_limit_bytes, config)
            write_threshold = max(cost_model.write_threshold, water_level.threshold)
        else:
            write_threshold = float("inf")  # no estimation: sparse targets only
    if obs is not None:
        obs.metrics.gauge("water_level.threshold").set(
            write_threshold if np.isfinite(write_threshold) else -1.0
        )
        if memory_limit_bytes is not None:
            obs.metrics.gauge("memory.limit_bytes").set(memory_limit_bytes)

    # -- phase 3 (deciding half): pair and product resolution --------------
    row_cuts = at_a.row_cuts()
    col_cuts = at_b.col_cuts()
    # Tiles are keyed by their anchor coordinates — unique within an
    # AT Matrix and stable across processes, unlike object identity.
    a_ids = {
        (tile.row0, tile.col0): index for index, tile in enumerate(at_a.tiles)
    }
    b_ids = {
        (tile.row0, tile.col0): index for index, tile in enumerate(at_b.tiles)
    }
    memo = _DecisionMemo(cost_model, dynamic_conversion)
    decisions = 0
    pairs: list[PlannedPair] = []
    for ti in range(len(row_cuts) - 1):
        r0, r1 = row_cuts[ti], row_cuts[ti + 1]
        a_strip = at_a.tiles_overlapping(r0, r1, 0, at_a.cols)
        team_node = a_strip[0].numa_node if a_strip else 0
        for tj in range(len(col_cuts) - 1):
            c0, c1 = col_cuts[tj], col_cuts[tj + 1]
            b_strip = at_b.tiles_overlapping(0, at_b.rows, c0, c1)
            rho_c = (
                estimate.region_density(r0, r1, c0, c1)
                if estimate is not None
                else 0.0
            )
            c_kind = (
                StorageKind.SPARSE if rho_c < write_threshold else StorageKind.DENSE
            )
            products: list[PlannedProduct] = []
            for a_tile in a_strip:
                for b_tile in b_strip:
                    k0 = max(a_tile.col0, b_tile.row0)
                    k1 = min(a_tile.col1, b_tile.row1)
                    if k0 >= k1:
                        continue
                    wa = Window(
                        max(r0, a_tile.row0) - a_tile.row0,
                        min(r1, a_tile.row1) - a_tile.row0,
                        k0 - a_tile.col0,
                        k1 - a_tile.col0,
                    )
                    wb = Window(
                        k0 - b_tile.row0,
                        k1 - b_tile.row0,
                        max(c0, b_tile.col0) - b_tile.col0,
                        min(c1, b_tile.col1) - b_tile.col0,
                    )
                    decision_start = time.perf_counter()
                    with _span(obs, "optimize", "optimize"):
                        kind_a, kind_b = memo.decide(
                            a_tile.kind, b_tile.kind, c_kind,
                            wa.rows, wa.cols, wb.cols,
                            a_tile.structural_density,
                            b_tile.structural_density,
                            rho_c,
                        )
                    decisions += 1
                    if obs is not None:
                        obs.metrics.histogram("optimizer.decision_seconds").observe(
                            time.perf_counter() - decision_start
                        )
                    products.append(
                        PlannedProduct(
                            a_index=a_ids[a_tile.row0, a_tile.col0],
                            b_index=b_ids[b_tile.row0, b_tile.col0],
                            wa=wa,
                            wb=wb,
                            target_row=max(r0, a_tile.row0) - r0,
                            target_col=max(c0, b_tile.col0) - c0,
                            kind_a=kind_a,
                            kind_b=kind_b,
                            kernel=kernel_name(kind_a, kind_b, c_kind),
                        )
                    )
            pairs.append(
                PlannedPair(
                    ti=ti, tj=tj, r0=r0, r1=r1, c0=c0, c1=c1,
                    rho_c=rho_c, c_kind=c_kind, team_node=team_node,
                    a_strip=tuple(a_ids[t.row0, t.col0] for t in a_strip),
                    b_strip=tuple(b_ids[t.row0, t.col0] for t in b_strip),
                    products=tuple(products),
                )
            )
    optimize_seconds = time.perf_counter() - optimize_start

    if obs is not None:
        obs.metrics.counter("plan.builds").inc()
    return ExecutionPlan(
        a_fingerprint=structure_fingerprint(at_a),
        b_fingerprint=structure_fingerprint(at_b),
        setup_key=config_fingerprint(
            config,
            cost_model,
            memory_limit_bytes=memory_limit_bytes,
            dynamic_conversion=dynamic_conversion,
            use_estimation=use_estimation,
        ),
        shape=(at_a.rows, at_b.cols),
        row_cuts=row_cuts,
        col_cuts=col_cuts,
        write_threshold=write_threshold,
        water_level=water_level,
        estimate=estimate,
        pairs=tuple(pairs),
        use_estimation=use_estimation,
        dynamic_conversion=dynamic_conversion,
        memory_limit_bytes=memory_limit_bytes,
        estimate_seconds=estimate_seconds,
        optimize_seconds=optimize_seconds,
        decisions=decisions,
    )


@dataclass(frozen=True)
class HopSource:
    """Where one operand side of a fused hop comes from.

    ``kind`` is ``"leaf"`` (``index`` into the chain's operand list) or
    ``"hop"`` (``index`` of an earlier :class:`PlannedHop` whose output
    feeds this side).
    """

    kind: str
    index: int


@dataclass(frozen=True)
class PlannedHop:
    """One multiplication of a fused chain, with its replay metadata.

    ``(i, k, j)`` is the :class:`~repro.core.chain.ChainPlan` triple
    (``result(i..j) = result(i..k) @ result(k+1..j)``); ``plan`` is the
    hop's :class:`ExecutionPlan` built against the operand topologies the
    cold run materialized.  ``tile_of_pair`` maps each planned pair to
    the index of the output tile it yields (``None`` for an all-zero
    pair), and ``expected_tiles`` records each output tile's geometry,
    storage kind and payload fingerprint — the fused executor validates
    every produced intermediate tile against these, because intermediate
    topology is a function of operand *values* (cancellation, density
    quantization), not just of the leaf structure the chain is keyed on.
    """

    i: int
    k: int
    j: int
    a_source: HopSource
    b_source: HopSource
    plan: ExecutionPlan
    out_fingerprint: str
    tile_of_pair: tuple[int | None, ...]
    expected_tiles: tuple[tuple[int, int, int, int, str, str], ...]


@dataclass
class FusedChainPlan:
    """A whole matrix chain resolved into one replayable plan.

    The chain-level member of the :class:`ExecutionPlan` family: the
    optimized parenthesization (``chain``), one :class:`PlannedHop` per
    multiplication, and a static ``schedule`` of ``(hop, pair)`` steps
    that interleaves tile-pair execution *across* hops — the C-tiles a
    worker team just produced for hop ``t`` are consumed as that team's
    A-tiles for hop ``t + 1`` while still resident, instead of running
    the hops barrier-to-barrier.  ``frees[step]`` lists the hops whose
    intermediate output is dead once that step completes, so the fused
    executor can release it eagerly.

    Cached in a :class:`~repro.engine.cache.PlanCache` under a
    :class:`~repro.engine.cache.ChainKey` (every leaf fingerprint plus
    the setup key), so repeated chain runs — and every iteration of a
    solver loop — replay the whole chain from one cache hit.
    """

    operand_fingerprints: tuple[str, ...]
    setup_key: str
    chain: ChainPlan
    hops: tuple[PlannedHop, ...]
    schedule: tuple[tuple[int, int], ...]
    frees: tuple[tuple[int, ...], ...]
    shape: tuple[int, int]
    _memory_bytes: int = field(default=0, repr=False)

    @property
    def fingerprint(self) -> str:
        """Stable chain identity: every leaf fingerprint plus the setup."""
        return chain_fingerprint(self.operand_fingerprints, self.setup_key)

    @property
    def num_hops(self) -> int:
        return len(self.hops)

    @property
    def num_pairs(self) -> int:
        return sum(len(hop.plan.pairs) for hop in self.hops)

    @property
    def num_products(self) -> int:
        return sum(hop.plan.num_products for hop in self.hops)

    def memory_bytes(self) -> int:
        """Approximate footprint (plan-cache byte accounting)."""
        if self._memory_bytes:
            return self._memory_bytes
        total = 512 + 16 * len(self.schedule)
        total += sum(
            hop.plan.memory_bytes()
            + 64 * len(hop.expected_tiles)
            + 8 * len(hop.tile_of_pair)
            for hop in self.hops
        )
        self._memory_bytes = total
        return total

    def describe(self) -> dict:
        """JSON-friendly summary (CLI / debugging)."""
        return {
            "shape": list(self.shape),
            "hops": self.num_hops,
            "pairs": self.num_pairs,
            "products": self.num_products,
            "schedule_steps": len(self.schedule),
            "parenthesization": self.chain.parenthesization(),
            "memory_bytes": self.memory_bytes(),
        }


def fused_chain_schedule(
    hops: tuple[PlannedHop, ...],
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """The interleaved ``(hop, pair)`` schedule and per-step free lists.

    Hops arrive in :class:`~repro.core.chain.ChainPlan` execution order,
    which is topological (every hop's intermediate sources precede it).
    A consumer pair is *ready* once each intermediate source has
    completed every pair that produces a tile in the consumer's A/B
    strip; within one hop, pairs run in plan order, so readiness reduces
    to a completed-pair-count threshold per source hop.  The greedy walk
    always advances the most-downstream ready pair, which is exactly the
    "consume hop ``t``'s fresh C-tiles as hop ``t + 1``'s A-tiles"
    interleaving; the earliest unfinished hop is always ready, so the
    walk cannot stall.  ``frees[step]`` holds the hop indices whose
    output is fully consumed once that step finishes (the root is the
    chain result and is never freed).
    """
    n = len(hops)
    # Per hop, per pair: (source hop, completed-pair count required).
    needs: list[list[tuple[tuple[int, int], ...]]] = []
    for hop in hops:
        producer_of_tile: dict[int, dict[int, int]] = {}
        for source in (hop.a_source, hop.b_source):
            if source.kind != "hop":
                continue
            producer_of_tile[source.index] = {
                tile_index: pair_index
                for pair_index, tile_index in enumerate(
                    hops[source.index].tile_of_pair
                )
                if tile_index is not None
            }
        hop_needs: list[tuple[tuple[int, int], ...]] = []
        for pair in hop.plan.pairs:
            pair_needs: list[tuple[int, int]] = []
            for source, strip in (
                (hop.a_source, pair.a_strip),
                (hop.b_source, pair.b_strip),
            ):
                if source.kind != "hop" or not strip:
                    continue
                producers = producer_of_tile[source.index]
                pair_needs.append(
                    (source.index, max(producers[t] for t in strip) + 1)
                )
            hop_needs.append(tuple(pair_needs))
        needs.append(hop_needs)

    next_pair = [0] * n
    completed = [0] * n
    remaining = sum(len(hop.plan.pairs) for hop in hops)
    schedule: list[tuple[int, int]] = []
    while remaining:
        chosen = None
        for h in range(n - 1, -1, -1):
            p = next_pair[h]
            if p >= len(hops[h].plan.pairs):
                continue
            if all(completed[g] >= count for g, count in needs[h][p]):
                chosen = h
                break
        assert chosen is not None  # the earliest unfinished hop is ready
        schedule.append((chosen, next_pair[chosen]))
        next_pair[chosen] += 1
        completed[chosen] += 1
        remaining -= 1

    # Free each intermediate after its consumer's last scheduled pair.
    # A consumer with zero pairs (a cancelled-to-empty product) never
    # touches its sources, so they simply stay resident until the end.
    last_step = {h: step for step, (h, _) in enumerate(schedule)}
    frees: list[list[int]] = [[] for _ in schedule]
    for h, hop in enumerate(hops):
        step = last_step.get(h)
        if step is None:
            continue
        for source in (hop.a_source, hop.b_source):
            if source.kind == "hop":
                frees[step].append(source.index)
    return tuple(schedule), tuple(tuple(sorted(dead)) for dead in frees)


def build_chain_plan(
    operands: list[MatrixOperand],
    *,
    options: MultiplyOptions | None = None,
) -> FusedChainPlan:
    """Resolve a whole matrix chain into one :class:`FusedChainPlan`.

    Plans the parenthesization with the density-propagating chain DP,
    then resolves every hop into an :class:`ExecutionPlan` and builds the
    cross-hop interleaved schedule.  Because each hop is planned against
    the *materialized* topology of its intermediate operands, this runs
    the chain's kernels once (a cold run); the point of the returned
    object is replay — through ``options.plan_cache`` every later run of
    the same chain (and every solver iteration) is a single cache hit.
    """
    from .api import run_chain

    opts = options if options is not None else MultiplyOptions()
    with observe_session.resolve(opts.observer) as obs:
        _result, _report, fused = run_chain(operands, options=opts, obs=obs)
    return fused
