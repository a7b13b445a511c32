"""Per-layer readings shared by the workloads.

Two kinds: deltas of the counters the program already exports through
an ``Observation`` (kernels, accumulator, supervisor), and probes — one
timed call of a layer's public function on the workload's own operands,
run once after the traced passes.  Nothing here adds a span or a
counter inside the program.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro import MultiplyOptions, Session, SystemConfig
from repro.core.operands import operand_density_map
from repro.density import estimate_product_density, water_level_threshold
from repro.engine.api import execute
from repro.formats import load_at_matrix, save_at_matrix
from repro.ioutil import crc32c
from repro.kinds import StorageKind
from repro.observe import Observation
from repro.resilience import CheckpointStore

from harness import OUT, Spans

#: The eight tile-product kernel families of the kernel registry.
KERNEL_FAMILIES = tuple(
    f"{a}{b}{c}_gemm" for a in ("sp", "d") for b in ("sp", "d") for c in ("sp", "d")
)
#: Bytes hashed by the checksum probe (a prefix of a result's bytes).
CRC_PROBE_BYTES = 1 << 20


# -- program counters -------------------------------------------------------------


def snapshot(obs: Observation) -> dict[str, float]:
    """Flat ``{name: value}`` view: counters by value, histograms by sum."""
    flat: dict[str, float] = {}
    for name, payload in obs.metrics.as_dict().items():
        if payload.get("type") == "counter":
            flat[name] = float(payload["value"])
        elif payload.get("type") == "histogram":
            flat[name] = float(payload["sum"])
    return flat


class CounterDelta:
    """What the program's counters gained since construction."""

    def __init__(self, obs: Observation) -> None:
        self.obs = obs
        self.before = snapshot(obs)

    def done(self) -> dict[str, float]:
        after = snapshot(self.obs)
        return {name: value - self.before.get(name, 0.0) for name, value in after.items()}


def kernel_seconds(delta: dict[str, float]) -> float:
    return sum(delta.get(f"kernel.seconds.{family}", 0.0) for family in KERNEL_FAMILIES)


def add_into(total: dict[str, float], delta: dict[str, float]) -> None:
    for name, value in delta.items():
        total[name] += value


def kernel_layer_metrics(totals: dict[str, float], passes: int) -> dict[str, float]:
    """``kernels.<family>.s`` / ``.calls`` and accumulator writes, per pass."""
    out: dict[str, float] = {}
    for family in KERNEL_FAMILIES:
        out[f"kernels.{family}.s"] = totals[f"kernel.seconds.{family}"] / passes
        out[f"kernels.{family}.calls"] = totals[f"kernel.dispatch.{family}"] / passes
    out["kernels.accumulator_writes"] = totals["accumulator.writes"] / passes
    return out


def tile_metrics(matrices: list[Any]) -> dict[str, float]:
    tiles = sum(m.num_tiles() for m in matrices)
    dense = sum(m.num_tiles(StorageKind.DENSE) for m in matrices)
    return {
        "core.tiles": float(tiles),
        "core.dense_tile_share": dense / tiles if tiles else 0.0,
    }


# -- probes -------------------------------------------------------------------------


def planning_probe(
    spans: Spans,
    config: SystemConfig,
    matrices: list[Any],
    memory_limit_bytes: float | None = None,
) -> dict[str, float]:
    """Density estimation, water level and a cold ``Session.plan`` for
    every ``A x A`` of the workload, summed."""
    estimate_s = water_s = plan_s = 0.0
    for at in matrices:
        dmap = operand_density_map(at, config, structural=True)
        with spans.span("density.estimate") as record:
            estimate = estimate_product_density(dmap, dmap)
        estimate_s += record.seconds
        with spans.span("density.water_level") as record:
            water_level_threshold(estimate, memory_limit_bytes, config)
        water_s += record.seconds
        session = Session(
            config=config, options=MultiplyOptions(memory_limit_bytes=memory_limit_bytes)
        )
        with spans.span("engine.plan_cold") as record:
            session.plan(at, at)
        plan_s += record.seconds
    return {
        "density.estimate_s": estimate_s,
        "density.water_level_s": water_s,
        "engine.plan_s": plan_s,
    }


def archive_probe(spans: Spans, matrices: list[Any]) -> dict[str, float]:
    """``formats.save_s`` / ``formats.load_s`` over ``matrices`` (v2 archives)."""
    directory = Path(tempfile.mkdtemp(prefix="archive-", dir=OUT / "tmp"))
    save_s = load_s = 0.0
    try:
        for position, matrix in enumerate(matrices):
            path = directory / f"m{position}.npz"
            with spans.span("formats.save") as record:
                save_at_matrix(matrix, path)
            save_s += record.seconds
            with spans.span("formats.load") as record:
                loaded = load_at_matrix(path)
            load_s += record.seconds
            if loaded.shape != matrix.shape or loaded.nnz != matrix.nnz:
                raise AssertionError("archive round trip changed the matrix")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"formats.save_s": save_s, "formats.load_s": load_s}


def crc_probe(spans: Spans, values: np.ndarray) -> dict[str, float]:
    """``ioutil.crc32c_mb_per_s`` on a prefix of a result's row-major bytes."""
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()[:CRC_PROBE_BYTES]
    with spans.span("ioutil.crc32c") as record:
        crc32c(data)
    return {"ioutil.crc32c_mb_per_s": len(data) / 1e6 / max(record.seconds, 1e-9)}


def checkpoint_probe(spans: Spans, session: Session, at: Any) -> dict[str, float]:
    """The same warm plan executed without and with a ``CheckpointStore``."""
    plan = session.plan(at, at)
    with spans.span("engine.execute_plain") as plain:
        execute(plan, at, at, options=session.options)
    directory = Path(tempfile.mkdtemp(prefix="ckpt-", dir=OUT / "tmp"))
    try:
        store = CheckpointStore(directory)
        with spans.span("resilience.checkpointed") as checkpointed:
            execute(plan, at, at, options=session.options.replace(checkpoint=store))
        written = sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "resilience.checkpoint_s": max(0.0, checkpointed.seconds - plain.seconds),
        "resilience.checkpoint_bytes": float(written),
    }
