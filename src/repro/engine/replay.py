"""Compiled replay of cached ``A x`` plans.

An iterative solver multiplies one matrix by a fresh vector hundreds of
times.  The plan cache already skips the deciding half of ATMULT on
every product after the first; this module skips the per-call work of
the *doing* half as well.  When an ``n x 1`` plan enters the cache,
:func:`lower_matvec` lowers it once to a flat :class:`ReplayProgram`:
per pair, a list of steps with every structural index precomputed —

* a CSR window of ``A``: window-relative row ids, the gather indices
  into the ``x`` tile and where the window's values sit (a ``slice`` for
  a full-width window, otherwise an index array);
* a dense window of ``A``: the window slices of one 2-D ``@``, the call
  :func:`~repro.kernels.products.dd_dense` makes.

Steps name operand tiles by index and read their payload values on
every run, so the program is a pure function of the plan's structure
key: values may change between runs (in place, or as a different matrix
of the same topology) and each run multiplies the values it is given.
A CSR step sums through :func:`~repro.kernels.spmv.row_sum`, the same
primitive the pair loop's ``spd_dense`` uses on a one-column window, so
a compiled run and the pair loop agree bit for bit.

Only plans that read every operand in its stored kind into dense
targets lower (:func:`lower_matvec` returns ``None`` otherwise); the
executor decides which *runs* may use a program
(:func:`repro.engine.executor.runs_compiled`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import cast

import numpy as np

from .._types import FloatArray, IndexArray
from ..core.atmatrix import ATMatrix
from ..core.tile import Tile
from ..cost.model import CostModel
from ..formats.csr import CSRMatrix
from ..formats.dense import DenseMatrix
from ..kernels.products import csr_window_source
from ..kernels.spmv import row_sum
from ..kinds import StorageKind
from ..observe import Observation
from ..observe import session as observe_session
from .plan import ExecutionPlan, PlannedPair


@dataclass(frozen=True)
class CsrStep:
    """``acc[target] += A_window @ x_window`` for a CSR tile of ``A``."""

    a_index: int
    b_index: int
    b_col: int
    target: slice
    #: window-relative row id of every stored element of the window
    rows: IndexArray
    #: index of every element's ``x`` entry in the ``B`` tile's column
    gather: IndexArray
    #: where the window's elements sit in the ``A`` tile's values
    values: slice | IndexArray
    kernel: str

    def add_into(self, acc: FloatArray, a_tiles: list[Tile], b_tiles: list[Tile]) -> None:
        a = cast(CSRMatrix, a_tiles[self.a_index].data)
        x = cast(DenseMatrix, b_tiles[self.b_index].data).array[:, self.b_col]
        target = self.target
        acc[target] += row_sum(
            self.rows, a.values[self.values], x, self.gather, target.stop - target.start
        )


@dataclass(frozen=True)
class DenseStep:
    """``acc[target] += A_window @ x_window`` for a dense tile of ``A``."""

    a_index: int
    b_index: int
    target: slice
    a_rows: slice
    a_cols: slice
    b_rows: slice
    b_cols: slice
    kernel: str

    def add_into(self, acc: FloatArray, a_tiles: list[Tile], b_tiles: list[Tile]) -> None:
        a = cast(DenseMatrix, a_tiles[self.a_index].data).array
        b = cast(DenseMatrix, b_tiles[self.b_index].data).array
        block = a[self.a_rows, self.a_cols] @ b[self.b_rows, self.b_cols]
        acc[self.target] += block[:, 0]


Step = CsrStep | DenseStep


@dataclass(frozen=True)
class ReplayProgram:
    """A lowered ``n x 1`` plan: per pair, the steps that compute it."""

    pairs: tuple[tuple[PlannedPair, tuple[Step, ...]], ...]
    #: products per kernel family (the plan's kernel histogram)
    kernel_counts: dict[str, int]
    #: the cost model's predicted seconds per kernel family and run
    predicted: dict[str, float]
    #: accumulator cells written per run (what the pair loop counts)
    writes: int
    #: bytes of the precomputed index arrays (plan-cache accounting)
    nbytes: int

    def run(
        self, at_a: ATMatrix, at_b: ATMatrix, obs: Observation | None
    ) -> list[Tile]:
        """The result tiles of one run, in pair order.

        Emits one ``replay`` span and, when traced, per kernel family
        one ``kernel.seconds.<family>`` observation and one cost-accuracy
        sample (the family's summed prediction against its summed
        time), the plan's per-family ``kernel.dispatch.*`` counts and
        its ``accumulator.writes``.
        """
        a_tiles, b_tiles = at_a.tiles, at_b.tiles
        seconds = dict.fromkeys(self.kernel_counts, 0.0) if obs is not None else None
        attrs = (
            {"pairs": len(self.pairs), "products": sum(self.kernel_counts.values())}
            if obs is not None
            else None
        )
        tiles: list[Tile] = []
        with observe_session.tracer_span(obs, "replay", attrs=attrs):
            for pair, steps in self.pairs:
                acc = np.zeros(pair.r1 - pair.r0, dtype=np.float64)
                for step in steps:
                    if seconds is None:
                        step.add_into(acc, a_tiles, b_tiles)
                    else:
                        start = time.perf_counter()
                        step.add_into(acc, a_tiles, b_tiles)
                        seconds[step.kernel] += time.perf_counter() - start
                payload = DenseMatrix(acc.reshape(-1, 1), copy=False)
                if payload.nnz:
                    tiles.append(
                        Tile(
                            pair.r0, pair.c0, pair.r1 - pair.r0, 1,
                            StorageKind.DENSE, payload, numa_node=pair.team_node,
                        )
                    )
        if obs is not None and seconds is not None:
            metrics = obs.metrics
            for name, count in self.kernel_counts.items():
                metrics.histogram(f"kernel.seconds.{name}").observe(seconds[name])
                metrics.counter(f"kernel.dispatch.{name}").inc(count)
                obs.cost_accuracy.record(name, self.predicted[name], seconds[name])
            metrics.counter("accumulator.writes").inc(self.writes)
        return tiles


def lower_matvec(
    plan: ExecutionPlan, at_a: ATMatrix, at_b: ATMatrix, cost_model: CostModel
) -> ReplayProgram | None:
    """Lower ``plan`` to a :class:`ReplayProgram`, or ``None`` when a
    program cannot run it.

    A plan lowers when it is ``n x 1``, every target is dense, and every
    product reads ``A`` in its stored kind and ``B`` as a dense
    one-column window — so a run converts no tile and builds no sparse
    target.  ``at_a``/``at_b`` supply the structure only (their
    fingerprints are the plan's); no value of theirs enters the program.
    ``cost_model`` is the plan's, for the per-family predictions.
    """
    if plan.shape[1] != 1:
        return None
    pairs: list[tuple[PlannedPair, tuple[Step, ...]]] = []
    predicted: dict[str, float] = {}
    writes = nbytes = 0
    for pair in plan.pairs:
        if pair.c_kind is not StorageKind.DENSE:
            return None
        steps: list[Step] = []
        for product in pair.products:
            wa, wb = product.wa, product.wb
            a_tile = at_a.tiles[product.a_index]
            b_tile = at_b.tiles[product.b_index]
            if (
                product.kind_a is not a_tile.kind
                or product.kind_b is not StorageKind.DENSE
                or b_tile.kind is not StorageKind.DENSE
                or wb.cols != 1
            ):
                return None
            predicted[product.kernel] = predicted.get(
                product.kernel, 0.0
            ) + cost_model.product_cost(
                product.kind_a, product.kind_b, pair.c_kind,
                wa.rows, wa.cols, wb.cols,
                a_tile.structural_density, b_tile.structural_density, pair.rho_c,
            )
            writes += wa.rows * wb.cols
            target = slice(product.target_row, product.target_row + wa.rows)
            a_data = a_tile.data
            if isinstance(a_data, CSRMatrix):
                rows, cols, source = csr_window_source(a_data, wa)
                if not len(rows):
                    continue  # adds nothing to the accumulator
                gather = cols + wb.row0
                nbytes += rows.nbytes + gather.nbytes
                if isinstance(source, np.ndarray):
                    nbytes += source.nbytes
                steps.append(
                    CsrStep(
                        product.a_index, product.b_index, wb.col0, target,
                        rows, gather, source, product.kernel,
                    )
                )
            else:
                steps.append(
                    DenseStep(
                        product.a_index, product.b_index, target,
                        slice(wa.row0, wa.row1), slice(wa.col0, wa.col1),
                        slice(wb.row0, wb.row1), slice(wb.col0, wb.col1),
                        product.kernel,
                    )
                )
        pairs.append((pair, tuple(steps)))
    return ReplayProgram(
        pairs=tuple(pairs),
        kernel_counts=plan.kernel_histogram(),
        predicted=predicted,
        writes=writes,
        nbytes=nbytes,
    )


__all__ = ["CsrStep", "DenseStep", "ReplayProgram", "lower_matvec"]
