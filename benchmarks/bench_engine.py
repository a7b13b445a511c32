#!/usr/bin/env python
"""Plan-cache benchmark: iterative solves with and without plan reuse.

The engine redesign split ATMULT into ``build_plan`` / ``execute_plan``
so iterative workloads can pay for density estimation, the water-level
threshold and the per-product kernel decisions **once** and replay the
cached :class:`~repro.engine.plan.ExecutionPlan` on every following
product.  This bench quantifies that: a 20-iteration conjugate-gradient
solve over a 2048 x 2048 RMAT-derived SPD system, run

* through a :class:`repro.Session` (plan cached after iteration 1), and
* through plain ``options=`` with **no** plan cache (every matvec
  re-plans from scratch — the pre-redesign cost profile).

Both paths execute the identical kernels; the difference is planning
overhead only.  Results land in ``BENCH_engine.json`` and the process
exits non-zero when the planned path is not at least ``--min-speedup``
(default 1.5) times faster — CI runs this as a regression gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--output PATH]
        [--min-speedup X] [--repeats N]

Standalone on purpose: the pytest-benchmark suite next door regenerates
paper tables, while this script is a pass/fail gate cheap enough for CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import (
    COOMatrix,
    MultiplyOptions,
    Session,
    SystemConfig,
    build_at_matrix,
    conjugate_gradient,
)
from repro.generate import rmat_matrix

N = 2048
NNZ_TARGET = 8 * N
RMAT_PROBS = (0.45, 0.22, 0.22, 0.11)
ITERATIONS = 20
#: Small atomic blocks make the per-product decision count (and so the
#: planning share of each matvec) representative of big-matrix runs.
CONFIG = SystemConfig(llc_bytes=384 * 1024, b_atomic=32)


def build_system() -> tuple[object, np.ndarray, int]:
    """A strictly diagonally dominant SPD system from an RMAT graph."""
    graph = rmat_matrix(N, NNZ_TARGET, *RMAT_PROBS, seed=7)
    raw = graph.to_dense()
    symmetric = (raw + raw.T) / 2.0
    np.fill_diagonal(symmetric, np.abs(symmetric).sum(axis=1) + 1.0)
    matrix = build_at_matrix(COOMatrix.from_dense(symmetric), CONFIG)
    rhs = np.ones(N)
    return matrix, rhs, int(np.count_nonzero(symmetric))


def run_planned(matrix, rhs) -> tuple[float, dict]:
    """One 20-iteration CG solve through a fresh Session (plan cached)."""
    session = Session(config=CONFIG)
    start = time.perf_counter()
    outcome = session.solve(
        matrix, rhs, method="cg", tolerance=0.0, max_iterations=ITERATIONS
    )
    elapsed = time.perf_counter() - start
    assert outcome.iterations == ITERATIONS
    return elapsed, session.cache_stats().as_dict()


def run_replanning(matrix, rhs) -> float:
    """The same solve through the engine with no plan cache."""
    options = MultiplyOptions(config=CONFIG)
    start = time.perf_counter()
    outcome = conjugate_gradient(
        matrix, rhs, tolerance=0.0, max_iterations=ITERATIONS, options=options
    )
    elapsed = time.perf_counter() - start
    assert outcome.iterations == ITERATIONS
    return elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_engine.json",
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="fail when planned/no-plan speedup falls below this (default 1.5)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repetitions per path; the best of each is compared",
    )
    args = parser.parse_args(argv)

    matrix, rhs, nnz = build_system()
    # Warm both paths once (imports, allocator, branch caches).
    run_replanning(matrix, rhs)
    run_planned(matrix, rhs)

    replanning_times = [run_replanning(matrix, rhs) for _ in range(args.repeats)]
    planned_times = []
    cache_stats: dict = {}
    for _ in range(args.repeats):
        elapsed, cache_stats = run_planned(matrix, rhs)
        planned_times.append(elapsed)

    best_replanning = min(replanning_times)
    best_planned = min(planned_times)
    speedup = best_replanning / best_planned

    report = {
        "workload": {
            "matrix": f"RMAT({N}x{N}, a={RMAT_PROBS[0]}, b={RMAT_PROBS[1]}, "
            f"c={RMAT_PROBS[2]}, d={RMAT_PROBS[3]}), symmetrized + "
            "diagonally dominant",
            "n": N,
            "nnz": nnz,
            "solver": "conjugate_gradient",
            "iterations": ITERATIONS,
        },
        "config": {
            "llc_bytes": CONFIG.llc_bytes,
            "b_atomic": CONFIG.b_atomic,
        },
        "seconds": {
            "replanning": replanning_times,
            "planned": planned_times,
            "best_replanning": best_replanning,
            "best_planned": best_planned,
        },
        "speedup": speedup,
        "min_speedup": args.min_speedup,
        "plan_cache": cache_stats,
        "passed": speedup >= args.min_speedup,
    }
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True))

    print(
        f"20-iteration CG on {N}x{N} RMAT (nnz={nnz}): "
        f"re-planning {best_replanning * 1e3:.1f} ms, "
        f"planned {best_planned * 1e3:.1f} ms, speedup {speedup:.2f}x "
        f"(gate: {args.min_speedup:.2f}x) -> {args.output}"
    )
    print(
        f"plan cache: {cache_stats.get('hits', 0)} hits, "
        f"{cache_stats.get('misses', 0)} misses, "
        f"{cache_stats.get('entries', 0)} plans"
    )
    if not report["passed"]:
        print(
            f"FAIL: planned path is only {speedup:.2f}x faster "
            f"(required {args.min_speedup:.2f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
