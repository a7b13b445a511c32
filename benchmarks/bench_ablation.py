"""Ablations of the design choices DESIGN.md calls out.

Not a paper figure, but the paper motivates each parameter in prose:

* the atomic block granularity ``k`` (section II-B2: "our multiplication
  experiments have shown the best results for k = 10", i.e. b_atomic
  equal to the maximum dense tile size);
* the read density threshold ``rho0_R`` (section II-C3: chosen near the
  kernel cost crossover, 0.25 in the paper's configuration);
* the future-work pre-multiplication re-tiling of the left operand
  (section IV-C), evaluated on the R7 x dense case the paper highlights.
"""

import numpy as np
import pytest

from repro import COOMatrix, MultiplyOptions, SystemConfig, atmult, build_at_matrix
from repro.bench import format_table
from repro.core.retile import align_to_operand

from .conftest import register_report, BENCH_CONFIG, bench_once, selected_keys

KEY = "R3" if "R3" in selected_keys() else next(iter(selected_keys()), "R3")
HYPERSPARSE_KEY = "R7" if "R7" in selected_keys() else KEY

_GRANULARITY = {}
_THRESHOLD = {}
_RETILE = {}


# ------------------------------------------------------- b_atomic sweep --
@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
def test_granularity(benchmark, matrices, collector, k):
    staged = matrices.staged(KEY)
    config = SystemConfig(llc_bytes=BENCH_CONFIG.llc_bytes, b_atomic=2**k)
    at = build_at_matrix(staged, config)

    (result, _), seconds = bench_once(
        benchmark, lambda: atmult(at, at, options=MultiplyOptions(config=config))
    )
    _GRANULARITY[k] = (seconds, at.num_tiles())
    collector.record("ablation", f"k={k}", KEY, seconds)
    assert result.nnz > 0


# --------------------------------------------------- read-threshold sweep --
@pytest.mark.parametrize("threshold", [0.05, 0.15, 0.25, 0.5, 0.9])
def test_read_threshold(benchmark, matrices, collector, threshold):
    staged = matrices.staged(KEY)
    at = build_at_matrix(staged, BENCH_CONFIG, read_threshold=threshold)
    (result, report), seconds = bench_once(
        benchmark, lambda: atmult(at, at, options=MultiplyOptions(config=BENCH_CONFIG))
    )
    _THRESHOLD[threshold] = (seconds, report.conversions)
    collector.record("ablation", f"rho0_R={threshold}", KEY, seconds)
    assert result.nnz > 0


# ------------------------------------------- future-work: re-tiling of A --
@pytest.fixture(scope="module")
def hypersparse_case(matrices):
    """The paper's R7 x dense scenario (section IV-C)."""
    staged = matrices.staged(HYPERSPARSE_KEY)
    rng = np.random.default_rng(7)
    free = max(16, min(1024, 3 * staged.nnz // staged.cols))
    dense = COOMatrix.from_dense(rng.random((staged.cols, free)))
    return (
        build_at_matrix(staged, BENCH_CONFIG),
        build_at_matrix(dense, BENCH_CONFIG),
    )


def test_retile_off(benchmark, hypersparse_case, collector):
    a, b = hypersparse_case
    (result, _), seconds = bench_once(
        benchmark, lambda: atmult(a, b, options=MultiplyOptions(config=BENCH_CONFIG))
    )
    _RETILE["without re-tiling"] = seconds
    collector.record("ablation", "retile_off", HYPERSPARSE_KEY, seconds)
    assert result.nnz > 0


def test_retile_on(benchmark, hypersparse_case, collector):
    a, b = hypersparse_case
    aligned = align_to_operand(a, b)

    (result, _), seconds = bench_once(
        benchmark, lambda: atmult(aligned, b, options=MultiplyOptions(config=BENCH_CONFIG))
    )
    _RETILE["with re-tiling"] = seconds
    collector.record("ablation", "retile_on", HYPERSPARSE_KEY, seconds)
    assert result.nnz > 0


def test_zz_ablation_report(benchmark, capsys):
    register_report(benchmark)
    with capsys.disabled():
        print()
        rows = [
            [f"k={k} (b={2**k})", f"{seconds * 1e3:.1f}", tiles]
            for k, (seconds, tiles) in sorted(_GRANULARITY.items())
        ]
        print(
            format_table(
                ["granularity", "ATMULT ms", "tiles"],
                rows,
                title=f"ablation: atomic block granularity on {KEY} "
                      f"(paper: best at b_atomic = tau_d_max)",
            )
        )
        print()
        rows = [
            [f"{threshold:.2f}", f"{seconds * 1e3:.1f}", conversions]
            for threshold, (seconds, conversions) in sorted(_THRESHOLD.items())
        ]
        print(
            format_table(
                ["rho0_R", "ATMULT ms", "JIT conversions"],
                rows,
                title=f"ablation: read density threshold on {KEY} (paper: 0.25)",
            )
        )
        print()
        rows = [
            [label, f"{seconds * 1e3:.1f}"] for label, seconds in _RETILE.items()
        ]
        print(
            format_table(
                ["variant", "ATMULT ms"],
                rows,
                title=(
                    f"ablation: pre-multiplication re-tiling on "
                    f"{HYPERSPARSE_KEY} x dense (the paper's future work)"
                ),
            )
        )
