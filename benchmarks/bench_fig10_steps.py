"""Fig. 10: impact of the single optimization steps.

Starting from plain spspsp_gemm, the paper incrementally enables its
optimization components on five real-world matrices (R2, R3, R4, R6, R7):

1. baseline: spspsp_gemm on unpartitioned matrices;
2. fixed-size sparse-only tiles (sparse targets);
3. + density estimation (dense targets above the write threshold);
4. + mixed tiles (input blocks above rho0_R stored dense);
5. adaptive mixed tiles + estimation, no dynamic conversion;
6. + dynamic tile conversion = full ATMULT.

Expected shapes: (2) barely helps; (3) boosts dense-result matrices
(R2, R6); (4) jumps on dense substructure (R3); adaptive tiling (5/6)
costs <= ~20% where (4) was already optimal but wins big on R4 and is the
only tiling that does not catastrophically lose on hypersparse R7.
"""

import pytest

from repro import MultiplyOptions, atmult, fixed_grid_at_matrix
from repro.bench import format_relative_table
from repro.kernels import spspsp_gemm

from .conftest import register_report, BENCH_CONFIG, bench_once, selected_keys

#: The paper's five Fig. 10 instances.
FIG10_KEYS = [k for k in ["R2", "R3", "R4", "R6", "R7"] if k in selected_keys()]

_SECONDS: dict[str, dict[str, float]] = {}
_FIXED_SPARSE = {}
_FIXED_MIXED = {}

STEPS = [
    "1 baseline",
    "2 fixed sparse tiles",
    "3 + density estimation",
    "4 + mixed tiles",
    "5 adaptive tiles",
    "6 + dynamic conversion",
]


def _fixed(matrices, key, mixed):
    cache = _FIXED_MIXED if mixed else _FIXED_SPARSE
    if key not in cache:
        cache[key] = fixed_grid_at_matrix(
            matrices.staged(key), BENCH_CONFIG, mixed=mixed
        )
    return cache[key]


def _record(key, step, seconds, collector):
    _SECONDS.setdefault(step, {})[key] = seconds
    collector.record("fig10", step, key, seconds)


@pytest.mark.parametrize("key", FIG10_KEYS)
def test_step1_baseline(benchmark, matrices, collector, key):
    csr = matrices.csr(key)
    _, seconds = bench_once(benchmark, lambda: spspsp_gemm(csr, csr))
    _record(key, STEPS[0], seconds, collector)


@pytest.mark.parametrize("key", FIG10_KEYS)
def test_step2_fixed_sparse_tiles(benchmark, matrices, collector, key):
    tiled = _fixed(matrices, key, mixed=False)
    _, seconds = bench_once(
        benchmark,
        lambda: atmult(
            tiled, tiled,
            options=MultiplyOptions(
                config=BENCH_CONFIG, use_estimation=False, dynamic_conversion=False
            ),
        ),
    )
    _record(key, STEPS[1], seconds, collector)


@pytest.mark.parametrize("key", FIG10_KEYS)
def test_step3_density_estimation(benchmark, matrices, collector, key):
    tiled = _fixed(matrices, key, mixed=False)
    _, seconds = bench_once(
        benchmark,
        lambda: atmult(
            tiled, tiled,
            options=MultiplyOptions(config=BENCH_CONFIG, dynamic_conversion=False),
        ),
    )
    _record(key, STEPS[2], seconds, collector)


@pytest.mark.parametrize("key", FIG10_KEYS)
def test_step4_mixed_tiles(benchmark, matrices, collector, key):
    tiled = _fixed(matrices, key, mixed=True)
    _, seconds = bench_once(
        benchmark,
        lambda: atmult(
            tiled, tiled,
            options=MultiplyOptions(config=BENCH_CONFIG, dynamic_conversion=False),
        ),
    )
    _record(key, STEPS[3], seconds, collector)


@pytest.mark.parametrize("key", FIG10_KEYS)
def test_step5_adaptive_tiles(benchmark, matrices, collector, key):
    at = matrices.at(key)
    _, seconds = bench_once(
        benchmark,
        lambda: atmult(
            at, at,
            options=MultiplyOptions(config=BENCH_CONFIG, dynamic_conversion=False),
        ),
    )
    _record(key, STEPS[4], seconds, collector)


@pytest.mark.parametrize("key", FIG10_KEYS)
def test_step6_full_atmult(benchmark, matrices, collector, key):
    at = matrices.at(key)
    _, seconds = bench_once(
        benchmark, lambda: atmult(at, at, options=MultiplyOptions(config=BENCH_CONFIG))
    )
    _record(key, STEPS[5], seconds, collector)


def test_zz_fig10_report(benchmark, capsys):
    register_report(benchmark)
    keys = [k for k in FIG10_KEYS if k in _SECONDS.get(STEPS[0], {})]
    with capsys.disabled():
        print()
        print(
            format_relative_table(
                keys,
                {step: _SECONDS.get(step, {}) for step in STEPS},
                baseline=STEPS[0],
                title="Fig. 10: relative performance of incremental optimization steps",
            )
        )
        print(
            "paper shapes: (2) ~= 1x; (3) boosts R2/R6; (4) jumps on R3; "
            "(5-6) win on R4, stay close to 1x on R7 where fixed tiling "
            "collapses"
        )
