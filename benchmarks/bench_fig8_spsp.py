"""Fig. 8: C = A * A with A = B over the full suite.

(a) runtimes of ATMULT, spspd, spdd and ddd relative to the spspsp_gemm
    baseline (larger is faster);
(b) the fraction of ATMULT runtime spent on density estimation and
    dynamic optimization (incl. tile conversions);
(c) the output memory consumption of each approach.

Expected shapes from the paper: ATMULT wins clearly where the topology
has dense regions (R1-R6, skewed G's), is slightly behind spspsp on the
uniform hypersparse R7-R9, spspd generally beats spspsp when the result
is dense, and the ATMULT output is never bigger than the best plain
representation.
"""

import pytest

from repro import MultiplyOptions, atmult
from repro.bench import format_relative_table, format_table
from repro.kernels import ddd_gemm, spdd_gemm, spspd_gemm, spspsp_gemm

from .conftest import register_report, BENCH_CONFIG, bench_once, selected_keys

_SECONDS: dict[str, dict[str, float]] = {}
_MEMORY: dict[str, dict[str, int]] = {}
_REPORTS = {}


def _record(key, algorithm, seconds, output_bytes):
    _SECONDS.setdefault(algorithm, {})[key] = seconds
    _MEMORY.setdefault(algorithm, {})[key] = output_bytes


@pytest.mark.parametrize("key", selected_keys())
def test_spspsp(benchmark, matrices, collector, key):
    csr = matrices.csr(key)
    result, seconds = bench_once(benchmark, lambda: spspsp_gemm(csr, csr))
    _record(key, "spspsp", seconds, result.memory_bytes())
    collector.record("fig8", "spspsp", key, seconds)


@pytest.mark.parametrize("key", selected_keys())
def test_spspd(benchmark, matrices, collector, key):
    csr = matrices.csr(key)
    result, seconds = bench_once(benchmark, lambda: spspd_gemm(csr, csr))
    _record(key, "spspd", seconds, result.memory_bytes())
    collector.record("fig8", "spspd", key, seconds)


@pytest.mark.parametrize("key", selected_keys())
def test_spdd(benchmark, matrices, collector, key):
    csr = matrices.csr(key)
    dense = matrices.dense(key)
    result, seconds = bench_once(benchmark, lambda: spdd_gemm(csr, dense))
    _record(key, "spdd", seconds, result.memory_bytes())
    collector.record("fig8", "spdd", key, seconds)


@pytest.mark.parametrize("key", selected_keys())
def test_ddd(benchmark, matrices, collector, key):
    dense = matrices.dense(key)
    result, seconds = bench_once(benchmark, lambda: ddd_gemm(dense, dense))
    _record(key, "ddd", seconds, result.memory_bytes())
    collector.record("fig8", "ddd", key, seconds)


@pytest.mark.parametrize("key", selected_keys())
def test_atmult(benchmark, matrices, collector, key):
    at = matrices.at(key)
    (result, report), seconds = bench_once(
        benchmark, lambda: atmult(at, at, options=MultiplyOptions(config=BENCH_CONFIG))
    )
    _record(key, "ATMULT", seconds, result.memory_bytes())
    _REPORTS[key] = report
    collector.record("fig8", "ATMULT", key, seconds)


def test_zz_fig8_report(benchmark, capsys):
    register_report(benchmark)
    keys = [k for k in selected_keys() if k in _SECONDS.get("spspsp", {})]
    with capsys.disabled():
        print()
        print(
            format_relative_table(
                keys,
                {name: _SECONDS.get(name, {}) for name in
                 ["spspsp", "spspd", "spdd", "ddd", "ATMULT"]},
                baseline="spspsp",
                title="Fig. 8a: C = A*A runtime relative to spspsp_gemm (higher = faster)",
            )
        )
        rows = []
        for key in keys:
            report = _REPORTS.get(key)
            if report is None:
                continue
            rows.append(
                [
                    key,
                    f"{report.estimate_fraction:.2%}",
                    f"{report.optimize_fraction:.2%}",
                    report.conversions,
                ]
            )
        print()
        print(
            format_table(
                ["matrix", "density estimation", "optimization", "tile conversions"],
                rows,
                title="Fig. 8b: share of ATMULT runtime spent in estimation/optimization",
            )
        )
        rows = []
        for key in keys:
            rows.append(
                [key]
                + [
                    f"{_MEMORY.get(name, {}).get(key, 0) / 1e6:.1f}"
                    for name in ["spspsp", "spspd", "spdd", "ddd", "ATMULT"]
                ]
            )
        print()
        print(
            format_table(
                ["matrix", "spspsp MB", "spspd MB", "spdd MB", "ddd MB", "ATMULT MB"],
                rows,
                title="Fig. 8c: output memory consumption",
            )
        )
        print(
            "paper shapes: ATMULT >= 1x except R7-R9; spspd > spspsp on dense "
            "results; ATMULT memory <= min(plain) and < CSR where dense regions "
            "exceed rho = S_d/S_sp"
        )
