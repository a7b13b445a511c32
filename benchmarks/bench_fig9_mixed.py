"""Fig. 9: mixed sparse-dense multiplication.

(a) {A: sparse, B: dense}: ATMULT vs spdd / spspd / ddd;
(b) {A: dense, B: sparse}: ATMULT vs dspd / spspd / ddd;
(c, d) the optimization-time breakdown of the ATMULT runs.

The dense operand is a full (rho = 1) rectangular matrix sized so its
element count is gamma * N_nz of the sparse operand (paper: gamma = 3).
Expected shapes: ATMULT wins everywhere except the small dense-ish R1
(pure MKL/ddd wins; conversions add overhead) and the hypersparse R7
(referenced-submatrix slicing overhead).
"""

import numpy as np
import pytest

from repro import COOMatrix, MultiplyOptions, atmult, build_at_matrix
from repro.bench import format_relative_table, format_table
from repro.formats import coo_to_csr, coo_to_dense
from repro.kernels import ddd_gemm, dspd_gemm, spdd_gemm, spspd_gemm

from .conftest import register_report, BENCH_CONFIG, bench_once, selected_keys

GAMMA = 3

_SECONDS_A: dict[str, dict[str, float]] = {}
_SECONDS_B: dict[str, dict[str, float]] = {}
_REPORTS_A = {}
_REPORTS_B = {}
_DENSE_CACHE = {}


def dense_operand(matrices, key: str, side: str):
    """The full rectangular dense operand of paper section IV-C."""
    cached = _DENSE_CACHE.get((key, side))
    if cached is None:
        staged = matrices.staged(key)
        k = staged.cols if side == "right" else staged.rows
        free = max(16, min(4096, GAMMA * staged.nnz // k))
        rng = np.random.default_rng(99)
        if side == "right":
            array = rng.random((k, free))
        else:
            array = rng.random((free, k))
        coo = COOMatrix.from_dense(array)
        cached = {
            "dense": coo_to_dense(coo),
            "csr": coo_to_csr(coo),
            "at": build_at_matrix(coo, BENCH_CONFIG),
        }
        _DENSE_CACHE[(key, side)] = cached
    return cached


KEYS = selected_keys(generated=False)


# ---------------------------------------------------------------- Fig. 9a --
@pytest.mark.parametrize("key", KEYS)
def test_sparse_dense_spdd(benchmark, matrices, collector, key):
    csr = matrices.csr(key)
    operand = dense_operand(matrices, key, "right")
    _, seconds = bench_once(benchmark, lambda: spdd_gemm(csr, operand["dense"]))
    _SECONDS_A.setdefault("spdd", {})[key] = seconds
    collector.record("fig9a", "spdd", key, seconds)


@pytest.mark.parametrize("key", KEYS)
def test_sparse_dense_spspd(benchmark, matrices, collector, key):
    csr = matrices.csr(key)
    operand = dense_operand(matrices, key, "right")
    _, seconds = bench_once(benchmark, lambda: spspd_gemm(csr, operand["csr"]))
    _SECONDS_A.setdefault("spspd", {})[key] = seconds
    collector.record("fig9a", "spspd", key, seconds)


@pytest.mark.parametrize("key", KEYS)
def test_sparse_dense_ddd(benchmark, matrices, collector, key):
    dense_a = matrices.dense(key)
    operand = dense_operand(matrices, key, "right")
    _, seconds = bench_once(benchmark, lambda: ddd_gemm(dense_a, operand["dense"]))
    _SECONDS_A.setdefault("ddd", {})[key] = seconds
    collector.record("fig9a", "ddd", key, seconds)


@pytest.mark.parametrize("key", KEYS)
def test_sparse_dense_atmult(benchmark, matrices, collector, key):
    at = matrices.at(key)
    operand = dense_operand(matrices, key, "right")
    (result, report), seconds = bench_once(
        benchmark, lambda: atmult(at, operand["at"], options=MultiplyOptions(config=BENCH_CONFIG))
    )
    _SECONDS_A.setdefault("ATMULT", {})[key] = seconds
    _REPORTS_A[key] = report
    collector.record("fig9a", "ATMULT", key, seconds)
    assert result.nnz > 0


# ---------------------------------------------------------------- Fig. 9b --
@pytest.mark.parametrize("key", KEYS)
def test_dense_sparse_dspd(benchmark, matrices, collector, key):
    csr = matrices.csr(key)
    operand = dense_operand(matrices, key, "left")
    _, seconds = bench_once(benchmark, lambda: dspd_gemm(operand["dense"], csr))
    _SECONDS_B.setdefault("dspd", {})[key] = seconds
    collector.record("fig9b", "dspd", key, seconds)


@pytest.mark.parametrize("key", KEYS)
def test_dense_sparse_spspd(benchmark, matrices, collector, key):
    csr = matrices.csr(key)
    operand = dense_operand(matrices, key, "left")
    _, seconds = bench_once(benchmark, lambda: spspd_gemm(operand["csr"], csr))
    _SECONDS_B.setdefault("spspd", {})[key] = seconds
    collector.record("fig9b", "spspd", key, seconds)


@pytest.mark.parametrize("key", KEYS)
def test_dense_sparse_ddd(benchmark, matrices, collector, key):
    dense_b = matrices.dense(key)
    operand = dense_operand(matrices, key, "left")
    _, seconds = bench_once(benchmark, lambda: ddd_gemm(operand["dense"], dense_b))
    _SECONDS_B.setdefault("ddd", {})[key] = seconds
    collector.record("fig9b", "ddd", key, seconds)


@pytest.mark.parametrize("key", KEYS)
def test_dense_sparse_atmult(benchmark, matrices, collector, key):
    at = matrices.at(key)
    operand = dense_operand(matrices, key, "left")
    (result, report), seconds = bench_once(
        benchmark, lambda: atmult(operand["at"], at, options=MultiplyOptions(config=BENCH_CONFIG))
    )
    _SECONDS_B.setdefault("ATMULT", {})[key] = seconds
    _REPORTS_B[key] = report
    collector.record("fig9b", "ATMULT", key, seconds)
    assert result.nnz > 0


def test_zz_fig9_report(benchmark, capsys):
    register_report(benchmark)
    keys_a = [k for k in KEYS if k in _SECONDS_A.get("spdd", {})]
    keys_b = [k for k in KEYS if k in _SECONDS_B.get("dspd", {})]
    with capsys.disabled():
        print()
        print(
            format_relative_table(
                keys_a,
                {n: _SECONDS_A.get(n, {}) for n in ["spdd", "spspd", "ddd", "ATMULT"]},
                baseline="spdd",
                title=(
                    "Fig. 9a: {A sparse, B dense} runtime relative to spdd_gemm "
                    f"(gamma={GAMMA})"
                ),
            )
        )
        print()
        print(
            format_relative_table(
                keys_b,
                {n: _SECONDS_B.get(n, {}) for n in ["dspd", "spspd", "ddd", "ATMULT"]},
                baseline="dspd",
                title="Fig. 9b: {A dense, B sparse} runtime relative to dspd_gemm",
            )
        )
        rows = []
        for key in keys_a:
            ra, rb = _REPORTS_A.get(key), _REPORTS_B.get(key)
            if ra is None or rb is None:
                continue
            rows.append(
                [
                    key,
                    f"{ra.estimate_fraction:.2%}",
                    f"{ra.optimize_fraction:.2%}",
                    f"{rb.estimate_fraction:.2%}",
                    f"{rb.optimize_fraction:.2%}",
                ]
            )
        print()
        print(
            format_table(
                ["matrix", "9c est.", "9c opt.", "9d est.", "9d opt."],
                rows,
                title="Fig. 9c/9d: estimation + optimization share of ATMULT runtime",
            )
        )
        print(
            "paper shapes: ATMULT wins except R1 (ddd/MKL best; conversion "
            "overhead) and R7 (referenced-submatrix slicing); optimization "
            "peaks ~7.5% (R1), estimation grows on hypersparse R9 (~5%)"
        )
