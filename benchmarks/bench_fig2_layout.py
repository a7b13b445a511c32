"""Fig. 2: AT Matrix layouts of R3 and its self-product density maps.

Reproduces the four panels of the paper's Fig. 2 on the power-network
matrix: (a, b) the adaptive tile layout at a coarse and a fine
granularity k, (c) the *estimated* density map of the self-product, and
(d) the actual product's density map.  The estimator run is timed — the
paper reports it as negligible next to the multiplication.
"""

import numpy as np
import pytest

from repro import MultiplyOptions, SystemConfig, atmult, build_at_matrix
from repro.density import estimate_product_density
from repro.viz import render_density_map, render_tile_layout

from .conftest import register_report, BENCH_CONFIG, bench_once, selected_keys

KEY = "R3" if "R3" in selected_keys() else next(iter(selected_keys()), "R3")

#: Coarse and fine granularity exponents (paper: k = 6 and k = 10).
COARSE_K = 5
FINE_K = BENCH_CONFIG.k_atomic

_PANELS = {}


@pytest.mark.parametrize("k", [COARSE_K, FINE_K])
def test_partition_granularity(benchmark, matrices, collector, k):
    staged = matrices.staged(KEY)
    config = SystemConfig(llc_bytes=BENCH_CONFIG.llc_bytes, b_atomic=2**k)
    at, seconds = bench_once(benchmark, lambda: build_at_matrix(staged, config))
    _PANELS[f"layout_k{k}"] = at
    collector.record("fig2", f"partition_k{k}", KEY, seconds)
    assert at.nnz == staged.nnz


def test_density_estimation(benchmark, matrices, collector):
    dm = matrices.at(KEY).density_map()
    estimate, seconds = bench_once(
        benchmark, lambda: estimate_product_density(dm, dm)
    )
    _PANELS["estimated"] = estimate
    collector.record("fig2", "estimate", KEY, seconds)


def test_actual_product(benchmark, matrices, collector):
    at = matrices.at(KEY)
    (result, _), seconds = bench_once(
        benchmark, lambda: atmult(at, at, options=MultiplyOptions(config=BENCH_CONFIG))
    )
    _PANELS["actual"] = result.density_map()
    collector.record("fig2", "multiply", KEY, seconds)


def test_zz_fig2_report(benchmark, capsys):
    register_report(benchmark)
    with capsys.disabled():
        print()
        for k in (COARSE_K, FINE_K):
            at = _PANELS.get(f"layout_k{k}")
            if at is None:
                continue
            print(f"Fig. 2 layout of {KEY} at k={k} "
                  f"({at.num_tiles()} tiles, '/' = dense):")
            print(render_tile_layout(at, max_cells=32))
            print()
        estimated = _PANELS.get("estimated")
        actual = _PANELS.get("actual")
        if estimated is not None and actual is not None:
            print("Fig. 2c: ESTIMATED self-product density map:")
            print(render_density_map(estimated, max_cells=32))
            print()
            print("Fig. 2d: ACTUAL self-product density map:")
            print(render_density_map(actual, max_cells=32))
            err = float(
                np.abs(estimated.grid - actual.grid).mean()
            )
            print(f"\nmean absolute block-density error of the estimate: {err:.4f}")
