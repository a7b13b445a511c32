"""Quickstart: build an AT Matrix and multiply it with ATMULT.

Builds a heterogeneous matrix (a dense block over a sparse background,
like the paper's power-network matrix R3), partitions it into adaptive
tiles, renders the layout, and multiplies it against itself — comparing
ATMULT against the naive sparse baseline.

Run:  python examples/quickstart.py
"""

import time

import numpy as np

from repro import COOMatrix, MultiplyOptions, SystemConfig, atmult, build_at_matrix
from repro.formats import coo_to_csr
from repro.kernels import spspsp_gemm
from repro.viz import render_density_map, render_tile_layout


def main() -> None:
    rng = np.random.default_rng(42)

    # A 1024 x 1024 matrix: hypersparse background + two dense regions.
    n = 1024
    raw = np.where(rng.random((n, n)) < 0.003, rng.random((n, n)), 0.0)
    raw[:192, :192] = rng.random((192, 192))        # dense block at origin
    raw[640:832, 640:832] = rng.random((192, 192))  # dense block mid-matrix
    staged = COOMatrix.from_dense(raw)
    print(f"input: {staged.rows} x {staged.cols}, nnz={staged.nnz}, "
          f"density={100 * staged.density:.2f}%")

    # Partition under a scaled cache configuration (b_atomic = 64 here).
    config = SystemConfig(llc_bytes=96 * 1024)
    matrix = build_at_matrix(staged, config)
    print(f"\nAT Matrix: {matrix}")
    print("\ntile layout ('/' = dense tile, grayscale = sparse density):")
    print(render_tile_layout(matrix, max_cells=32))

    # Multiply: ATMULT vs the plain sparse x sparse -> sparse baseline.
    csr = coo_to_csr(staged)
    start = time.perf_counter()
    baseline = spspsp_gemm(csr, csr)
    baseline_seconds = time.perf_counter() - start

    start = time.perf_counter()
    result, report = atmult(matrix, matrix, options=MultiplyOptions(config=config))
    atmult_seconds = time.perf_counter() - start

    print(f"\nspspsp_gemm baseline: {baseline_seconds * 1e3:8.1f} ms")
    print(f"ATMULT:               {atmult_seconds * 1e3:8.1f} ms "
          f"({baseline_seconds / atmult_seconds:.2f}x)")
    print(f"  density estimation: {report.estimate_fraction:6.1%} of runtime")
    print(f"  dynamic optimizer:  {report.optimize_fraction:6.1%} of runtime "
          f"({report.conversions} tile conversions)")
    print(f"  kernels used: {report.kernel_counts}")

    # Verify against the baseline.
    assert np.allclose(result.to_dense(), baseline.to_dense())
    print("\nresult verified against the sparse baseline")

    print("\nresult density map:")
    print(render_density_map(result.density_map(), max_cells=32))
    print(f"result: {result}")


if __name__ == "__main__":
    main()
