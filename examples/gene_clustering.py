"""Gene clustering: non-negative matrix factorization on expression data.

The paper motivates mixed sparse-dense multiplication with gene
clustering [Liu et al., BIBM'13]: "the core computation contains
iterative multiplications V H^T of the large, sparse gene expression
matrix with a dense matrix."  This example runs multiplicative-update
NMF where every iteration multiplies the sparse expression matrix V
(as an AT Matrix) with small dense factor matrices through ATMULT.

Run:  python examples/gene_clustering.py
"""

import time

import numpy as np

from repro import COOMatrix, MultiplyOptions, SystemConfig, atmult, build_at_matrix
from repro.formats import coo_to_dense
from repro.formats.dense import DenseMatrix
from repro.generate import clustered_matrix


def nmf_step(v_at, v_t_at, w: np.ndarray, h: np.ndarray, config):
    """One multiplicative update of W and H for V ~ W @ H."""
    options = MultiplyOptions(config=config)
    # H update: H <- H * (W^T V) / (W^T W H)
    wt_v, _ = atmult(DenseMatrix(w.T), v_at, options=options)  # (k x genes)
    numerator = wt_v.to_dense()
    denominator = (w.T @ w) @ h + 1e-9
    h = h * numerator / denominator

    # W update: W <- W * (V H^T) / (W H H^T)
    v_ht, _ = atmult(v_at, DenseMatrix(h.T), options=options)  # (samples x k)
    numerator = v_ht.to_dense()
    denominator = w @ (h @ h.T) + 1e-9
    w = w * numerator / denominator
    return w, h


def main() -> None:
    samples, genes, rank = 1024, 1024, 8
    expression = clustered_matrix(
        samples, 90_000, num_clusters=rank, cluster_fraction=0.7,
        cluster_span=0.12, seed=21,
    )
    print(f"expression matrix V: {samples} samples x {genes} genes, "
          f"nnz={expression.nnz} (density {100 * expression.density:.2f}%)")

    config = SystemConfig()
    v_at = build_at_matrix(expression, config)
    v_t_at = build_at_matrix(expression.transpose(), config)
    print(f"V as AT Matrix: {v_at}")

    rng = np.random.default_rng(0)
    w = rng.uniform(0.1, 1.0, (samples, rank))
    h = rng.uniform(0.1, 1.0, (rank, genes))

    v_dense = coo_to_dense(expression).array

    def loss() -> float:
        return float(np.linalg.norm(v_dense - w @ h))

    print(f"\ninitial reconstruction error: {loss():.1f}")
    start = time.perf_counter()
    for iteration in range(1, 11):
        w, h = nmf_step(v_at, v_t_at, w, h, config)
        if iteration % 2 == 0:
            print(f"  iteration {iteration:2d}: error {loss():.1f}")
    elapsed = time.perf_counter() - start
    print(f"10 NMF iterations in {elapsed:.2f} s "
          f"(every step runs 2 mixed sparse-dense ATMULTs)")

    # Cluster assignment = argmax factor weight per sample.
    clusters = np.argmax(w, axis=1)
    sizes = np.bincount(clusters, minlength=rank)
    print(f"\ncluster sizes: {sizes.tolist()}")
    assert sizes.max() < samples  # more than one cluster found
    print("clustering finished")


if __name__ == "__main__":
    main()
