"""Seeded inputs: the suite's topology classes, re-seeded from ``--seed``.

The generators are the ones behind ``repro.generate.suite`` with the
suite's own shape parameters; only the random seed (and, per workload,
the dimension) changes.  The program sees only the generated matrices.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.coo import COOMatrix
from repro.generate.synthetic import (
    banded_matrix,
    block_diagonal_matrix,
    clustered_matrix,
    power_network_matrix,
)

#: Suite dimension of each class (``repro.generate.suite.SUITE``).
SUITE_DIMS = {"R2": 1280, "R3": 2048, "R4": 2560, "R6": 2048, "R7": 3392}


def sub_seed(seed: int, *tags: int | str) -> int:
    """A 32-bit generator seed derived from the run seed and ``tags``."""
    words = [seed & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            words.extend(tag.encode())
        else:
            words.append(int(tag) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def suite_class(key: str, n: int, seed: int) -> COOMatrix:
    """The ``key`` class of the suite at dimension ``n``, seeded.

    Densities and block shapes follow the suite entry; nnz budgets scale
    with ``n`` so the density of the class is kept.
    """
    scale = n / SUITE_DIMS[key]
    if key == "R2":
        coo = clustered_matrix(
            n, int(82_000 * scale * scale), num_clusters=10,
            cluster_fraction=0.6, cluster_span=0.10, seed=seed,
        )
    elif key == "R3":
        coo = power_network_matrix(
            n, block_size=96, num_blocks=max(1, round(14 * scale)),
            block_fill=0.85, background_density=0.0012, seed=seed,
        )
    elif key == "R4":
        coo = clustered_matrix(
            n, int(92_000 * scale * scale), num_clusters=12,
            cluster_fraction=0.5, cluster_span=0.07, seed=seed,
        )
    elif key == "R6":
        coo = block_diagonal_matrix(
            n, num_blocks=18, block_fill=0.88, background_density=0.010,
            size_decay=0.96, seed=seed,
        )
    elif key == "R7":
        coo = banded_matrix(n, int(18_000 * scale), bandwidth=24, seed=seed)
    else:
        raise KeyError(f"no suite class {key!r}")
    return coo.sum_duplicates()


def to_csr(coo: COOMatrix) -> sp.csr_matrix:
    return sp.csr_matrix(
        (coo.values, (coo.row_ids, coo.col_ids)), shape=(coo.rows, coo.cols)
    )


def from_csr(matrix: sp.spmatrix) -> COOMatrix:
    coo = sp.coo_matrix(matrix)
    return COOMatrix(
        coo.shape[0], coo.shape[1],
        coo.row.astype(np.int64), coo.col.astype(np.int64),
        coo.data.astype(np.float64),
    ).sum_duplicates()


def spd_system(
    coo: COOMatrix, seed: int, *, margin: float
) -> tuple[COOMatrix, np.ndarray]:
    """A strictly diagonally dominant SPD system with ``coo``'s pattern.

    The pattern is symmetrized, off-diagonal values are made negative
    (a graph Laplacian shape), and each diagonal entry is its row's
    off-diagonal absolute sum times ``1 + margin``: the smaller the
    margin, the worse the conditioning and the more CG iterations.
    """
    csr = to_csr(coo)
    sym = abs(csr) + abs(csr).T
    sym.setdiag(0)
    sym.eliminate_zeros()
    sym = -0.5 * sym
    rowsum = np.asarray(abs(sym).sum(axis=1)).ravel()
    diagonal = rowsum * (1.0 + margin) + margin
    system = (sym + sp.diags(diagonal)).tocsr()
    rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=coo.rows)
    return from_csr(system), rhs
