"""Graph analytics: multi-source BFS as sparse matrix multiplication.

The paper cites "algorithms on large graphs, for example multi-source
breadth-first-search" [Kepner & Gilbert] as a driving workload.  In the
language of linear algebra, one BFS level for all sources at once is the
product F' = F @ A of the frontier matrix F (sources x vertices) with the
adjacency matrix A.  The adjacency matrix comes from the paper's RMAT
generator, so it carries the skewed topology of the G-series.

Run:  python examples/graph_msbfs.py
"""

import time

import numpy as np

from repro import COOMatrix, MultiplyOptions, SystemConfig, atmult, build_at_matrix
from repro.generate import rmat_matrix


def multi_source_bfs(adjacency_at, sources: np.ndarray, vertices: int, config):
    """Level-synchronous BFS from every source simultaneously.

    Returns the (sources x vertices) matrix of BFS levels (-1 means
    unreachable).
    """
    num_sources = len(sources)
    levels = np.full((num_sources, vertices), -1, dtype=np.int64)
    levels[np.arange(num_sources), sources] = 0

    frontier = COOMatrix(
        num_sources,
        vertices,
        np.arange(num_sources),
        sources,
        np.ones(num_sources),
    )
    level = 0
    while frontier.nnz:
        level += 1
        product, _ = atmult(
            build_at_matrix(frontier, config),
            adjacency_at,
            options=MultiplyOptions(config=config),
        )
        reached = product.to_csr()
        rows = np.repeat(np.arange(num_sources), reached.row_nnz())
        cols = reached.indices
        fresh = levels[rows, cols] == -1
        rows, cols = rows[fresh], cols[fresh]
        levels[rows, cols] = level
        frontier = COOMatrix(
            num_sources, vertices, rows, cols, np.ones(len(rows))
        ).sum_duplicates()
    return levels


def main() -> None:
    vertices, edges = 2048, 40_000
    graph = rmat_matrix(
        vertices, edges, 0.55, 0.15, 0.15, 0.15, seed=33, values="ones"
    )
    print(f"RMAT graph: {vertices} vertices, {graph.nnz} edges (skewed a=0.55)")

    config = SystemConfig()
    adjacency = build_at_matrix(graph, config)
    print(f"adjacency as AT Matrix: {adjacency}")

    rng = np.random.default_rng(1)
    sources = rng.choice(vertices, size=16, replace=False)
    start = time.perf_counter()
    levels = multi_source_bfs(adjacency, sources, vertices, config)
    elapsed = time.perf_counter() - start

    reachable = (levels >= 0).sum(axis=1)
    eccentricity = levels.max(axis=1)
    print(f"\nmulti-source BFS from {len(sources)} sources: {elapsed:.2f} s")
    print(f"max BFS level observed: {levels.max()}")
    for i, source in enumerate(sources[:5]):
        print(f"  source {source:5d}: reaches {reachable[i]:5d} vertices, "
              f"eccentricity {eccentricity[i]}")

    # Sanity check one source against a plain queue BFS.
    from collections import deque

    adj_csr = adjacency.to_csr()
    expected = np.full(vertices, -1)
    expected[sources[0]] = 0
    queue = deque([int(sources[0])])
    while queue:
        vertex = queue.popleft()
        cols, _ = adj_csr.row_slice(vertex)
        for neighbor in cols:
            if expected[neighbor] == -1:
                expected[neighbor] = expected[vertex] + 1
                queue.append(int(neighbor))
    assert np.array_equal(levels[0], expected)
    print("\nverified against a scalar queue-based BFS")


if __name__ == "__main__":
    main()
