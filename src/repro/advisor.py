"""Storage and execution advisor.

The paper's aim is "to overcome the burden for data scientists of
selecting appropriate algorithms and matrix storage representations"
(abstract) and to relieve them "from the complexity of the connections
between matrix characteristics, algorithmic complexities, optimization
and the hardware parameters of their system" (conclusion).  This module
turns that promise into an API: it inspects a staged matrix's topology
and, using the same density estimator and cost model ATMULT uses at
runtime, predicts which storage strategy and multiplication approach
will pay off — *before* any partitioning work is spent.

The predictions mirror the paper's evaluation findings: heterogeneous
topologies (distinct dense regions) profit from the AT Matrix; uniform
hypersparse matrices should stay in a single CSR tile and skip the
partitioning overhead (the paper's R7-R9 and Fig. 7 R8 cases).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, SystemConfig
from .cost.model import CostModel
from .density.estimate import estimate_product_density
from .density.map import DensityMap
from .formats.coo import COOMatrix
from .kinds import StorageKind


@dataclass(frozen=True)
class TopologyProfile:
    """Structural statistics of a matrix's non-zero topology."""

    rows: int
    cols: int
    nnz: int
    density: float
    #: fraction of atomic blocks whose density exceeds the read threshold
    dense_block_fraction: float
    #: fraction of atomic blocks holding at least one element
    occupied_block_fraction: float
    #: Gini coefficient of per-block non-zero counts (0 uniform, ->1 skewed)
    block_skew: float
    #: mean |row - col| distance of the non-zeros, normalized by dimension
    normalized_bandwidth: float
    #: coarse label: one of uniform / hypersparse / banded / heterogeneous
    topology_class: str


@dataclass(frozen=True)
class Recommendation:
    """Advisor output for one matrix under one system configuration."""

    profile: TopologyProfile
    #: recommended whole-matrix storage when no tiling is used
    plain_storage: StorageKind
    #: whether building the AT Matrix is predicted to pay off
    partition_worthwhile: bool
    #: predicted seconds for a self-multiplication per strategy
    predicted_costs: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"matrix {self.profile.rows} x {self.profile.cols}, "
            f"nnz={self.profile.nnz}, density={100 * self.profile.density:.3f}%",
            f"topology class: {self.profile.topology_class} "
            f"(dense blocks {self.profile.dense_block_fraction:.1%}, "
            f"skew {self.profile.block_skew:.2f}, "
            f"bandwidth {self.profile.normalized_bandwidth:.2f})",
            f"plain storage: {self.plain_storage.value}",
            f"partition into AT Matrix: "
            f"{'yes' if self.partition_worthwhile else 'no'}",
        ]
        for name, cost in sorted(self.predicted_costs.items(), key=lambda kv: kv[1]):
            lines.append(f"  predicted {name}: {cost:.4f} s")
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def _gini(counts: np.ndarray) -> float:
    """Gini coefficient of a non-negative count distribution."""
    counts = np.sort(counts.astype(np.float64).ravel())
    total = counts.sum()
    if total == 0 or len(counts) < 2:
        return 0.0
    cumulative = np.cumsum(counts)
    # Standard formula via the Lorenz curve.
    return float(
        (len(counts) + 1 - 2 * (cumulative / total).sum()) / len(counts)
    )


def profile_topology(
    staged: COOMatrix,
    config: SystemConfig | None = None,
    *,
    read_threshold: float = 0.25,
) -> TopologyProfile:
    """Compute the structural statistics driving the recommendation."""
    config = config or DEFAULT_CONFIG
    assert config.b_atomic is not None
    canonical = staged.sum_duplicates()
    dmap = DensityMap.from_coordinates(
        canonical.rows,
        canonical.cols,
        canonical.row_ids,
        canonical.col_ids,
        config.b_atomic,
    )
    block_counts = dmap.grid * dmap.block_areas()
    occupied = block_counts > 0
    dense_fraction = float((dmap.grid >= read_threshold).mean())
    occupied_fraction = float(occupied.mean())
    skew = _gini(block_counts[occupied]) if occupied.any() else 0.0
    if canonical.nnz:
        distances = np.abs(canonical.row_ids - canonical.col_ids)
        bandwidth = float(distances.mean() / max(1, max(canonical.shape) - 1))
    else:
        bandwidth = 0.0

    # Classification precedence: overall density first, then a tight
    # diagonal band (even when the band itself yields dense diagonal
    # blocks — the *global* structure is the band), then distinct dense
    # regions, then the sparse uniform classes.
    if canonical.density >= read_threshold:
        label = "dense"
    elif canonical.nnz and bandwidth < 0.02 and occupied_fraction < 0.3:
        label = "banded"
    elif dense_fraction >= 0.02:
        label = "heterogeneous"
    elif canonical.density < 1e-3:
        label = "hypersparse"
    else:
        label = "uniform"
    return TopologyProfile(
        rows=canonical.rows,
        cols=canonical.cols,
        nnz=canonical.nnz,
        density=canonical.density,
        dense_block_fraction=dense_fraction,
        occupied_block_fraction=occupied_fraction,
        block_skew=skew,
        normalized_bandwidth=bandwidth,
        topology_class=label,
    )


def recommend(
    staged: COOMatrix,
    config: SystemConfig | None = None,
    *,
    cost_model: CostModel | None = None,
) -> Recommendation:
    """Advise on storage and multiplication strategy for a matrix.

    Predicted costs cover a self-multiplication ``C = A @ A`` — the
    paper's benchmark workload — for the plain strategies and a
    tile-granular execution estimate derived from the block-density map.
    """
    config = config or DEFAULT_CONFIG
    cost_model = cost_model or CostModel()
    profile = profile_topology(
        staged, config, read_threshold=cost_model.read_threshold
    )
    canonical = staged.sum_duplicates()
    assert config.b_atomic is not None
    dmap = DensityMap.from_coordinates(
        canonical.rows,
        canonical.cols,
        canonical.row_ids,
        canonical.col_ids,
        config.b_atomic,
    )
    estimate = estimate_product_density(dmap, dmap)
    rho = canonical.density
    rho_c = estimate.overall_density()
    m = canonical.rows
    k = canonical.cols
    n = canonical.cols

    costs = {
        "spspsp_gemm": cost_model.product_cost(
            StorageKind.SPARSE, StorageKind.SPARSE, StorageKind.SPARSE,
            m, k, n, rho, rho, rho_c,
        ),
        "spspd_gemm": cost_model.product_cost(
            StorageKind.SPARSE, StorageKind.SPARSE, StorageKind.DENSE,
            m, k, n, rho, rho, rho_c,
        ),
        "ddd_gemm": cost_model.product_cost(
            StorageKind.DENSE, StorageKind.DENSE, StorageKind.DENSE,
            m, k, n, rho, rho, rho_c,
        ),
    }
    costs["atmult"] = _tiled_cost_estimate(cost_model, dmap, estimate, config)

    plain = (
        StorageKind.DENSE
        if rho >= cost_model.read_threshold
        else StorageKind.SPARSE
    )
    best_plain = min(v for k_, v in costs.items() if k_ != "atmult")
    partition_worthwhile = costs["atmult"] < best_plain and profile.nnz > 0

    notes = []
    if profile.topology_class in ("banded", "hypersparse"):
        notes.append(
            "uniform hypersparse topology: the paper finds little "
            "optimization potential here (R7-R9); partitioning overhead "
            "may exceed one multiplication (Fig. 7)"
        )
    if profile.dense_block_fraction > 0.05:
        notes.append(
            "distinct dense regions detected: the AT Matrix's strongest "
            "case (paper R1/R3/R5/R6)"
        )
    return Recommendation(
        profile=profile,
        plain_storage=plain,
        partition_worthwhile=partition_worthwhile,
        predicted_costs=costs,
        notes=notes,
    )


def _tiled_cost_estimate(
    model: CostModel,
    dmap: DensityMap,
    estimate: DensityMap,
    config: SystemConfig,
) -> float:
    """Predicted ATMULT cost from block maps, without partitioning.

    Approximates the tile loop at atomic-block granularity: every block
    product is charged its cheapest-kernel cost given the operand block
    densities and the target block's estimated density.
    """
    assert config.b_atomic is not None
    block = config.b_atomic
    a_grid = dmap.grid
    c_grid = estimate.grid
    q = a_grid.shape[1]
    total = 0.0
    target_dense = c_grid >= model.write_threshold
    # Per inner block index, vectorize the per-target-block cost: each
    # block product is charged the cheaper of the sparse-expansion and
    # dense kernels, plus the write cost of its target representation.
    # Only a sparse target sorts the expansion; a dense one sums in place.
    for inner in range(q):
        rho_a_col = a_grid[:, inner][:, None]  # contributions to rows
        rho_b_row = a_grid[inner, :][None, :]  # self-multiply: B = A
        active = (rho_a_col * rho_b_row) > 0
        if not active.any():
            continue
        flops = float(block) ** 3 * rho_a_col * rho_b_row
        sort = model.coefficients.sparse_sort * flops * np.log2(np.maximum(2.0, flops))
        sparse_cost = model.coefficients.sparse_expand * flops + np.where(
            target_dense, 0.0, sort
        )
        dense_cost = model.coefficients.dense_flop * float(block) ** 3
        compute = np.minimum(sparse_cost, dense_cost)
        write = np.where(
            target_dense,
            model.coefficients.dense_write * float(block) ** 2,
            model.coefficients.sparse_write * c_grid * float(block) ** 2,
        )
        total += float(
            (compute[active] + write[active]).sum()
            + model.coefficients.task_overhead * active.sum()
        )
    return total
