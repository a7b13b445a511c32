"""The paper's qualitative claims, encoded as executable assertions.

Each test pins one sentence of the paper to a measurable check on the
scaled suite.  These complement the benches: the benches *report* the
numbers, these tests *fail the build* if a claim stops holding.
"""

import time

import numpy as np
import pytest

from repro import (
    COOMatrix,
    CostModel,
    MultiplyOptions,
    SystemConfig,
    atmult,
    build_at_matrix,
    fixed_grid_at_matrix,
)
from repro.core.builder import ATMatrixBuilder
from repro.formats import coo_to_csr
from repro.generate import load_matrix
from repro.kernels import spspsp_gemm
from repro.kinds import StorageKind

CONFIG = SystemConfig()  # the scaled benchmark configuration


@pytest.fixture(scope="module")
def r3():
    """The power-network matrix (dense diagonal blocks, paper Fig. 2)."""
    staged = load_matrix("R3")
    return staged, coo_to_csr(staged), build_at_matrix(staged, CONFIG)


@pytest.fixture(scope="module")
def r7():
    """The hypersparse band matrix (no dense regions)."""
    staged = load_matrix("R7")
    return staged, coo_to_csr(staged), build_at_matrix(staged, CONFIG)


class TestSectionII:
    def test_claim_hypersparse_stored_in_single_tile(self, r7):
        """§II-B2: a sparse matrix without notable dense subregions 'would
        be stored in a single, sparse tile' — up to the Eq. 2 dimension
        bound, which our scaled R7 exceeds; so: few, all-sparse tiles."""
        _, _, at = r7
        assert at.num_tiles(StorageKind.DENSE) == 0
        # Far fewer tiles than the occupied fixed-grid cells.
        staged = at.to_coo()
        fixed = fixed_grid_at_matrix(staged, CONFIG)
        assert at.num_tiles() < fixed.num_tiles() / 5

    def test_claim_memory_never_above_plain_dense(self, r3):
        """§II-C3: AT Matrix memory 'is always lower than a plain dense
        array'."""
        staged, _, at = r3
        dense_bytes = staged.rows * staged.cols * CONFIG.dense_element_bytes
        assert at.memory_bytes() < dense_bytes

    def test_claim_worst_case_sparse_overhead_bounded(self):
        """§II-C3: worst case all tiles just above rho0_R -> at most
        S_d / (rho0_R * S_sp) = 2x the sparse representation."""
        rng = np.random.default_rng(5)
        n = 512
        # Every atomic block at density just above the 0.25 threshold.
        array = np.where(rng.random((n, n)) < 0.26, rng.random((n, n)), 0.0)
        staged = COOMatrix.from_dense(array)
        at = build_at_matrix(staged, CONFIG)
        sparse_bytes = staged.nnz * CONFIG.sparse_element_bytes
        bound = CONFIG.dense_element_bytes / (0.25 * CONFIG.sparse_element_bytes)
        assert at.memory_bytes() <= bound * sparse_bytes * 1.01


class TestSectionIV:
    def test_claim_partitioning_cheaper_than_multiplication_on_structured(self, r3):
        """§IV-B: 'the duration of the partitioning process is smaller
        than a single execution of the traditional multiplication'
        (for the structured matrices)."""
        staged, csr, _ = r3
        start = time.perf_counter()
        spspsp_gemm(csr, csr)
        multiply_seconds = time.perf_counter() - start
        _, report = ATMatrixBuilder(CONFIG).build_with_report(staged)
        assert report.total_seconds < multiply_seconds

    def test_claim_atmult_outperforms_baseline_on_dense_blocks(self, r3):
        """§IV-C: ATMULT wins clearly when 'there are distinct regions of
        a significantly higher local density ... for example matrix R3'."""
        _, csr, at = r3
        start = time.perf_counter()
        spspsp_gemm(csr, csr)
        baseline = time.perf_counter() - start
        start = time.perf_counter()
        atmult(at, at, options=MultiplyOptions(config=CONFIG))
        tiled = time.perf_counter() - start
        assert tiled < baseline / 1.5  # comfortably ahead, not a coin flip

    def test_claim_estimation_cost_negligible_on_structured(self, r3):
        """§IV-D: 'the part of the density estimation is for most
        instances with less than 0.1% of ATMULT runtime negligible'
        (we allow 1% for the interpreted stack)."""
        _, _, at = r3
        _, report = atmult(at, at, options=MultiplyOptions(config=CONFIG))
        assert report.estimate_fraction < 0.01

    def test_claim_write_threshold_far_below_read_threshold(self):
        """§III-C: rho0_W 'has usually a much lower value' than rho0_R."""
        model = CostModel()
        assert model.write_threshold <= model.read_threshold / 3
        turnaround = model.solve_write_turnaround(128, 128, 128, 0.05, 0.05)
        assert turnaround < model.read_threshold

    def test_claim_memory_breakdown_accounts_everything(self, r3):
        _, _, at = r3
        breakdown = at.memory_breakdown()
        assert sum(breakdown.values()) == at.memory_bytes()
        assert breakdown["dense"] > 0 and breakdown["sparse"] > 0
