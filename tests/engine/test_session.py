"""Session: plan reuse across iterative workloads, solver integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    COOMatrix,
    Session,
    SystemConfig,
    build_at_matrix,
    conjugate_gradient,
    jacobi,
    observe,
    richardson,
)

from ..conftest import as_csr


def spd_system(rng: np.random.Generator, n: int) -> np.ndarray:
    """A sparse strictly-diagonally-dominant SPD matrix."""
    mask = rng.random((n, n)) < 0.05
    base = np.where(mask, rng.uniform(0.1, 1.0, size=(n, n)), 0.0)
    symmetric = (base + base.T) / 2.0
    np.fill_diagonal(symmetric, symmetric.sum(axis=1) + 1.0)
    return symmetric


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig(llc_bytes=8 * 1024, b_atomic=16)


class TestSessionBasics:
    def test_session_owns_a_cache(self, config):
        session = Session(config=config)
        assert session.plan_cache is not None
        assert session.cache_stats().entries == 0

    def test_multiply_through_session_reuses_plan(self, rng, config):
        array = spd_system(rng, 64)
        matrix = build_at_matrix(COOMatrix.from_dense(array), config)
        session = Session(config=config)
        first, _ = session.multiply(matrix, matrix)
        second, _ = session.multiply(matrix, matrix)
        assert np.array_equal(first.to_dense(), second.to_dense())
        stats = session.cache_stats()
        assert stats.misses == 1 and stats.hits == 1

    def test_matvec_matches_numpy(self, rng, config):
        array = spd_system(rng, 48)
        session = Session(config=config)
        x = rng.random(48)
        product = session.matvec(as_csr(array), x)
        np.testing.assert_allclose(product, array @ x, atol=1e-10)


class TestSolverPlanReuse:
    def test_cg_pins_one_fused_matvec_plan(self, rng, config):
        array = spd_system(rng, 64)
        matrix = build_at_matrix(COOMatrix.from_dense(array), config)
        rhs = rng.random(64)
        session = Session(config=config)
        outcome = session.solve(matrix, rhs, method="cg", tolerance=1e-8)
        assert outcome.converged
        assert outcome.iterations >= 2
        stats = session.cache_stats()
        # Iteration 1 records the fused matvec plan (one chain miss plus
        # one per-hop plan miss); iteration 2's single hit pins it, and
        # iterations 3..N replay the pinned plan without probing the
        # cache at all — far fewer lookups than iterations.
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.hit_rate > 0
        assert stats.hits < outcome.iterations

    def test_cg_estimates_and_optimizes_exactly_once(self, rng, config):
        array = spd_system(rng, 64)
        matrix = build_at_matrix(COOMatrix.from_dense(array), config)
        rhs = rng.random(64)
        # how many optimize spans does ONE plan build of the matvec emit?
        with observe() as baseline_obs:
            Session(config=config).matvec(matrix, rhs)
        baseline = [
            span.name for span in baseline_obs.tracer.spans()
        ].count("optimize")
        assert baseline >= 1

        with observe() as obs:
            outcome = conjugate_gradient(
                matrix,
                rhs,
                tolerance=1e-8,
                options=Session(config=config).options,
            )
        assert outcome.converged and outcome.iterations >= 2
        names = [span.name for span in obs.tracer.spans()]
        # planning ran once, for the first matvec; iterations 2..N
        # replayed the cached plan without re-estimating/re-optimizing
        assert names.count("estimate") == 1
        assert names.count("water_level") == 1
        assert names.count("optimize") == baseline
        # ...but every iteration still executed its pair loop
        assert names.count("pair") >= outcome.iterations

    def test_cg_without_session_still_converges(self, rng, config):
        array = spd_system(rng, 64)
        matrix = build_at_matrix(COOMatrix.from_dense(array), config)
        rhs = rng.random(64)
        outcome = conjugate_gradient(matrix, rhs, tolerance=1e-8)
        np.testing.assert_allclose(array @ outcome.solution, rhs, atol=1e-6)

    def test_session_and_plain_cg_agree(self, rng, config):
        array = spd_system(rng, 64)
        matrix = build_at_matrix(COOMatrix.from_dense(array), config)
        rhs = rng.random(64)
        plain = conjugate_gradient(matrix, rhs, tolerance=1e-10)
        planned = conjugate_gradient(
            matrix,
            rhs,
            tolerance=1e-10,
            options=Session(config=config).options,
        )
        np.testing.assert_allclose(
            plain.solution, planned.solution, atol=1e-8
        )

    def test_jacobi_and_richardson_accept_sessions(self, rng, config):
        array = spd_system(rng, 48)
        matrix = build_at_matrix(COOMatrix.from_dense(array), config)
        rhs = rng.random(48)
        session = Session(config=config)
        jacobi_outcome = jacobi(matrix, rhs, tolerance=1e-8, options=session.options)
        assert jacobi_outcome.converged
        np.testing.assert_allclose(
            array @ jacobi_outcome.solution, rhs, atol=1e-5
        )
        richardson_outcome = richardson(
            matrix,
            rhs,
            omega=0.2,
            tolerance=1e-6,
            max_iterations=5000,
            options=session.options,
        )
        assert richardson_outcome.converged


class TestWrapHoisting:
    """Regression: solvers must wrap the operand once, not per iteration."""

    def test_cg_wraps_csr_operand_exactly_once(self, rng, config):
        array = spd_system(rng, 64)
        csr = as_csr(array)
        rhs = rng.random(64)
        with observe() as obs:
            outcome = conjugate_gradient(
                csr,
                rhs,
                tolerance=1e-8,
                options=Session(config=config).options,
            )
        assert outcome.converged and outcome.iterations >= 2
        # one wrap for the system matrix, regardless of iteration count
        assert obs.metrics.value("operand.wraps.sparse") == 1

    def test_plain_path_also_wraps_once(self, rng, config):
        array = spd_system(rng, 64)
        csr = as_csr(array)
        rhs = rng.random(64)
        with observe() as obs:
            outcome = conjugate_gradient(csr, rhs, tolerance=1e-8)
        assert outcome.converged and outcome.iterations >= 2
        assert obs.metrics.value("operand.wraps.sparse") == 1
