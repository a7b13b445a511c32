"""Fused chain plans: parity, caching, scheduling and solver pinning."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    COOMatrix,
    DenseMatrix,
    FusedChainPlan,
    MultiplyOptions,
    Session,
    SystemConfig,
    atmult,
    build_at_matrix,
    build_chain_plan,
    multiply_chain,
    plan_chain,
)
from repro.core.chain import ChainReport
from repro.engine.cache import ChainKey
from repro.engine.executor import execute_fused_chain
from repro.errors import PlanMismatchError, ShapeError

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
OPTIONS = MultiplyOptions(config=CONFIG)


def build(array: np.ndarray):
    return build_at_matrix(COOMatrix.from_dense(array), CONFIG)


def sparse_chain(rng: np.random.Generator, dims: list[int], density: float = 0.15):
    """AT Matrix operands for a random all-sparse chain over ``dims``."""
    return [
        build(
            np.where(
                rng.random((rows, cols)) < density,
                rng.random((rows, cols)),
                0.0,
            )
        )
        for rows, cols in zip(dims, dims[1:], strict=False)
    ]


def per_hop_baseline(operands, order):
    """The chain computed hop by hop with plain ``atmult`` in ``order``."""
    results = {(i, i): operand for i, operand in enumerate(operands)}
    for i, k, j in order:
        results[(i, j)], _ = atmult(
            results[(i, k)], results[(k + 1, j)], options=OPTIONS
        )
    return results[(0, len(operands) - 1)]


def dense_reference(operands) -> np.ndarray:
    result = operands[0].to_dense()
    for operand in operands[1:]:
        result = result @ operand.to_dense()
    return result


class TestFusedParity:
    """Fused execution must be bit-identical to per-hop ``atmult``."""

    @pytest.mark.parametrize("dims", [[48, 32, 40], [64, 48, 80, 32, 40]])
    def test_all_sparse_chain_parity(self, rng, dims):
        operands = sparse_chain(rng, dims)
        uncached, uncached_report = multiply_chain(list(operands), options=OPTIONS)
        assert not uncached_report.fused  # no cache: the cold path

        session = Session(config=CONFIG)
        cold, cold_report = session.multiply_chain(list(operands))
        warm, warm_report = session.multiply_chain(list(operands))
        assert not cold_report.plan_cache_hit
        assert warm_report.fused and warm_report.plan_cache_hit
        assert uncached_report.order == cold_report.order == warm_report.order
        baseline = per_hop_baseline(operands, cold_report.order)
        assert np.array_equal(baseline.to_dense(), uncached.to_dense())
        assert np.array_equal(baseline.to_dense(), cold.to_dense())
        assert np.array_equal(baseline.to_dense(), warm.to_dense())
        np.testing.assert_allclose(
            warm.to_dense(), dense_reference(operands), atol=1e-10
        )

    def test_mixed_dense_sparse_chain_parity(self, rng):
        sparse_a, sparse_b = sparse_chain(rng, [48, 64, 32])
        dense_c = DenseMatrix(rng.random((32, 24)))
        operands = [sparse_a, sparse_b, dense_c]
        baseline, _ = multiply_chain(list(operands), options=OPTIONS)

        session = Session(config=CONFIG)
        cold, _ = session.multiply_chain(list(operands))
        warm, warm_report = session.multiply_chain(list(operands))
        assert warm_report.fused and warm_report.plan_cache_hit
        assert np.array_equal(baseline.to_dense(), cold.to_dense())
        assert np.array_equal(baseline.to_dense(), warm.to_dense())

    def test_random_chains_parity(self, rng):
        for _ in range(5):
            length = int(rng.integers(2, 5))
            dims = [int(d) for d in rng.integers(2, 6, size=length + 1) * 16]
            operands = sparse_chain(rng, dims, density=0.2)
            session = Session(config=CONFIG)
            _, cold_report = session.multiply_chain(list(operands))
            warm, warm_report = session.multiply_chain(list(operands))
            baseline = per_hop_baseline(operands, cold_report.order)
            assert warm_report.plan_cache_hit
            assert np.array_equal(baseline.to_dense(), warm.to_dense())


class TestChainCache:
    def test_repeated_chain_run_is_a_single_cache_hit(self, rng):
        operands = sparse_chain(rng, [64, 48, 80, 40])
        session = Session(config=CONFIG)
        session.multiply_chain(list(operands))
        before = session.cache_stats()
        assert before.hits == 0  # cold run only misses and records

        _, report = session.multiply_chain(list(operands))
        after = session.cache_stats()
        assert report.plan_cache_hit
        assert after.hits == before.hits + 1  # ONE hit for the whole chain
        assert after.misses == before.misses  # and no new misses

    def test_fused_plan_reports_eager_frees(self, rng):
        operands = sparse_chain(rng, [64, 48, 80, 32, 40])
        session = Session(config=CONFIG)
        session.multiply_chain(list(operands))
        _, report = session.multiply_chain(list(operands))
        assert report.fused
        # A 4-hop chain has 3 intermediates; every one dies before the end.
        assert report.intermediates_freed > 0
        assert report.peak_intermediate_bytes > 0

    def test_value_change_same_topology_replays(self, rng):
        operands = sparse_chain(rng, [48, 32, 40])
        session = Session(config=CONFIG)
        session.multiply_chain(list(operands))

        # Same sparsity pattern, different values: same ChainKey, and the
        # intermediates keep their topology, so the fused replay applies.
        rescaled = [
            build(operand.to_dense() * 2.0) for operand in operands
        ]
        result, report = session.multiply_chain(rescaled)
        assert report.plan_cache_hit
        np.testing.assert_allclose(
            result.to_dense(), dense_reference(rescaled), atol=1e-10
        )

    def test_ineligible_options_fall_back_to_legacy_loop(self, rng):
        operands = sparse_chain(rng, [48, 32, 40])
        # A memory limit disqualifies fusion (enforcement is per-hop): even
        # with a plan cache, every run takes the hop-by-hop cold path.
        session = Session(
            options=MultiplyOptions(config=CONFIG, memory_limit_bytes=float("inf"))
        )
        for _ in range(2):
            result, report = session.multiply_chain(list(operands))
            assert isinstance(report, ChainReport)
            assert not report.fused and not report.plan_cache_hit
            np.testing.assert_allclose(
                result.to_dense(), dense_reference(operands), atol=1e-10
            )
        assert not any(
            isinstance(key, ChainKey) for key in session.plan_cache._plans
        )


class TestBuildChainPlan:
    def test_build_chain_plan_surface(self, rng):
        operands = sparse_chain(rng, [64, 48, 80, 40, 32])
        fused = build_chain_plan(list(operands), options=OPTIONS)
        assert isinstance(fused, FusedChainPlan)
        assert fused.num_hops == 3
        assert len(fused.schedule) == fused.num_pairs
        assert len(fused.frees) == len(fused.schedule)
        description = fused.describe()
        assert description["hops"] == 3
        assert description["parenthesization"].count("(") == 3
        assert fused.memory_bytes() > 0
        assert fused.fingerprint  # stable identity string

    def test_schedule_interleaves_across_hops(self, rng):
        operands = sparse_chain(rng, [64, 48, 80, 40], density=0.3)
        fused = build_chain_plan(list(operands), options=OPTIONS)
        hops_in_order = [hop_index for hop_index, _ in fused.schedule]
        # Downstream hops start before upstream hops finish: the schedule
        # is NOT sorted by hop (that would be barrier-per-hop execution).
        assert hops_in_order != sorted(hops_in_order)

    def test_executes_against_cache_key_checked_leaves(self, rng):
        operands = sparse_chain(rng, [48, 32, 40])
        fused = build_chain_plan(list(operands), options=OPTIONS)
        result, outcome = execute_fused_chain(
            fused, operands, config=CONFIG, cost_model=OPTIONS.resolved_cost_model()
        )
        np.testing.assert_allclose(
            result.to_dense(), dense_reference(operands), atol=1e-10
        )
        assert len(outcome.steps) == fused.num_hops

    def test_mismatched_leaves_rejected(self, rng):
        operands = sparse_chain(rng, [48, 32, 40])
        fused = build_chain_plan(list(operands), options=OPTIONS)
        other = sparse_chain(rng, [48, 32, 40])
        with pytest.raises(PlanMismatchError):
            execute_fused_chain(
                fused,
                other,
                config=CONFIG,
                cost_model=OPTIONS.resolved_cost_model(),
            )

    def test_single_operand_rejected(self, rng):
        (operand,) = sparse_chain(rng, [48, 32])[:1]
        with pytest.raises(ShapeError):
            build_chain_plan([operand], options=OPTIONS)

    def test_chain_key_identity(self, rng):
        operands = sparse_chain(rng, [48, 32, 40, 24])
        session = Session(config=CONFIG)
        session.multiply_chain(list(operands))
        keys = [
            key
            for key in session.plan_cache._plans
            if isinstance(key, ChainKey)
        ]
        assert len(keys) == 1
        assert len(keys[0].operand_fingerprints) == 3


class TestPlanChainFixes:
    def test_empty_chain_message_is_typed(self):
        with pytest.raises(ShapeError, match="empty matrix chain"):
            plan_chain([])

    def test_dimension_mismatch_names_position(self, rng):
        good, _ = sparse_chain(rng, [48, 32, 40])
        bad = build(rng.random((16, 24)))
        with pytest.raises(ShapeError, match="at operand 0"):
            plan_chain([good, bad], config=CONFIG)

    def test_structural_plan_matches_default_for_sparse(self, rng):
        operands = sparse_chain(rng, [64, 48, 80, 40])
        default = plan_chain(list(operands), config=CONFIG)
        structural = plan_chain(list(operands), config=CONFIG, structural=True)
        # CSR patterns are fingerprinted exactly: both views agree.
        assert default.order == structural.order


class TestDeprecations:
    def test_session_front_door_does_not_warn(self, rng):
        import warnings

        operands = sparse_chain(rng, [48, 32, 40])
        session = Session(config=CONFIG)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.multiply_chain(list(operands))


class TestSolverPinning:
    def test_cg_reuses_one_pinned_fused_plan(self, rng):
        n = 64
        mask = rng.random((n, n)) < 0.05
        base = np.where(mask, rng.uniform(0.1, 1.0, size=(n, n)), 0.0)
        spd = (base + base.T) / 2.0
        np.fill_diagonal(spd, spd.sum(axis=1) + 1.0)
        matrix = build(spd)
        rhs = rng.random(n)

        session = Session(config=CONFIG)
        outcome = session.solve(matrix, rhs, method="cg", tolerance=1e-10)
        assert outcome.converged and outcome.iterations >= 3
        stats = session.cache_stats()
        assert stats.hit_rate > 0
        assert stats.hits == 1  # the pin: probes stop after one hit
        assert stats.hits < outcome.iterations

        from repro.solve import conjugate_gradient

        unpinned = conjugate_gradient(
            matrix,
            rhs,
            tolerance=1e-10,
            options=MultiplyOptions(config=CONFIG),
        )
        assert np.array_equal(outcome.solution, unpinned.solution)
