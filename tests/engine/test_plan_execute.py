"""The plan/execute split: correctness, replayability, mismatch guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    COOMatrix,
    MultiplyOptions,
    PlanMismatchError,
    atmult,
    build_at_matrix,
    execute,
    plan,
)
from repro.formats import coo_to_csr

from ..conftest import as_csr, as_dense, heterogeneous_array, random_sparse_array


@pytest.fixture
def workload(rng, small_config):
    a = heterogeneous_array(rng, 90, 70, background=0.06)
    b = heterogeneous_array(rng, 70, 85, background=0.06)
    at_a = build_at_matrix(COOMatrix.from_dense(a), small_config)
    at_b = build_at_matrix(COOMatrix.from_dense(b), small_config)
    return a, b, at_a, at_b


class TestPlanStructure:
    def test_plan_captures_pairs_and_threshold(self, workload, small_config):
        _, _, at_a, at_b = workload
        execution_plan = plan(at_a, at_b, options=MultiplyOptions(config=small_config))
        assert execution_plan.shape == (90, 85)
        assert execution_plan.pairs
        assert execution_plan.num_products >= len(execution_plan.pairs)
        assert execution_plan.write_threshold > 0
        # every planned pair carries its target geometry and kind choice
        for pair in execution_plan.pairs:
            assert 0 <= pair.r0 < pair.r1 <= 90
            assert 0 <= pair.c0 < pair.c1 <= 85

    def test_plan_is_deterministic(self, workload, small_config):
        _, _, at_a, at_b = workload
        first = plan(at_a, at_b, options=MultiplyOptions(config=small_config))
        second = plan(at_a, at_b, options=MultiplyOptions(config=small_config))
        assert first.a_fingerprint == second.a_fingerprint
        assert first.setup_key == second.setup_key
        assert [p.c_kind for p in first.pairs] == [p.c_kind for p in second.pairs]


class TestExecuteCorrectness:
    def test_execute_matches_atmult(self, workload, small_config):
        a, b, at_a, at_b = workload
        execution_plan = plan(at_a, at_b, options=MultiplyOptions(config=small_config))
        planned, _ = execute(
            execution_plan,
            at_a,
            at_b,
            options=MultiplyOptions(config=small_config),
        )
        direct, _ = atmult(at_a, at_b, options=MultiplyOptions(config=small_config))
        np.testing.assert_allclose(planned.to_dense(), a @ b, atol=1e-10)
        assert np.array_equal(planned.to_dense(), direct.to_dense())

    def test_execute_with_plain_operands(self, rng, small_config):
        a = random_sparse_array(rng, 64, 48, 0.15)
        b = random_sparse_array(rng, 48, 56, 0.4)
        csr_a, dense_b = as_csr(a), as_dense(b)
        execution_plan = plan(csr_a, dense_b, options=MultiplyOptions(config=small_config))
        result, report = execute(
            execution_plan,
            csr_a,
            dense_b,
            options=MultiplyOptions(config=small_config),
        )
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-10)
        assert sum(report.kernel_counts.values()) >= 1

    def test_execute_seeds_c(self, workload, rng, small_config):
        a, b, at_a, at_b = workload
        seed = random_sparse_array(rng, 90, 85, 0.1)
        execution_plan = plan(at_a, at_b, options=MultiplyOptions(config=small_config))
        result, _ = execute(
            execution_plan,
            at_a,
            at_b,
            as_dense(seed),
            options=MultiplyOptions(config=small_config),
        )
        np.testing.assert_allclose(result.to_dense(), seed + a @ b, atol=1e-10)


class TestReplay:
    def test_replay_with_changed_values_same_pattern(self, rng, small_config):
        pattern = random_sparse_array(rng, 64, 64, 0.12)
        first = as_csr(pattern)
        # same nonzero pattern, new values
        rescaled = coo_to_csr(COOMatrix.from_dense(np.where(pattern != 0, pattern * 3.5, 0.0)))
        execution_plan = plan(first, first, options=MultiplyOptions(config=small_config))
        result, _ = execute(
            execution_plan,
            rescaled,
            rescaled,
            options=MultiplyOptions(config=small_config),
        )
        dense = rescaled.to_dense()
        np.testing.assert_allclose(result.to_dense(), dense @ dense, atol=1e-10)

    def test_mismatched_topology_raises(self, rng, small_config):
        a = as_csr(random_sparse_array(rng, 64, 64, 0.12))
        other = as_csr(random_sparse_array(rng, 64, 64, 0.3))
        execution_plan = plan(a, a, options=MultiplyOptions(config=small_config))
        with pytest.raises(PlanMismatchError):
            execute(execution_plan, other, other, options=MultiplyOptions(config=small_config))

    def test_describe_and_histogram(self, workload, small_config):
        _, _, at_a, at_b = workload
        execution_plan = plan(at_a, at_b, options=MultiplyOptions(config=small_config))
        text = execution_plan.describe()
        assert "pairs" in text
        histogram = execution_plan.kernel_histogram()
        assert sum(histogram.values()) == execution_plan.num_products


class TestAblationFlagsInPlan:
    def test_no_estimation_plan_is_all_sparse(self, workload, small_config):
        _, _, at_a, at_b = workload
        execution_plan = plan(
            at_a,
            at_b,
            options=MultiplyOptions(config=small_config, use_estimation=False),
        )
        assert execution_plan.use_estimation is False
        assert execution_plan.estimate is None
        assert np.isinf(execution_plan.write_threshold)
