"""PlanCache correctness: keying, invalidation, LRU eviction, metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    COOMatrix,
    CostModel,
    MultiplyOptions,
    PlanCache,
    atmult,
    build_at_matrix,
    observe,
)
from repro.engine.cache import PlanKey
from repro.engine.fingerprint import structure_fingerprint

from ..conftest import as_csr, random_sparse_array


@pytest.fixture
def cache() -> PlanCache:
    return PlanCache()


class TestKeying:
    def test_repeated_multiply_hits(self, rng, small_config, cache):
        array = random_sparse_array(rng, 64, 64, 0.15)
        matrix = build_at_matrix(COOMatrix.from_dense(array), small_config)
        options = MultiplyOptions(config=small_config, plan_cache=cache)
        atmult(matrix, matrix, options=options)
        atmult(matrix, matrix, options=options)
        atmult(matrix, matrix, options=options)
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.hits == 2
        assert stats.entries == 1

    def test_structure_change_invalidates(self, rng, small_config, cache):
        array = random_sparse_array(rng, 64, 64, 0.15)
        first = as_csr(array)
        # different nonzero pattern => different structure fingerprint
        shifted = np.roll(array, 1, axis=1)
        second = as_csr(shifted)
        assert structure_fingerprint(first) != structure_fingerprint(second)
        options = MultiplyOptions(config=small_config, plan_cache=cache)
        atmult(first, first, options=options)
        atmult(second, second, options=options)
        stats = cache.stats()
        assert stats.misses == 2
        assert stats.hits == 0

    def test_value_change_same_pattern_still_hits(self, rng, small_config, cache):
        array = random_sparse_array(rng, 64, 64, 0.15)
        first = as_csr(array)
        second = as_csr(np.where(array != 0, array * 7.0, 0.0))
        assert structure_fingerprint(first) == structure_fingerprint(second)
        options = MultiplyOptions(config=small_config, plan_cache=cache)
        atmult(first, first, options=options)
        result, _ = atmult(second, second, options=options)
        dense = second.to_dense()
        np.testing.assert_allclose(result.to_dense(), dense @ dense, atol=1e-10)
        assert cache.stats().hits == 1

    def test_config_hash_invalidates(self, rng, small_config, cache):
        array = random_sparse_array(rng, 64, 64, 0.15)
        matrix = build_at_matrix(COOMatrix.from_dense(array), small_config)
        atmult(
            matrix,
            matrix,
            options=MultiplyOptions(config=small_config, plan_cache=cache),
        )
        # a different cost model is a different planning input
        atmult(
            matrix,
            matrix,
            options=MultiplyOptions(
                config=small_config,
                cost_model=CostModel(write_threshold=0.9),
                plan_cache=cache,
            ),
        )
        # so is a different memory limit or ablation flag
        atmult(
            matrix,
            matrix,
            options=MultiplyOptions(
                config=small_config, plan_cache=cache, use_estimation=False
            ),
        )
        stats = cache.stats()
        assert stats.misses == 3
        assert stats.hits == 0
        assert stats.entries == 3


class TestLRU:
    def _distinct_plans(self, rng, small_config, count: int = 4):
        from repro import plan as plan_api

        plans = []
        for _ in range(count):
            matrix = build_at_matrix(
                COOMatrix.from_dense(random_sparse_array(rng, 64, 64, 0.15)),
                small_config,
            )
            plans.append(
                plan_api(matrix, matrix, options=MultiplyOptions(config=small_config))
            )
        # distinct patterns => distinct keys
        assert len({p.a_fingerprint for p in plans}) == count
        return plans

    @staticmethod
    def _key(execution_plan) -> PlanKey:
        return PlanKey(
            execution_plan.a_fingerprint,
            execution_plan.b_fingerprint,
            execution_plan.setup_key,
        )

    def test_eviction_under_byte_budget(self, rng, small_config):
        plans = self._distinct_plans(rng, small_config)
        sizes = [p.memory_bytes() for p in plans]
        assert all(size > 0 for size in sizes)
        # budget fits the first two plans exactly; the third must evict
        cache = PlanCache(max_bytes=sizes[0] + sizes[1])
        for execution_plan in plans:
            cache.put(self._key(execution_plan), execution_plan)
        stats = cache.stats()
        assert stats.evictions >= 1
        assert stats.bytes <= cache.max_bytes
        assert len(cache) < len(plans)

    def test_lru_order_evicts_least_recently_used(self, rng, small_config):
        first, second, third, _ = self._distinct_plans(rng, small_config)
        cache = PlanCache(max_bytes=first.memory_bytes() + second.memory_bytes())
        cache.put(self._key(first), first)
        cache.put(self._key(second), second)
        assert cache.get(self._key(first)) is first  # first becomes MRU
        cache.put(self._key(third), third)  # evicts LRU = second
        assert cache.get(self._key(first)) is first
        assert cache.get(self._key(second)) is None
        assert cache.stats().evictions >= 1

    def test_oversized_plan_is_not_cached(self, rng, small_config):
        matrix = build_at_matrix(
            COOMatrix.from_dense(random_sparse_array(rng, 64, 64, 0.15)),
            small_config,
        )
        tiny = PlanCache(max_bytes=16)
        atmult(
            matrix,
            matrix,
            options=MultiplyOptions(config=small_config, plan_cache=tiny),
        )
        assert len(tiny) == 0

    def test_clear_resets_entries_not_counters(self, rng, small_config, cache):
        matrix = build_at_matrix(
            COOMatrix.from_dense(random_sparse_array(rng, 64, 64, 0.15)),
            small_config,
        )
        options = MultiplyOptions(config=small_config, plan_cache=cache)
        atmult(matrix, matrix, options=options)
        atmult(matrix, matrix, options=options)
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0
        assert cache.stats().hits == 1


class TestObserveMetrics:
    def test_hit_miss_counters_land_in_session(self, rng, small_config, cache):
        matrix = build_at_matrix(
            COOMatrix.from_dense(random_sparse_array(rng, 64, 64, 0.15)),
            small_config,
        )
        options = MultiplyOptions(config=small_config, plan_cache=cache)
        with observe() as obs:
            atmult(matrix, matrix, options=options)
            atmult(matrix, matrix, options=options)
        assert obs.metrics.value("plan_cache.misses") == 1
        assert obs.metrics.value("plan_cache.hits") == 1
        assert obs.metrics.value("plan.builds") == 1


class TestPlanKey:
    def test_keys_are_hashable_values(self):
        key = PlanKey("a", "b", "setup")
        assert key == PlanKey("a", "b", "setup")
        assert hash(key) == hash(PlanKey("a", "b", "setup"))
        assert key != PlanKey("a", "b", "other")
