"""MultiplyOptions: the one way to configure a multiply entry point."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import (
    COOMatrix,
    CostModel,
    MultiplyOptions,
    PlanCache,
    Session,
    atmult,
    build_at_matrix,
    multiply_chain,
    parallel_atmult,
)
from repro.engine.fingerprint import config_fingerprint
from repro.topology import SystemTopology

from ..conftest import heterogeneous_array

#: keywords the entry points accepted before 2.0; each is now a TypeError
REMOVED_KEYWORDS = (
    "config",
    "cost_model",
    "plan_cache",
    "memory_limit_bytes",
    "dynamic_conversion",
    "use_estimation",
    "resilience",
    "observer",
)


@pytest.fixture
def operands(rng, small_config):
    array = heterogeneous_array(rng, 80, 80, background=0.05)
    matrix = build_at_matrix(COOMatrix.from_dense(array), small_config)
    return array, matrix


class TestCoercion:
    def test_defaults_pass_through(self, operands):
        _, matrix = operands
        implicit, _ = atmult(matrix, matrix)
        explicit, _ = atmult(matrix, matrix, options=MultiplyOptions())
        assert np.array_equal(implicit.to_dense(), explicit.to_dense())

    def test_options_instance_is_used_verbatim(self, operands, small_config):
        _, matrix = operands
        cache = PlanCache()
        options = MultiplyOptions(config=small_config, plan_cache=cache)
        atmult(matrix, matrix, options=options)
        atmult(matrix, matrix, options=options)
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.entries) == (1, 1, 1)

    def test_unknown_keyword_raises_type_error(self, operands):
        _, matrix = operands
        topology = SystemTopology(sockets=2, cores_per_socket=1)
        for keyword in (*REMOVED_KEYWORDS, "bogus"):
            with pytest.raises(TypeError, match=keyword):
                atmult(matrix, matrix, **{keyword: None})
            with pytest.raises(TypeError, match=keyword):
                parallel_atmult(matrix, matrix, topology=topology, **{keyword: None})
            with pytest.raises(TypeError, match=keyword):
                multiply_chain([matrix, matrix], **{keyword: None})

    def test_config_and_cost_model_fold_in_silently(self, small_config):
        model = CostModel()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            session = Session(config=small_config, cost_model=model)
        assert session.options.config is small_config
        assert session.options.cost_model is model
        assert session.options.plan_cache is not None


class TestOneConsolidatedWarning:
    def test_options_only_call_is_warning_free(self, operands, small_config):
        _, matrix = operands
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            atmult(matrix, matrix, options=MultiplyOptions(config=small_config))


class TestSetupKeyMemo:
    """The setup key is hashed once per frozen options instance."""

    def test_memoized_key_equals_a_fresh_computation(self, small_config):
        options = MultiplyOptions(
            config=small_config,
            cost_model=CostModel(write_threshold=0.1),
            memory_limit_bytes=1e6,
        )
        first = config_fingerprint(options)
        assert config_fingerprint(options) is first  # served from the memo
        assert first == config_fingerprint(options.replace())  # a fresh instance
        assert first != config_fingerprint(options.replace(use_estimation=False))

    def test_memo_is_invisible_to_equality(self, small_config):
        options = MultiplyOptions(config=small_config)
        config_fingerprint(options)
        assert options == MultiplyOptions(config=small_config)
        assert hash(options) == hash(MultiplyOptions(config=small_config))

    @pytest.mark.parametrize(
        "field", ["coefficients", "read_threshold", "write_threshold"]
    )
    def test_cost_model_fields_are_read_only(self, field):
        model = CostModel()
        with pytest.raises(AttributeError):
            setattr(model, field, getattr(model, field))
