"""Cross-module property-based tests (hypothesis)."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    COOMatrix,
    MultiplyOptions,
    SystemConfig,
    atmult,
    build_at_matrix,
    fixed_grid_at_matrix,
)
from repro.core.operands import as_at_matrix
from repro.formats import coo_to_csr, coo_to_dense

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_matrix(rng, rows, cols):
    """Random matrix drawn from one of several topology classes."""
    style = rng.integers(0, 4)
    density = float(rng.uniform(0.02, 0.4))
    array = np.where(
        rng.random((rows, cols)) < density, rng.uniform(0.1, 1.0, (rows, cols)), 0.0
    )
    if style == 1 and min(rows, cols) >= 8:  # dense corner
        b = min(rows, cols) // 2
        array[:b, :b] = rng.uniform(0.1, 1.0, (b, b))
    elif style == 2:  # banded
        mask = np.abs(np.arange(rows)[:, None] - np.arange(cols)[None, :]) > 3
        array[mask] = 0.0
    elif style == 3:  # empty rows/cols stripes
        array[:: max(2, rows // 4)] = 0.0
    return array


class TestMultiplicationProperties:
    @given(st.integers(0, 10_000))
    @SETTINGS
    def test_atmult_equals_numpy(self, seed):
        rng = np.random.default_rng(seed)
        config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
        m, k, n = (int(x) for x in rng.integers(3, 70, 3))
        a = random_matrix(rng, m, k)
        b = random_matrix(rng, k, n)
        at_a = build_at_matrix(COOMatrix.from_dense(a), config)
        at_b = build_at_matrix(COOMatrix.from_dense(b), config)
        result, _ = atmult(at_a, at_b, options=MultiplyOptions(config=config))
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-9)

    @given(st.integers(0, 10_000))
    @SETTINGS
    def test_adaptive_and_fixed_tilings_agree(self, seed):
        rng = np.random.default_rng(seed)
        config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
        n = int(rng.integers(8, 64))
        a = random_matrix(rng, n, n)
        staged = COOMatrix.from_dense(a)
        adaptive = build_at_matrix(staged, config)
        fixed = fixed_grid_at_matrix(staged, config, mixed=True)
        r1, _ = atmult(adaptive, adaptive, options=MultiplyOptions(config=config))
        r2, _ = atmult(fixed, fixed, options=MultiplyOptions(config=config))
        np.testing.assert_allclose(r1.to_dense(), r2.to_dense(), atol=1e-9)

    @given(st.integers(0, 10_000))
    @SETTINGS
    def test_operand_representation_invariance(self, seed):
        """The result must not depend on operand representations."""
        rng = np.random.default_rng(seed)
        config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
        n = int(rng.integers(4, 48))
        a = random_matrix(rng, n, n)
        staged = COOMatrix.from_dense(a)
        variants = [
            build_at_matrix(staged, config),
            coo_to_csr(staged),
            coo_to_dense(staged),
        ]
        reference = None
        for va in variants:
            result, _ = atmult(va, variants[0], options=MultiplyOptions(config=config))
            dense = result.to_dense()
            if reference is None:
                reference = dense
            else:
                np.testing.assert_allclose(dense, reference, atol=1e-9)

    @given(st.integers(0, 10_000))
    @SETTINGS
    def test_accumulation_is_addition(self, seed):
        rng = np.random.default_rng(seed)
        config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
        n = int(rng.integers(4, 40))
        a = random_matrix(rng, n, n)
        at = build_at_matrix(COOMatrix.from_dense(a), config)
        once, _ = atmult(at, at, options=MultiplyOptions(config=config))
        twice, _ = atmult(at, at, c=once, options=MultiplyOptions(config=config))
        np.testing.assert_allclose(twice.to_dense(), 2 * (a @ a), atol=1e-8)


class TestStructuralProperties:
    @given(st.integers(0, 10_000))
    @SETTINGS
    def test_memory_never_exceeds_dense(self, seed):
        """AT Matrix memory is 'always lower than a plain dense array'."""
        rng = np.random.default_rng(seed)
        config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
        n = int(rng.integers(16, 100))
        a = random_matrix(rng, n, n)
        at = build_at_matrix(COOMatrix.from_dense(a), config)
        dense_bytes = n * n * config.dense_element_bytes
        assert at.memory_bytes() <= dense_bytes + 1e-9

    @given(st.integers(0, 10_000))
    @SETTINGS
    def test_wrapped_operand_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
        n = int(rng.integers(2, 50))
        a = random_matrix(rng, n, n)
        wrapped = as_at_matrix(coo_to_csr(COOMatrix.from_dense(a)), config)
        np.testing.assert_allclose(wrapped.to_dense(), a)
