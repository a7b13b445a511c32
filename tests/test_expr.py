"""Tests for the lazy expression layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import COOMatrix, MultiplyOptions, SystemConfig, build_at_matrix
from repro.errors import ShapeError
from repro.expr import M, Product

from .conftest import as_csr, random_sparse_array

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
OPTIONS = MultiplyOptions(config=CONFIG)


def leaf(array):
    return M(build_at_matrix(COOMatrix.from_dense(array), CONFIG))


@pytest.fixture
def arrays(rng):
    a = random_sparse_array(rng, 24, 30, 0.3)
    b = random_sparse_array(rng, 30, 18, 0.3)
    c = random_sparse_array(rng, 18, 24, 0.3)
    return a, b, c


class TestComposition:
    def test_product(self, arrays):
        a, b, _ = arrays
        result = (leaf(a) @ leaf(b)).evaluate(options=OPTIONS)
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-9)

    def test_three_factor_chain_flattens(self, arrays):
        a, b, c = arrays
        expr = leaf(a) @ leaf(b) @ leaf(c)
        assert isinstance(expr, Product)
        assert len(expr._chain()) == 3
        result = expr.evaluate(options=OPTIONS)
        np.testing.assert_allclose(result.to_dense(), a @ b @ c, atol=1e-8)

    def test_sum_and_scale(self, arrays):
        a, _, _ = arrays
        expr = 2.0 * leaf(a) + leaf(a) * 0.5
        result = expr.evaluate(options=OPTIONS)
        np.testing.assert_allclose(result.to_dense(), 2.5 * a, atol=1e-10)

    def test_subtraction(self, arrays):
        a, _, _ = arrays
        result = (leaf(a) - leaf(a)).evaluate(options=OPTIONS)
        assert result.nnz == 0

    def test_shape_checking(self, arrays):
        a, b, _ = arrays
        with pytest.raises(ShapeError):
            leaf(a) @ leaf(a)
        with pytest.raises(ShapeError):
            leaf(a) + leaf(b)

    def test_plain_operands_auto_wrapped(self, arrays):
        a, b, _ = arrays
        result = (M(as_csr(a)) @ as_csr(b)).evaluate(options=OPTIONS)
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-9)


class TestTransposeNormalization:
    def test_simple_transpose(self, arrays):
        a, _, _ = arrays
        result = leaf(a).T.evaluate(options=OPTIONS)
        np.testing.assert_allclose(result.to_dense(), a.T)

    def test_double_transpose_cancels(self, arrays):
        a, _, _ = arrays
        expr = leaf(a).T.T
        assert "^T" not in expr.plan()
        np.testing.assert_allclose(expr.evaluate(options=OPTIONS).to_dense(), a)

    def test_product_transpose_pushed_down(self, arrays):
        a, b, _ = arrays
        expr = (leaf(a) @ leaf(b)).T
        plan = expr.plan()
        # (A B)^T becomes B^T @ A^T: leaf transposes, reversed order.
        assert plan.count("^T") == 2
        result = expr.evaluate(options=OPTIONS)
        np.testing.assert_allclose(result.to_dense(), (a @ b).T, atol=1e-9)

    def test_gram_expression(self, arrays):
        a, _, _ = arrays
        gram = (leaf(a).T @ leaf(a)).evaluate(options=OPTIONS)
        np.testing.assert_allclose(gram.to_dense(), a.T @ a, atol=1e-9)

    def test_sum_transpose_distributes(self, arrays):
        a, _, _ = arrays
        expr = (leaf(a) + leaf(a)).T
        np.testing.assert_allclose(
            expr.evaluate(options=OPTIONS).to_dense(), 2 * a.T, atol=1e-10
        )

    def test_scaled_transpose(self, arrays):
        a, _, _ = arrays
        expr = (3.0 * leaf(a)).T
        np.testing.assert_allclose(
            expr.evaluate(options=OPTIONS).to_dense(), 3.0 * a.T, atol=1e-10
        )

    def test_nested_scalars_collapse(self, arrays):
        a, _, _ = arrays
        expr = (2.0 * (3.0 * leaf(a)))._pushdown(False)
        assert "6.0 *" in expr._describe()


class TestExprProperties:
    @given(st.integers(0, 2000))
    @settings(max_examples=15, deadline=None)
    def test_random_expressions_match_numpy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 24))
        a = random_sparse_array(rng, n, n, 0.35)
        b = random_sparse_array(rng, n, n, 0.35)
        expr = (M(as_csr(a)) @ M(as_csr(b)).T + 0.5 * M(as_csr(a))).T
        expected = (a @ b.T + 0.5 * a).T
        result = expr.evaluate(options=OPTIONS)
        np.testing.assert_allclose(result.to_dense(), expected, atol=1e-9)
