"""Metamorphic properties spanning multiple subsystems.

Each test checks an algebraic identity whose two sides exercise
*different* code paths (e.g. transpose+multiply vs. multiply+transpose),
so agreement validates both paths at once.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    COOMatrix,
    MultiplyOptions,
    SystemConfig,
    add,
    atmult,
    atmv,
    atmv_transposed,
    build_at_matrix,
    multiply_chain,
    scale,
)

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_at(rng, rows, cols, density=0.3):
    array = np.where(
        rng.random((rows, cols)) < density,
        rng.uniform(-1.0, 1.0, (rows, cols)),
        0.0,
    )
    return build_at_matrix(COOMatrix.from_dense(array), CONFIG), array


class TestAlgebraicIdentities:
    @given(st.integers(0, 10_000))
    @SETTINGS
    def test_transpose_of_product(self, seed):
        """(A B)^T == B^T A^T — transposes vs. swapped multiply order."""
        rng = np.random.default_rng(seed)
        m, k, n = (int(v) for v in rng.integers(3, 40, 3))
        a, _ = random_at(rng, m, k)
        b, _ = random_at(rng, k, n)
        left, _ = atmult(a, b, options=MultiplyOptions(config=CONFIG))
        right, _ = atmult(b.transpose(), a.transpose(), options=MultiplyOptions(config=CONFIG))
        np.testing.assert_allclose(
            left.transpose().to_dense(), right.to_dense(), atol=1e-9
        )

    @given(st.integers(0, 10_000), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @SETTINGS
    def test_scalars_factor_out(self, seed, alpha, beta):
        """(aA)(bB) == ab (AB) — scale before vs. after multiplication."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 36))
        a, _ = random_at(rng, n, n)
        b, _ = random_at(rng, n, n)
        scaled_first, _ = atmult(
            scale(a, alpha),
            scale(b, beta),
            options=MultiplyOptions(config=CONFIG),
        )
        product, _ = atmult(a, b, options=MultiplyOptions(config=CONFIG))
        scaled_after = scale(product, alpha * beta)
        np.testing.assert_allclose(
            scaled_first.to_dense(), scaled_after.to_dense(), atol=1e-9
        )

    @given(st.integers(0, 10_000))
    @SETTINGS
    def test_distributivity(self, seed):
        """A (B + C) == A B + A C — element-wise add vs. two multiplies."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 32))
        a, _ = random_at(rng, n, n)
        b, _ = random_at(rng, n, n)
        c, _ = random_at(rng, n, n)
        fused, _ = atmult(a, add(b, c), options=MultiplyOptions(config=CONFIG))
        ab, _ = atmult(a, b, options=MultiplyOptions(config=CONFIG))
        ac, _ = atmult(a, c, options=MultiplyOptions(config=CONFIG))
        separate = add(ab, ac)
        np.testing.assert_allclose(
            fused.to_dense(), separate.to_dense(), atol=1e-8
        )

    @given(st.integers(0, 10_000))
    @SETTINGS
    def test_associativity_via_chain(self, seed):
        """(A B) C == A (B C) — forced parenthesizations must agree."""
        rng = np.random.default_rng(seed)
        dims = [int(v) for v in rng.integers(3, 24, 4)]
        a, _ = random_at(rng, dims[0], dims[1])
        b, _ = random_at(rng, dims[1], dims[2])
        c, _ = random_at(rng, dims[2], dims[3])
        ab, _ = atmult(a, b, options=MultiplyOptions(config=CONFIG))
        left, _ = atmult(ab, c, options=MultiplyOptions(config=CONFIG))
        bc, _ = atmult(b, c, options=MultiplyOptions(config=CONFIG))
        right, _ = atmult(a, bc, options=MultiplyOptions(config=CONFIG))
        np.testing.assert_allclose(left.to_dense(), right.to_dense(), atol=1e-8)
        chained, _ = multiply_chain([a, b, c], options=MultiplyOptions(config=CONFIG))
        np.testing.assert_allclose(
            chained.to_dense(), left.to_dense(), atol=1e-8
        )

    @given(st.integers(0, 10_000))
    @SETTINGS
    def test_matvec_consistent_with_matmul(self, seed):
        """A @ x as ATMV == column of ATMULT against a 1-column matrix."""
        rng = np.random.default_rng(seed)
        m, k = (int(v) for v in rng.integers(3, 40, 2))
        a, _ = random_at(rng, m, k)
        x = rng.uniform(-1.0, 1.0, k)
        column = build_at_matrix(
            COOMatrix.from_dense(x.reshape(-1, 1)), CONFIG
        )
        via_mv = atmv(a, x)
        via_mm, _ = atmult(a, column, options=MultiplyOptions(config=CONFIG))
        np.testing.assert_allclose(
            via_mv, via_mm.to_dense().ravel(), atol=1e-9
        )

    @given(st.integers(0, 10_000))
    @SETTINGS
    def test_transposed_matvec_identity(self, seed):
        """x^T A computed two ways: atmv_transposed vs. transpose+atmv."""
        rng = np.random.default_rng(seed)
        m, k = (int(v) for v in rng.integers(3, 40, 2))
        a, _ = random_at(rng, m, k)
        x = rng.uniform(-1.0, 1.0, m)
        np.testing.assert_allclose(
            atmv_transposed(a, x), atmv(a.transpose(), x), atol=1e-9
        )

    @given(st.integers(0, 10_000))
    @SETTINGS
    def test_gram_matrix_symmetry(self, seed):
        """A^T A must come out numerically symmetric."""
        rng = np.random.default_rng(seed)
        m, k = (int(v) for v in rng.integers(3, 36, 2))
        a, _ = random_at(rng, m, k)
        gram, _ = atmult(a.transpose(), a, options=MultiplyOptions(config=CONFIG))
        dense = gram.to_dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-9)
