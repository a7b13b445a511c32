"""Tests for the reference Gustavson kernels and the plug-in mechanism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import COOMatrix, MultiplyOptions, SystemConfig, atmult, build_at_matrix
from repro.kernels.gemm import spspsp_gemm
from repro.kernels.reference import gustavson_spsp, use_reference_kernels

from ..conftest import as_csr, heterogeneous_array, random_sparse_array


class TestGustavsonReference:
    def test_matches_numpy(self, rng):
        a = random_sparse_array(rng, 15, 20, 0.3)
        b = random_sparse_array(rng, 20, 12, 0.3)
        got = gustavson_spsp(as_csr(a), as_csr(b))
        np.testing.assert_allclose(got.to_dense(), a @ b, atol=1e-12)

    def test_matches_vectorized_kernel(self, rng):
        a = random_sparse_array(rng, 18, 18, 0.25)
        reference = gustavson_spsp(as_csr(a), as_csr(a))
        vectorized = spspsp_gemm(as_csr(a), as_csr(a))
        np.testing.assert_allclose(
            reference.to_dense(), vectorized.to_dense(), atol=1e-12
        )

    def test_empty_operands(self):
        from repro.formats.csr import CSRMatrix

        empty = CSRMatrix.empty(4, 4)
        assert gustavson_spsp(empty, empty).nnz == 0

    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_reference_is_oracle(self, seed):
        """The two independent implementations must agree exactly in
        structure (same nnz) and numerically."""
        rng = np.random.default_rng(seed)
        m, k, n = (int(v) for v in rng.integers(1, 15, 3))
        a = random_sparse_array(rng, m, k, 0.4)
        b = random_sparse_array(rng, k, n, 0.4)
        reference = gustavson_spsp(as_csr(a), as_csr(b))
        vectorized = spspsp_gemm(as_csr(a), as_csr(b))
        assert reference.nnz == vectorized.nnz
        np.testing.assert_allclose(
            reference.to_dense(), vectorized.to_dense(), atol=1e-12
        )


class TestPlugIn:
    def test_atmult_runs_on_reference_kernels(self, rng):
        """The paper's plug-in claim: swap kernels, keep the optimizer."""
        config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
        array = heterogeneous_array(rng, 64, 64)
        at = build_at_matrix(COOMatrix.from_dense(array), config)
        baseline, _ = atmult(at, at, options=MultiplyOptions(config=config))
        with use_reference_kernels():
            plugged, report = atmult(at, at, options=MultiplyOptions(config=config))
        np.testing.assert_allclose(
            plugged.to_dense(), baseline.to_dense(), atol=1e-10
        )
        assert report.kernel_counts  # products actually ran

    def test_registry_restored_after_context(self, rng):
        from repro.kernels.registry import get_kernel
        from repro.kinds import StorageKind

        before = get_kernel(StorageKind.SPARSE, StorageKind.SPARSE, StorageKind.SPARSE)
        with use_reference_kernels():
            inside = get_kernel(
                StorageKind.SPARSE, StorageKind.SPARSE, StorageKind.SPARSE
            )
            assert inside is not before
        after = get_kernel(StorageKind.SPARSE, StorageKind.SPARSE, StorageKind.SPARSE)
        assert after is before

    def test_registry_restored_on_error(self):
        from repro.kernels.registry import get_kernel
        from repro.kinds import StorageKind

        before = get_kernel(StorageKind.SPARSE, StorageKind.SPARSE, StorageKind.SPARSE)
        with pytest.raises(RuntimeError), use_reference_kernels():
            raise RuntimeError("boom")
        assert (
            get_kernel(StorageKind.SPARSE, StorageKind.SPARSE, StorageKind.SPARSE)
            is before
        )
