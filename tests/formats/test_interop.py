"""Tests for scipy/numpy interoperability adapters."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import FormatError
from repro.formats.interop import (
    csr_from_scipy,
    from_numpy,
    from_scipy,
    to_scipy_coo,
    to_scipy_csr,
)

from ..conftest import random_sparse_array
from repro import MultiplyOptions


@pytest.fixture
def array(rng):
    return random_sparse_array(rng, 20, 33, 0.2)


class TestFromScipy:
    @pytest.mark.parametrize("format_", ["coo", "csr", "csc", "lil"])
    def test_all_scipy_formats(self, array, format_):
        scipy_matrix = sp.coo_matrix(array).asformat(format_)
        coo = from_scipy(scipy_matrix)
        np.testing.assert_allclose(coo.to_dense(), array)

    def test_csr_from_scipy(self, array):
        csr = csr_from_scipy(sp.csc_matrix(array))
        np.testing.assert_allclose(csr.to_dense(), array)

    def test_duplicates_summed(self):
        scipy_matrix = sp.coo_matrix(
            (np.array([1.0, 2.0]), (np.array([0, 0]), np.array([0, 0]))),
            shape=(2, 2),
        )
        assert csr_from_scipy(scipy_matrix).to_dense()[0, 0] == 3.0


class TestToScipy:
    def test_coo_roundtrip(self, array):
        coo = from_numpy(array)
        back = to_scipy_coo(coo)
        np.testing.assert_allclose(back.toarray(), array)

    def test_csr_roundtrip(self, array):
        csr = csr_from_scipy(sp.csr_matrix(array))
        back = to_scipy_csr(csr)
        np.testing.assert_allclose(back.toarray(), array)
        assert sp.issparse(back)


class TestFromNumpy:
    def test_stages_nonzeros(self, array):
        coo = from_numpy(array)
        assert coo.nnz == np.count_nonzero(array)

    def test_rejects_non_2d(self):
        with pytest.raises(FormatError):
            from_numpy(np.zeros(4))

    def test_full_pipeline_from_scipy(self, array):
        """scipy -> AT Matrix -> multiply -> scipy, end to end."""
        from repro import SystemConfig, atmult, build_at_matrix

        config = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
        a = build_at_matrix(from_scipy(sp.csr_matrix(array)), config)
        result, _ = atmult(a, a.transpose(), options=MultiplyOptions(config=config))
        expected = (sp.csr_matrix(array) @ sp.csr_matrix(array).T).toarray()
        np.testing.assert_allclose(result.to_dense(), expected, atol=1e-9)
