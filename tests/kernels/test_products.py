"""Tests for the windowed tile-product primitives against numpy oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.kernels import DenseAccumulator, Window, run_tile_product
from repro.kernels import products

from ..conftest import as_csr, as_dense, random_sparse_array


def triples_to_dense(shape, triples):
    rows, cols, vals = triples
    out = np.zeros(shape)
    out[rows, cols] = vals
    return out


def spsp_into_dense(a, wa, b, wb, *, pad=(0, 0), offset=(0, 0)):
    """The sp x sp kernel's in-place scatter into a fresh dense target."""
    out = DenseAccumulator(wa.rows + pad[0], wb.cols + pad[1])
    run_tile_product(as_csr(a), wa, as_csr(b), wb, out, *offset)
    return out


@pytest.fixture
def operands(rng):
    a = random_sparse_array(rng, 17, 23, 0.25)
    b = random_sparse_array(rng, 23, 13, 0.3)
    return a, b


class TestFullProducts:
    def test_spsp_triples(self, operands):
        a, b = operands
        wa, wb = Window.full(a.shape), Window.full(b.shape)
        got = triples_to_dense((17, 13), products.spsp_triples(as_csr(a), wa, as_csr(b), wb))
        np.testing.assert_allclose(got, a @ b)

    def test_spsp_dense(self, operands):
        a, b = operands
        got = spsp_into_dense(a, Window.full(a.shape), b, Window.full(b.shape)).array
        np.testing.assert_allclose(got, a @ b)

    def test_spd_dense(self, operands):
        a, b = operands
        got = products.spd_dense(
            as_csr(a), Window.full(a.shape), as_dense(b), Window.full(b.shape)
        )
        np.testing.assert_allclose(got, a @ b)

    def test_dsp_dense(self, operands):
        a, b = operands
        got = products.dsp_dense(
            as_dense(a), Window.full(a.shape), as_csr(b), Window.full(b.shape)
        )
        np.testing.assert_allclose(got, a @ b)

    def test_dd_dense(self, operands):
        a, b = operands
        got = products.dd_dense(
            as_dense(a), Window.full(a.shape), as_dense(b), Window.full(b.shape)
        )
        np.testing.assert_allclose(got, a @ b)

    def test_triples_variants_match_dense(self, operands):
        a, b = operands
        wa, wb = Window.full(a.shape), Window.full(b.shape)
        for fn in (products.spd_triples, products.dsp_triples, products.dd_triples):
            a_op = as_csr(a) if fn is products.spd_triples else as_dense(a)
            b_op = as_csr(b) if fn is products.dsp_triples else as_dense(b)
            got = triples_to_dense((17, 13), fn(a_op, wa, b_op, wb))
            np.testing.assert_allclose(got, a @ b)

    def test_flops_counts_scalar_products(self, operands):
        a, b = operands
        wa, wb = Window.full(a.shape), Window.full(b.shape)
        flops = products.spsp_flops(as_csr(a), wa, as_csr(b), wb)
        expected = sum(
            int((a[:, k] != 0).sum()) * int((b[k] != 0).sum()) for k in range(23)
        )
        assert flops == expected


class TestWindowedProducts:
    def test_inner_mismatch_rejected(self, operands):
        a, b = operands
        with pytest.raises(ShapeError):
            products.spsp_triples(
                as_csr(a), Window(0, 2, 0, 5), as_csr(b), Window(0, 4, 0, 2)
            )

    def test_empty_window_product(self, operands):
        a, b = operands
        rows, cols, vals = products.spsp_triples(
            as_csr(a), Window(0, 0, 0, 0), as_csr(b), Window(0, 0, 0, 0)
        )
        assert len(vals) == 0

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_random_windows_match_numpy(self, seed):
        rng = np.random.default_rng(seed)
        m, k, n = rng.integers(2, 25, 3)
        a = random_sparse_array(rng, m, k, 0.35)
        b = random_sparse_array(rng, k, n, 0.35)
        r0, r1 = sorted(map(int, rng.integers(0, m + 1, 2)))
        k0, k1 = sorted(map(int, rng.integers(0, k + 1, 2)))
        c0, c1 = sorted(map(int, rng.integers(0, n + 1, 2)))
        wa = Window(r0, r1, k0, k1)
        wb = Window(k0, k1, c0, c1)
        expected = a[r0:r1, k0:k1] @ b[k0:k1, c0:c1]
        if expected.size == 0:
            return
        shape = (r1 - r0, c1 - c0)
        results = [
            triples_to_dense(shape, products.spsp_triples(as_csr(a), wa, as_csr(b), wb)),
            spsp_into_dense(a, wa, b, wb).array,
            products.spd_dense(as_csr(a), wa, as_dense(b), wb),
            products.dsp_dense(as_dense(a), wa, as_csr(b), wb),
            products.dd_dense(as_dense(a), wa, as_dense(b), wb),
        ]
        for got in results:
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestChunking:
    def test_spsp_chunked_matches_unchunked(self, rng, monkeypatch):
        a = random_sparse_array(rng, 40, 40, 0.3)
        b = random_sparse_array(rng, 40, 40, 0.3)
        wa, wb = Window.full(a.shape), Window.full(b.shape)
        expected = a @ b
        monkeypatch.setattr(products, "EXPANSION_CHUNK", 64)
        got = triples_to_dense((40, 40), products.spsp_triples(as_csr(a), wa, as_csr(b), wb))
        np.testing.assert_allclose(got, expected)

    def test_spd_chunked(self, rng, monkeypatch):
        a = random_sparse_array(rng, 30, 30, 0.3)
        b = random_sparse_array(rng, 30, 20, 0.5)
        monkeypatch.setattr(products, "EXPANSION_CHUNK", 50)
        got = products.spd_dense(
            as_csr(a), Window.full(a.shape), as_dense(b), Window.full(b.shape)
        )
        np.testing.assert_allclose(got, a @ b)

    def test_dsp_chunked(self, rng, monkeypatch):
        a = random_sparse_array(rng, 20, 30, 0.5)
        b = random_sparse_array(rng, 30, 30, 0.3)
        monkeypatch.setattr(products, "EXPANSION_CHUNK", 50)
        got = products.dsp_dense(
            as_dense(a), Window.full(a.shape), as_csr(b), Window.full(b.shape)
        )
        np.testing.assert_allclose(got, a @ b)


class TestInPlaceScatter:
    """The sp x sp kernel adds its raw expansion into a dense target."""

    @pytest.mark.parametrize(
        "wa, wb",
        [
            (Window(0, 30, 0, 40), Window(0, 40, 0, 35)),  # full width
            (Window(4, 27, 0, 40), Window(0, 40, 0, 35)),  # row band, full width
            (Window(3, 25, 6, 31), Window(6, 31, 2, 29)),  # interior windows
        ],
    )
    def test_matches_numpy(self, rng, wa, wb):
        a = random_sparse_array(rng, 30, 40, 0.3)
        b = random_sparse_array(rng, 40, 35, 0.3)
        got = spsp_into_dense(a, wa, b, wb).array
        expected = a[wa.row0 : wa.row1, wa.col0 : wa.col1] @ b[
            wb.row0 : wb.row1, wb.col0 : wb.col1
        ]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("density", [0.02, 0.5])
    def test_offset_into_larger_target(self, rng, density):
        a = random_sparse_array(rng, 20, 24, density)
        b = random_sparse_array(rng, 24, 18, density)
        wa, wb = Window(2, 17, 3, 21), Window(3, 21, 1, 15)
        out = spsp_into_dense(a, wa, b, wb, pad=(9, 7), offset=(5, 4))
        expected = np.zeros((wa.rows + 9, wb.cols + 7))
        expected[5 : 5 + wa.rows, 4 : 4 + wb.cols] = a[2:17, 3:21] @ b[3:21, 1:15]
        np.testing.assert_allclose(out.array, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "density, bincount", [(0.02, False), (0.6, True)], ids=["add-at", "bincount"]
    )
    def test_both_scatter_branches(self, rng, density, bincount):
        a = random_sparse_array(rng, 32, 32, density)
        b = random_sparse_array(rng, 32, 32, density)
        wa, wb = Window.full(a.shape), Window.full(b.shape)
        flops = products.spsp_flops(as_csr(a), wa, as_csr(b), wb)
        # DenseAccumulator's rule: bincount once the expansion reaches
        # an eighth of the window area, np.add.at below that.
        assert (flops * 8 >= wa.rows * wb.cols) is bincount
        out = spsp_into_dense(a, wa, b, wb, pad=(3, 3), offset=(3, 0))
        np.testing.assert_allclose(out.array[3:, :32], a @ b, rtol=0, atol=1e-12)
        assert not out.array[:3].any() and not out.array[:, 32:].any()

    def test_chunk_boundaries(self, rng, monkeypatch):
        a = random_sparse_array(rng, 40, 40, 0.3)
        b = random_sparse_array(rng, 40, 40, 0.3)
        wa, wb = Window(1, 39, 0, 40), Window(0, 40, 5, 33)
        expected = a[1:39] @ b[:, 5:33]
        monkeypatch.setattr(products, "EXPANSION_CHUNK", 64)
        chunks = list(products.spsp_expansion(as_csr(a), wa, as_csr(b), wb))
        assert len(chunks) > 1
        assert max(len(values) for _, _, values in chunks) <= 64 + wb.cols
        got = spsp_into_dense(a, wa, b, wb).array
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_writes_equal_expansion_length(self, rng):
        a = random_sparse_array(rng, 25, 30, 0.2)
        b = random_sparse_array(rng, 30, 20, 0.2)
        wa, wb = Window(0, 25, 4, 30), Window(4, 30, 0, 20)
        out = spsp_into_dense(a, wa, b, wb)
        assert out.writes == products.spsp_flops(as_csr(a), wa, as_csr(b), wb)
        # Uncompressed: every duplicate coordinate is a write of its own.
        assert out.writes > np.count_nonzero(out.array)


class TestWindowReads:
    @pytest.mark.parametrize("row0, row1", [(0, 30), (7, 22), (12, 12), (29, 30)])
    def test_full_width_slice_matches_gather(self, rng, row0, row1):
        array = random_sparse_array(rng, 30, 17, 0.2)
        array[9:14] = 0.0  # empty rows inside the band
        csr = as_csr(array)
        sliced = products._csr_window_triples(csr, Window(row0, row1, 0, 17))
        # CSRMatrix.window_mask resolves per-row ranges and gathers segments.
        gathered = csr.window_mask(row0, row1, 0, 17)
        for got, expected in zip(sliced, gathered, strict=True):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)


class TestCompressTriples:
    def test_merges_and_sorts(self):
        rows = np.array([1, 0, 1])
        cols = np.array([1, 0, 1])
        vals = np.array([2.0, 1.0, 3.0])
        r, c, v = products.compress_triples(rows, cols, vals, 4)
        assert r.tolist() == [0, 1]
        assert c.tolist() == [0, 1]
        assert v.tolist() == [1.0, 5.0]

    def test_drops_exact_zero_sums(self):
        r, c, v = products.compress_triples(
            np.array([0, 0]), np.array([0, 0]), np.array([1.0, -1.0]), 2
        )
        assert len(v) == 0

    def test_empty_input(self):
        r, c, v = products.compress_triples(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0), 3
        )
        assert len(v) == 0
