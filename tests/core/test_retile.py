"""Tests for pre-multiplication re-tiling and ATMatrix transpose."""

import numpy as np

from repro import COOMatrix, MultiplyOptions, SystemConfig, atmult, build_at_matrix, retile
from repro.core.retile import align_to_operand, split_tiles_at_cols

from ..conftest import heterogeneous_array, random_sparse_array


CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)


class TestSplitTiles:
    def test_content_preserved(self, rng):
        array = heterogeneous_array(rng, 80, 96)
        at = build_at_matrix(COOMatrix.from_dense(array), CONFIG)
        split = split_tiles_at_cols(at, [16, 48, 80])
        np.testing.assert_allclose(split.to_dense(), array)

    def test_no_tile_straddles_cut(self, rng):
        array = heterogeneous_array(rng, 80, 96)
        at = build_at_matrix(COOMatrix.from_dense(array), CONFIG)
        cuts = [32, 64]
        split = split_tiles_at_cols(at, cuts)
        for tile in split.tiles:
            for cut in cuts:
                assert not (tile.col0 < cut < tile.col1)

    def test_contained_tiles_shared_not_copied(self, rng):
        array = heterogeneous_array(rng, 64, 64)
        at = build_at_matrix(COOMatrix.from_dense(array), CONFIG)
        split = split_tiles_at_cols(at, [0, 64])  # boundary cuts only
        assert all(a is b for a, b in zip(at.tiles, split.tiles, strict=True))

    def test_empty_slices_dropped(self, rng):
        # A sparse tile whose nonzeros sit left of the cut: the right
        # slice is empty and must not appear as a tile.
        array = np.zeros((16, 32))
        array[0, 0] = 1.0
        at = build_at_matrix(COOMatrix.from_dense(array), CONFIG)
        split = split_tiles_at_cols(at, [16])
        assert all(tile.nnz > 0 for tile in split.tiles)
        np.testing.assert_allclose(split.to_dense(), array)


class TestAlignToOperand:
    def test_alignment_removes_column_slicing(self, rng):
        a_array = random_sparse_array(rng, 64, 96, 0.05)
        b_array = heterogeneous_array(rng, 96, 64)
        a = build_at_matrix(COOMatrix.from_dense(a_array), CONFIG)
        b = build_at_matrix(COOMatrix.from_dense(b_array), CONFIG)
        aligned = align_to_operand(a, b)
        b_cuts = b.row_cuts()
        for tile in aligned.tiles:
            for cut in b_cuts:
                assert not (tile.col0 < cut < tile.col1)
        result, _ = atmult(aligned, b, options=MultiplyOptions(config=CONFIG))
        np.testing.assert_allclose(result.to_dense(), a_array @ b_array, atol=1e-9)

    def test_aligned_result_matches_unaligned(self, rng):
        a_array = random_sparse_array(rng, 48, 80, 0.1)
        b_array = heterogeneous_array(rng, 80, 48)
        a = build_at_matrix(COOMatrix.from_dense(a_array), CONFIG)
        b = build_at_matrix(COOMatrix.from_dense(b_array), CONFIG)
        plain, _ = atmult(a, b, options=MultiplyOptions(config=CONFIG))
        aligned, _ = atmult(align_to_operand(a, b), b, options=MultiplyOptions(config=CONFIG))
        np.testing.assert_allclose(aligned.to_dense(), plain.to_dense(), atol=1e-9)


class TestRetile:
    def test_full_repartition_lossless(self, rng):
        array = heterogeneous_array(rng, 96, 96)
        at = build_at_matrix(COOMatrix.from_dense(array), CONFIG)
        rebuilt = retile(at)
        np.testing.assert_allclose(rebuilt.to_dense(), array)

    def test_retile_to_different_config(self, rng):
        array = heterogeneous_array(rng, 96, 96)
        at = build_at_matrix(COOMatrix.from_dense(array), CONFIG)
        coarse = SystemConfig(llc_bytes=32 * 1024, b_atomic=32)
        rebuilt = retile(at, coarse)
        assert rebuilt.config.b_atomic == 32
        np.testing.assert_allclose(rebuilt.to_dense(), array)


class TestTranspose:
    def test_transpose_content(self, rng):
        array = heterogeneous_array(rng, 70, 90)
        at = build_at_matrix(COOMatrix.from_dense(array), CONFIG)
        np.testing.assert_allclose(at.transpose().to_dense(), array.T)

    def test_double_transpose_identity(self, rng):
        array = heterogeneous_array(rng, 50, 50)
        at = build_at_matrix(COOMatrix.from_dense(array), CONFIG)
        np.testing.assert_allclose(at.transpose().transpose().to_dense(), array)

    def test_transpose_usable_in_atmult(self, rng):
        array = heterogeneous_array(rng, 60, 40)
        at = build_at_matrix(COOMatrix.from_dense(array), CONFIG)
        gram, _ = atmult(at.transpose(), at, options=MultiplyOptions(config=CONFIG))
        np.testing.assert_allclose(gram.to_dense(), array.T @ array, atol=1e-9)

    def test_transpose_preserves_kinds(self, rng):
        array = heterogeneous_array(rng, 64, 64)
        at = build_at_matrix(COOMatrix.from_dense(array), CONFIG)
        transposed = at.transpose()
        assert sorted(t.kind.value for t in at.tiles) == sorted(
            t.kind.value for t in transposed.tiles
        )
