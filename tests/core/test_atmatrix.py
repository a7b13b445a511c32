"""Tests for the ATMatrix container."""

import numpy as np
import pytest

from repro import COOMatrix, MultiplyOptions, StorageKind, build_at_matrix
from repro.core.atmatrix import ATMatrix
from repro.core.tile import Tile
from repro.errors import FormatError, ShapeError
from repro.formats.csr import CSRMatrix
from repro.formats.dense import DenseMatrix

from ..conftest import heterogeneous_array


@pytest.fixture
def matrix(rng, small_config):
    array = heterogeneous_array(rng, 96, 80)
    at = build_at_matrix(COOMatrix.from_dense(array), small_config)
    return at, array


class TestContainer:
    def test_roundtrip(self, matrix):
        at, array = matrix
        np.testing.assert_allclose(at.to_dense(), array)
        np.testing.assert_allclose(at.to_csr().to_dense(), array)
        np.testing.assert_allclose(at.to_coo().to_dense(), array)

    def test_nnz_and_density(self, matrix):
        at, array = matrix
        assert at.nnz == np.count_nonzero(array)
        assert at.density == pytest.approx(np.count_nonzero(array) / array.size)

    def test_memory_is_sum_of_tiles(self, matrix):
        at, _ = matrix
        assert at.memory_bytes() == sum(t.memory_bytes() for t in at.tiles)

    def test_num_tiles_by_kind(self, matrix):
        at, _ = matrix
        dense = at.num_tiles(StorageKind.DENSE)
        sparse = at.num_tiles(StorageKind.SPARSE)
        assert dense + sparse == at.num_tiles()

    def test_empty_matrix(self, small_config):
        at = build_at_matrix(COOMatrix.empty(32, 32), small_config)
        assert at.num_tiles() == 0
        assert at.nnz == 0
        assert (at.to_dense() == 0).all()


class TestTileIndex:
    def test_tile_at_finds_covering_tile(self, matrix):
        at, array = matrix
        nz = np.argwhere(array)
        row, col = map(int, nz[0])
        tile = at.tile_at(row, col)
        assert tile is not None
        assert tile.row0 <= row < tile.row1
        assert tile.col0 <= col < tile.col1

    def test_tile_at_out_of_bounds(self, matrix):
        at, _ = matrix
        with pytest.raises(ShapeError):
            at.tile_at(96, 0)

    def test_tiles_overlapping_region(self, matrix):
        at, _ = matrix
        all_tiles = at.tiles_overlapping(0, at.rows, 0, at.cols)
        assert set(map(id, all_tiles)) == set(map(id, at.tiles))

    def test_tiles_overlapping_empty_region(self, matrix):
        at, _ = matrix
        assert at.tiles_overlapping(5, 5, 0, 10) == []

    def test_overlap_detection_rejected(self, small_config):
        payload = DenseMatrix(np.ones((16, 16)))
        t1 = Tile(0, 0, 16, 16, StorageKind.DENSE, payload)
        t2 = Tile(0, 0, 16, 16, StorageKind.DENSE, payload)
        at = ATMatrix(32, 32, small_config, [t1, t2])
        with pytest.raises(FormatError):
            at.tile_at(0, 0)


class TestCuts:
    def test_cuts_include_bounds(self, matrix):
        at, _ = matrix
        rows = at.row_cuts()
        cols = at.col_cuts()
        assert rows[0] == 0 and rows[-1] == at.rows
        assert cols[0] == 0 and cols[-1] == at.cols
        assert rows == sorted(set(rows))

    def test_cuts_align_with_tiles(self, matrix):
        at, _ = matrix
        rows = set(at.row_cuts())
        for tile in at.tiles:
            assert tile.row0 in rows

    def test_plain_single_tile_cuts(self, small_config):
        payload = CSRMatrix.from_arrays_unsorted(32, 32, [0], [0], [1.0])
        tile = Tile(0, 0, 32, 32, StorageKind.SPARSE, payload)
        at = ATMatrix(32, 32, small_config, [tile])
        assert at.row_cuts() == [0, 32]
        assert at.col_cuts() == [0, 32]


class TestMutation:
    def test_replace_tile(self, matrix):
        at, array = matrix
        old = at.tiles[0]
        new = old.with_payload(old.data)
        at.replace_tile(old, new)
        assert at.tiles[0] is new
        np.testing.assert_allclose(at.to_dense(), array)

    def test_replace_tile_must_match_region(self, matrix):
        at, _ = matrix
        old = at.tiles[0]
        moved = Tile(
            old.row0, old.col0, old.rows, old.cols, old.kind, old.data
        )
        moved.row0 += 16  # type: ignore[misc]
        with pytest.raises(FormatError):
            at.replace_tile(old, moved)

    def test_replace_unknown_tile(self, matrix, small_config):
        at, _ = matrix
        foreign = Tile(
            0, 0, at.tiles[0].rows, at.tiles[0].cols,
            at.tiles[0].kind, at.tiles[0].data,
        )
        with pytest.raises(FormatError):
            at.replace_tile(foreign, foreign)


class TestSubmatrix:
    def test_aligned_region(self, matrix):
        at, array = matrix
        b = at.zspace.b_atomic
        sub = at.submatrix(0, 3 * b, b, 4 * b)
        np.testing.assert_allclose(sub.to_dense(), array[: 3 * b, b : 4 * b])

    def test_unaligned_region_rebuilds(self, matrix):
        at, array = matrix
        sub = at.submatrix(5, 77, 3, 61)
        np.testing.assert_allclose(sub.to_dense(), array[5:77, 3:61])

    def test_full_region_shares_payloads(self, matrix):
        at, array = matrix
        sub = at.submatrix(0, at.rows, 0, at.cols)
        np.testing.assert_allclose(sub.to_dense(), array)
        shared = sum(
            1 for a, b in zip(at.tiles, sub.tiles, strict=True) if a.data is b.data
        )
        assert shared == len(at.tiles)

    def test_degenerate_region_rejected(self, matrix):
        at, _ = matrix
        with pytest.raises(ShapeError):
            at.submatrix(5, 5, 0, 10)

    def test_submatrix_multiplies(self, matrix, small_config):
        from repro import atmult

        at, array = matrix
        b = at.zspace.b_atomic
        sub = at.submatrix(0, 4 * b, 0, 4 * b)
        result, _ = atmult(sub, sub, options=MultiplyOptions(config=small_config))
        expected = array[: 4 * b, : 4 * b] @ array[: 4 * b, : 4 * b]
        np.testing.assert_allclose(result.to_dense(), expected, atol=1e-9)


class TestIndexing:
    def test_element_access_matches_dense(self, matrix, rng):
        at, array = matrix
        for _ in range(50):
            row = int(rng.integers(0, at.rows))
            col = int(rng.integers(0, at.cols))
            assert at[row, col] == pytest.approx(array[row, col])

    def test_negative_indices(self, matrix):
        at, array = matrix
        assert at[-1, -1] == pytest.approx(array[-1, -1])

    def test_element_in_gap_is_zero(self, small_config):
        array = np.zeros((64, 64))
        array[0, 0] = 1.0
        at = build_at_matrix(COOMatrix.from_dense(array), small_config)
        assert at[40, 40] == 0.0

    def test_slice_pair_returns_submatrix(self, matrix):
        at, array = matrix
        sub = at[10:50, 5:60]
        np.testing.assert_allclose(sub.to_dense(), array[10:50, 5:60])

    def test_open_slices(self, matrix):
        at, array = matrix
        np.testing.assert_allclose(at[:, :].to_dense(), array)

    def test_invalid_keys_rejected(self, matrix):
        at, _ = matrix
        with pytest.raises(TypeError):
            at[3]
        with pytest.raises(TypeError):
            at[3, 0:2]
        with pytest.raises(TypeError):
            at[0:10:2, 0:10]


class TestLogging:
    def test_build_and_multiply_emit_debug_records(self, rng, small_config, caplog):
        import logging

        from repro import atmult

        array = heterogeneous_array(rng, 64, 64)
        with caplog.at_level(logging.DEBUG, logger="repro"):
            at = build_at_matrix(COOMatrix.from_dense(array), small_config)
            atmult(at, at, options=MultiplyOptions(config=small_config))
        messages = [record.getMessage() for record in caplog.records]
        assert any("partitioned" in message for message in messages)
        assert any("atmult" in message for message in messages)


class TestAllclose:
    def test_against_dense_array(self, matrix):
        at, array = matrix
        assert at.allclose(array)
        assert not at.allclose(array + 1.0)

    def test_against_at_matrix(self, matrix, small_config):
        at, array = matrix
        other = build_at_matrix(COOMatrix.from_dense(array), small_config)
        assert at.allclose(other)

    def test_shape_mismatch_is_false(self, matrix):
        at, _ = matrix
        assert not at.allclose(np.zeros((2, 2)))


class TestDensityMap:
    def test_density_map_matches_content(self, matrix):
        at, array = matrix
        dm = at.density_map()
        assert dm.estimated_nnz() == pytest.approx(np.count_nonzero(array))
