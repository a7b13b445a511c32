"""Tests for AT Matrix persistence."""

import io
import json
import zipfile
import zlib

import numpy as np
import pytest

from repro import (
    COOMatrix,
    MultiplyOptions,
    atmult,
    build_at_matrix,
    load_at_matrix,
    save_at_matrix,
)
from repro.errors import IntegrityError, ParseError
from repro.kinds import StorageKind

from ..conftest import heterogeneous_array, rewrite_archive


@pytest.fixture
def matrix(rng, small_config):
    array = heterogeneous_array(rng, 96, 80)
    return build_at_matrix(COOMatrix.from_dense(array), small_config), array


class TestRoundTrip:
    def test_file_roundtrip(self, matrix, tmp_path):
        at, array = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        loaded = load_at_matrix(path)
        np.testing.assert_allclose(loaded.to_dense(), array)

    def test_buffer_roundtrip(self, matrix):
        at, array = matrix
        buffer = io.BytesIO()
        save_at_matrix(at, buffer)
        buffer.seek(0)
        loaded = load_at_matrix(buffer)
        np.testing.assert_allclose(loaded.to_dense(), array)

    def test_tiling_preserved_exactly(self, matrix, tmp_path):
        at, _ = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        loaded = load_at_matrix(path)
        assert len(loaded.tiles) == len(at.tiles)
        for original, restored in zip(at.tiles, loaded.tiles, strict=True):
            assert restored.extent == original.extent
            assert restored.kind is original.kind
            assert restored.numa_node == original.numa_node

    def test_config_preserved(self, matrix, tmp_path):
        at, _ = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        loaded = load_at_matrix(path)
        assert loaded.config == at.config

    def test_loaded_matrix_multiplies(self, matrix, tmp_path, small_config):
        at, array = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        loaded = load_at_matrix(path)
        result, _ = atmult(
            loaded,
            loaded.transpose(),
            options=MultiplyOptions(config=small_config),
        )
        np.testing.assert_allclose(result.to_dense(), array @ array.T, atol=1e-9)

    def test_empty_matrix(self, small_config, tmp_path):
        at = build_at_matrix(COOMatrix.empty(32, 32), small_config)
        path = tmp_path / "empty.npz"
        save_at_matrix(at, path)
        loaded = load_at_matrix(path)
        assert loaded.num_tiles() == 0
        assert loaded.shape == (32, 32)

    def test_mixed_kinds_preserved(self, matrix, tmp_path):
        at, _ = matrix
        assert at.num_tiles(StorageKind.DENSE) > 0  # precondition
        assert at.num_tiles(StorageKind.SPARSE) > 0
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        loaded = load_at_matrix(path)
        assert loaded.num_tiles(StorageKind.DENSE) == at.num_tiles(StorageKind.DENSE)


class TestDurability:
    def test_suffix_appended_like_np_savez(self, matrix, tmp_path):
        at, array = matrix
        bare = tmp_path / "matrix"
        save_at_matrix(at, str(bare))
        assert not bare.exists()
        loaded = load_at_matrix(tmp_path / "matrix.npz")
        np.testing.assert_allclose(loaded.to_dense(), array)

    def test_save_leaves_no_temp_files(self, matrix, tmp_path):
        at, _ = matrix
        save_at_matrix(at, tmp_path / "matrix.npz")
        assert [path.name for path in tmp_path.iterdir()] == ["matrix.npz"]

    def test_archive_carries_checksums_for_every_member(self, matrix, tmp_path):
        at, _ = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        with np.load(path, allow_pickle=False) as archive:
            members = set(archive.files)
            checksums = json.loads(str(archive["checksums"][()]))
        assert members - {"checksums"} == set(checksums)

    def test_v1_archive_without_checksums_loads(self, matrix, tmp_path):
        at, array = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        del arrays["checksums"]
        arrays["meta"] = arrays["meta"].copy()
        arrays["meta"][0] = 1  # rewrite as a version-1 archive
        np.savez_compressed(path, **arrays)
        loaded = load_at_matrix(path)
        np.testing.assert_allclose(loaded.to_dense(), array)

    def test_tampered_member_raises_integrity_error(self, matrix, tmp_path):
        at, _ = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        target = next(
            name
            for name, array in arrays.items()
            if name not in ("meta", "tiles", "checksums") and array.size
        )
        tampered = arrays[target].copy()
        tampered.ravel()[0] += 1
        arrays[target] = tampered
        np.savez_compressed(path, **arrays)
        with pytest.raises(IntegrityError, match=target):
            load_at_matrix(path)


class TestFormatVersions:
    def test_writes_v3_with_zlib_crc32_checksums(self, matrix, tmp_path):
        at, _ = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        with np.load(path, allow_pickle=False) as archive:
            assert int(archive["meta"][0]) == 3
            checksums = json.loads(str(archive["checksums"][()]))
            for name, expected in checksums.items():
                assert zlib.crc32(archive[name].tobytes()) == expected

    def test_v2_archive_loads_through_crc32c(self, matrix, tmp_path):
        at, array = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        rewrite_archive(path, as_v2=True)
        np.testing.assert_array_equal(load_at_matrix(path).to_dense(), array)

    @pytest.mark.parametrize("as_v2", [True, False], ids=["v2", "v3"])
    def test_bit_flip_raises_integrity_error(self, matrix, tmp_path, as_v2):
        at, _ = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        member = rewrite_archive(path, as_v2=as_v2, flip=True)
        version = "v2" if as_v2 else "v3"
        with pytest.raises(IntegrityError, match=f"{version}.*{member}"):
            load_at_matrix(path)

    def test_flipped_file_byte_raises_integrity_error(self, matrix, tmp_path):
        """A raw flip in a stored v3 member trips the zip CRC-32."""
        at, _ = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        with zipfile.ZipFile(path) as archive:
            info = max(archive.infolist(), key=lambda entry: entry.file_size)
        blob = bytearray(path.read_bytes())
        blob[info.header_offset + info.compress_size // 2 + 200] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            load_at_matrix(path)

    def test_v3_archive_without_checksums_is_rejected(self, matrix, tmp_path):
        at, _ = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        del arrays["checksums"]
        np.savez(path, **arrays)
        with pytest.raises(IntegrityError, match="checksums"):
            load_at_matrix(path)


class TestErrors:
    def test_truncated_archive_is_a_clear_parse_error(self, matrix, tmp_path):
        at, _ = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ParseError, match="not a readable AT Matrix archive"):
            load_at_matrix(path)

    def test_garbage_input_is_a_clear_parse_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"\x00\x01\x02 definitely not a zip")
        with pytest.raises(ParseError, match="not a readable AT Matrix archive"):
            load_at_matrix(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_at_matrix(tmp_path / "nope.npz")

    def test_foreign_archive_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, something=np.zeros(3))
        with pytest.raises(ParseError):
            load_at_matrix(path)

    def test_future_version_rejected(self, matrix, tmp_path):
        at, _ = matrix
        path = tmp_path / "matrix.npz"
        save_at_matrix(at, path)
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays["meta"] = arrays["meta"].copy()
        arrays["meta"][0] = 999
        np.savez(path, **arrays)
        with pytest.raises(ParseError):
            load_at_matrix(path)
