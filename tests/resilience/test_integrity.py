"""Tests for the deep integrity verifier (resilience/integrity.py).

One test per violation class, as the issue's acceptance criteria
require: corrupt exactly one invariant, assert exactly that code fires.
Live objects are built valid and then mutated in place (``check=False``
where the constructors would refuse), so every violation reaches the
verifier rather than a constructor guard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import COOMatrix, build_at_matrix, save_at_matrix
from repro.errors import IntegrityError
from repro.formats.csr import CSRMatrix
from repro.formats.dense import DenseMatrix
from repro.resilience.integrity import (
    check_integrity,
    verify_archive,
    verify_at_matrix,
    verify_csr,
    verify_dense,
)

from ..conftest import heterogeneous_array, rewrite_archive


def codes(violations) -> list[str]:
    return sorted({violation.code for violation in violations})


@pytest.fixture
def csr() -> CSRMatrix:
    indptr = np.array([0, 2, 4, 7], dtype=np.int64)
    indices = np.array([0, 2, 1, 3, 0, 1, 2], dtype=np.int64)
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    return CSRMatrix(3, 4, indptr, indices, values)


@pytest.fixture
def at_matrix(rng, small_config):
    array = heterogeneous_array(rng, 64, 48)
    return build_at_matrix(COOMatrix.from_dense(array), small_config)


class TestCsrViolations:
    def test_valid_csr_is_clean(self, csr):
        assert verify_csr(csr) == []

    def test_csr_indptr_wrong_length(self, csr):
        broken = CSRMatrix(
            4, 4, csr.indptr, csr.indices, csr.values, check=False
        )
        assert codes(verify_csr(broken)) == ["csr-indptr"]

    def test_csr_indptr_bad_endpoints(self, csr):
        csr.indptr[-1] = csr.indptr[-1] + 2
        violations = verify_csr(csr)
        assert "csr-indptr" in codes(violations)

    def test_csr_indptr_decreasing(self, csr):
        csr.indptr[1] = 5  # > indptr[2] == 4
        violations = verify_csr(csr)
        assert "csr-indptr" in codes(violations)
        assert "decreases at row" in violations[-1].message

    def test_csr_index_bounds(self, csr):
        csr.indices[0] = 99
        assert codes(verify_csr(csr)) == ["csr-index-bounds"]

    def test_csr_column_order(self, csr):
        # Swap the two entries of row 0: columns become (2, 0).
        csr.indices[0], csr.indices[1] = csr.indices[1], csr.indices[0]
        violations = verify_csr(csr)
        assert codes(violations) == ["csr-column-order"]
        assert "row 0" in violations[0].message

    def test_csr_values_length_mismatch(self, csr):
        broken = CSRMatrix(
            3, 4, csr.indptr, csr.indices, csr.values[:-1], check=False
        )
        violations = verify_csr(broken)
        assert "csr-values" in codes(violations)

    def test_csr_values_nonfinite(self, csr):
        csr.values[3] = np.nan
        violations = verify_csr(csr)
        assert codes(violations) == ["csr-values"]
        assert "non-finite" in violations[0].message


class TestDenseViolations:
    def test_valid_dense_is_clean(self):
        assert verify_dense(DenseMatrix(np.ones((4, 4)))) == []

    def test_dense_nonfinite(self):
        matrix = DenseMatrix(np.ones((4, 4)))
        matrix.array[2, 3] = np.inf
        violations = verify_dense(matrix)
        assert codes(violations) == ["dense-nonfinite"]
        assert "(2, 3)" in violations[0].message


class TestTileViolations:
    def test_valid_matrix_is_clean(self, at_matrix):
        assert verify_at_matrix(at_matrix) == []

    def test_tile_shape(self, at_matrix):
        tile = at_matrix.tiles[0]
        tile.rows = tile.rows + 1  # directory extent no longer matches payload
        violations = verify_at_matrix(at_matrix)
        assert "tile-shape" in codes(violations)

    def test_tile_bounds(self, at_matrix):
        tile = at_matrix.tiles[0]
        tile.row0 = at_matrix.rows  # pushed past the matrix edge
        violations = verify_at_matrix(at_matrix)
        assert "tile-bounds" in codes(violations)

    def test_tile_overlap(self, at_matrix):
        first, second = at_matrix.tiles[0], at_matrix.tiles[1]
        second.row0 = first.row0  # slide tile 1 onto tile 0
        second.col0 = first.col0
        violations = verify_at_matrix(at_matrix)
        assert "tile-overlap" in codes(violations)
        assert any("overlap" in violation.message for violation in violations)


class TestArchiveViolations:
    def test_fresh_archive_is_clean(self, at_matrix, tmp_path):
        path = tmp_path / "matrix.npz"
        save_at_matrix(at_matrix, path)
        assert verify_archive(path) == []

    def test_archive_unreadable(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an archive")
        violations = verify_archive(path)
        assert codes(violations) == ["archive-unreadable"]

    def test_archive_bit_flip_is_detected(self, at_matrix, tmp_path):
        import struct
        import zipfile

        path = tmp_path / "matrix.npz"
        save_at_matrix(at_matrix, path)
        with zipfile.ZipFile(path) as archive:
            info = max(archive.infolist(), key=lambda entry: entry.compress_size)
        blob = bytearray(path.read_bytes())
        # Locate the member's compressed bytes via its local file header
        # (30 fixed bytes + name + extra field) and flip one in the middle.
        name_len, extra_len = struct.unpack_from(
            "<HH", blob, info.header_offset + 26
        )
        data_start = info.header_offset + 30 + name_len + extra_len
        blob[data_start + info.compress_size // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        violations = verify_archive(path)
        assert violations  # either unreadable or a checksum mismatch
        assert set(codes(violations)) <= {
            "archive-unreadable",
            "archive-checksum",
            "archive-structure",
        }

    def test_archive_checksum_mismatch(self, at_matrix, tmp_path):
        path = tmp_path / "matrix.npz"
        save_at_matrix(at_matrix, path)
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
        np.savez_compressed(path, **arrays)  # keeps the stale checksums member
        violations = verify_archive(path)
        assert "archive-checksum" in codes(violations)
        assert any(violation.location == target for violation in violations)

    def test_archive_structure_missing_member(self, at_matrix, tmp_path):
        path = tmp_path / "matrix.npz"
        save_at_matrix(at_matrix, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        removed = next(
            name for name in arrays if name not in ("meta", "tiles", "checksums")
        )
        del arrays[removed]
        np.savez_compressed(path, **arrays)
        violations = verify_archive(path)
        assert "archive-structure" in codes(violations)

    def test_v1_archive_without_checksums_is_clean(self, at_matrix, tmp_path):
        path = tmp_path / "matrix.npz"
        save_at_matrix(at_matrix, path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        del arrays["checksums"]
        arrays["meta"] = arrays["meta"].copy()
        arrays["meta"][0] = 1
        np.savez_compressed(path, **arrays)
        assert verify_archive(path) == []


    def test_v2_archive_is_clean(self, at_matrix, tmp_path):
        path = tmp_path / "matrix.npz"
        save_at_matrix(at_matrix, path)
        rewrite_archive(path, as_v2=True)
        assert verify_archive(path) == []

    @pytest.mark.parametrize("as_v2", [True, False], ids=["v2", "v3"])
    def test_bit_flip_fails_the_version_checksum(self, at_matrix, tmp_path, as_v2):
        path = tmp_path / "matrix.npz"
        save_at_matrix(at_matrix, path)
        member = rewrite_archive(path, as_v2=as_v2, flip=True)
        violations = verify_archive(path)
        assert codes(violations) == ["archive-checksum"]
        assert [violation.location for violation in violations] == [member]


class TestCheckIntegrity:
    def test_clean_target_passes(self, at_matrix, tmp_path):
        path = tmp_path / "matrix.npz"
        save_at_matrix(at_matrix, path)
        check_integrity(at_matrix)
        check_integrity(path)

    def test_raises_with_violations_attached(self, csr):
        csr.indices[0] = 99
        with pytest.raises(IntegrityError) as excinfo:
            check_integrity(csr)
        assert excinfo.value.violations
        assert excinfo.value.violations[0].code == "csr-index-bounds"
        assert "csr-index-bounds" in str(excinfo.value)
