"""Job model + store: validation, persistence, recovery, result integrity."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import COOMatrix, IntegrityError, UnknownJobError, build_at_matrix
from repro.errors import FormatError
from repro.formats import load_at_matrix
from repro.ioutil import crc32c
from repro.service import JobRecord, JobSpec, JobState, JobStore

from ..conftest import random_sparse_array


def spec(job_id: str = "j-1", **overrides) -> JobSpec:
    payload = {
        "job_id": job_id,
        "tenant": "t1",
        "op": "multiply",
        "a": "A",
        "b": "B",
    }
    payload.update(overrides)
    return JobSpec(**payload)


class TestJobSpec:
    def test_unknown_op_rejected(self):
        with pytest.raises(FormatError, match="unknown job op"):
            spec(op="transpose")

    def test_multiply_needs_b(self):
        with pytest.raises(FormatError, match="second matrix"):
            spec(b=None)

    def test_matvec_needs_rhs(self):
        with pytest.raises(FormatError, match="rhs"):
            spec(op="matvec", b=None)

    def test_json_round_trip(self):
        original = spec(
            op="solve",
            b=None,
            rhs=(1.0, 2.0, 3.0),
            params={"method": "jacobi", "tol": 1e-8},
        )
        # through actual JSON text, as the wire protocol would
        restored = JobSpec.from_json_dict(
            json.loads(json.dumps(original.to_json_dict()))
        )
        assert restored == original


class TestJobStore:
    def test_create_save_load(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord(spec=spec(), submitted_at=123.0, reserved_bytes=42.0)
        store.create(record)
        loaded = store.load("j-1")
        assert loaded.spec == record.spec
        assert loaded.state is JobState.QUEUED
        assert loaded.reserved_bytes == 42.0

    def test_state_transitions_persist(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord(spec=spec())
        store.create(record)
        record.state = JobState.FAILED
        record.error = "boom"
        record.error_type = "MemoryLimitError"
        store.save(record)
        loaded = store.load("j-1")
        assert loaded.state is JobState.FAILED
        assert loaded.error == "boom"
        assert loaded.error_type == "MemoryLimitError"

    def test_recover_returns_only_unfinished(self, tmp_path):
        store = JobStore(tmp_path)
        for job_id, state in [
            ("j-1", JobState.DONE),
            ("j-2", JobState.RUNNING),
            ("j-3", JobState.QUEUED),
            ("j-4", JobState.CANCELLED),
        ]:
            record = JobRecord(spec=spec(job_id), state=state)
            store.create(record)
        recovered = {record.spec.job_id for record in store.recover()}
        assert recovered == {"j-2", "j-3"}

    def test_load_all_sorted_by_submission(self, tmp_path):
        store = JobStore(tmp_path)
        store.create(JobRecord(spec=spec("j-b"), submitted_at=2.0))
        store.create(JobRecord(spec=spec("j-a"), submitted_at=1.0))
        assert [r.spec.job_id for r in store.load_all()] == ["j-a", "j-b"]

    def test_unknown_job_id(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(UnknownJobError):
            store.load("ghost")

    def test_invalid_job_ids_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        for bad in ("", "../escape", ".hidden"):
            with pytest.raises(FormatError):
                store.job_dir(bad)


def flip_member_bit(path, prefixes=("values", "dense_")) -> str:
    """Flip one bit of a payload member; the checksums member is kept."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    name = next(n for n in arrays if n.startswith(prefixes) and arrays[n].size)
    flipped = np.ascontiguousarray(arrays[name]).copy()
    flipped.reshape(-1).view(np.uint8)[3] ^= 0x10
    arrays[name] = flipped
    np.savez(path, **arrays)
    return name


class TestResults:
    def test_result_round_trip_is_bit_identical(self, tmp_path, rng):
        store = JobStore(tmp_path)
        store.create(JobRecord(spec=spec()))
        values = rng.random(16)
        store.save_result("j-1", values)
        header, handle = store.open_result("j-1")
        handle.close()
        assert header["kind"] == "values" and header["shape"] == [16]
        assert header["bytes"] == (tmp_path / "j-1" / "result.npz").stat().st_size
        assert store.has_result("j-1")
        loaded = store.load_result("j-1")
        assert np.array_equal(loaded, values)

    def test_at_result_is_stored_partitioned(self, tmp_path, rng, small_config):
        store = JobStore(tmp_path)
        store.create(JobRecord(spec=spec()))
        matrix = build_at_matrix(
            COOMatrix.from_dense(random_sparse_array(rng, 40, 30, 0.1)), small_config
        )
        store.save_result("j-1", matrix)
        assert load_at_matrix(tmp_path / "j-1" / "result.npz").nnz == matrix.nnz
        assert np.array_equal(store.load_result("j-1"), matrix.to_dense())
        header, handle = store.open_result("j-1")
        with handle:
            assert header["kind"] == "at" and header["shape"] == [40, 30]
            assert handle.read() == (tmp_path / "j-1" / "result.npz").read_bytes()

    def test_corrupted_result_is_detected(self, tmp_path, rng):
        store = JobStore(tmp_path)
        store.create(JobRecord(spec=spec()))
        store.save_result("j-1", rng.random((8, 8)))
        # silent bit-rot: a value bit flips, the stored checksums don't
        flip_member_bit(tmp_path / "j-1" / "result.npz")
        with pytest.raises(IntegrityError, match="checksum"):
            store.load_result("j-1")

    def test_flipped_at_result_is_detected(self, tmp_path, rng, small_config):
        store = JobStore(tmp_path)
        store.create(JobRecord(spec=spec()))
        raw = random_sparse_array(rng, 40, 40, 0.1)
        raw[:10, :10] = rng.random((10, 10))
        store.save_result(
            "j-1", build_at_matrix(COOMatrix.from_dense(raw), small_config)
        )
        member = flip_member_bit(tmp_path / "j-1" / "result.npz")
        with pytest.raises(IntegrityError, match=member):
            store.load_result("j-1")

    def test_flipped_file_byte_is_detected(self, tmp_path, rng):
        store = JobStore(tmp_path)
        store.create(JobRecord(spec=spec()))
        store.save_result("j-1", rng.random(512))
        path = tmp_path / "j-1" / "result.npz"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01  # inside the values payload
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            store.load_result("j-1")

    def test_result_stored_before_v3_still_loads(self, tmp_path, rng):
        """A pre-v3 ``result.npz`` (dense values + CRC-32C) verifies."""
        store = JobStore(tmp_path)
        store.create(JobRecord(spec=spec()))
        values = rng.random((6, 5))
        path = tmp_path / "j-1" / "result.npz"
        crc = np.array([crc32c(values.tobytes())], dtype=np.uint32)
        np.savez(path, values=values, crc=crc)
        assert np.array_equal(store.load_result("j-1"), values)
        np.savez(path, values=values + 1.0, crc=crc)
        with pytest.raises(IntegrityError):
            store.load_result("j-1")

    def test_missing_result(self, tmp_path):
        store = JobStore(tmp_path)
        store.create(JobRecord(spec=spec()))
        assert not store.has_result("j-1")
        with pytest.raises(UnknownJobError):
            store.load_result("j-1")
