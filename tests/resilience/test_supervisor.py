"""Tests for the supervised multiprocess shard executor (clean paths).

Worker-kill recovery, quarantine and fault-injection parity live in
``tests/integration/test_worker_kill.py``; this module covers the
happy-path contract: bit-identical results, report population,
checkpoint resume and the thread fallback.
"""

import numpy as np
import pytest

from repro import COOMatrix, SystemConfig, SystemTopology, atmult, build_at_matrix
from repro.core.parallel import parallel_atmult
from repro.engine import MultiplyOptions
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.report import WorkerRecord
from repro.resilience.supervisor import processes_available

from ..conftest import heterogeneous_array

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)
TOPOLOGY = SystemTopology(sockets=2, cores_per_socket=2)


def build(array):
    return build_at_matrix(COOMatrix.from_dense(array), CONFIG)


def process_options(**overrides):
    defaults = dict(
        config=CONFIG, execution="processes", heartbeat_interval_seconds=0.05
    )
    defaults.update(overrides)
    return MultiplyOptions(**defaults)


class TestSupervisedCorrectness:
    def test_platform_supports_processes(self):
        # The remaining tests exercise the real backend; this canary
        # makes an environment regression obvious instead of mysterious.
        assert processes_available()

    def test_matches_sequential_bit_for_bit(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, options=MultiplyOptions(config=CONFIG))
        supervised, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        np.testing.assert_array_equal(
            supervised.to_dense(), sequential.to_dense()
        )
        assert report.pairs > 0
        assert report.products > 0

    def test_matches_thread_backend_bit_for_bit(self, rng):
        a = heterogeneous_array(rng, 64, 48)
        b = heterogeneous_array(rng, 48, 64)
        at_a, at_b = build(a), build(b)
        threaded, _ = parallel_atmult(
            at_a, at_b, topology=TOPOLOGY,
            options=MultiplyOptions(config=CONFIG, execution="threads"),
        )
        supervised, _ = parallel_atmult(
            at_a, at_b, topology=TOPOLOGY, options=process_options()
        )
        np.testing.assert_array_equal(
            supervised.to_dense(), threaded.to_dense()
        )

    def test_single_worker_supervised_run(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, options=MultiplyOptions(config=CONFIG))
        supervised, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options(workers=1)
        )
        np.testing.assert_array_equal(
            supervised.to_dense(), sequential.to_dense()
        )
        assert report.workers == 1


class TestSupervisedReport:
    def test_worker_records_are_populated(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        _, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        failure = report.failure
        assert failure.worker_deaths == 0
        assert failure.pairs_reassigned == 0
        assert failure.pairs_quarantined == 0
        assert failure.clean
        assert len(failure.workers) >= 1
        completed = 0
        for record in failure.workers.values():
            assert isinstance(record, WorkerRecord)
            assert record.pid is not None and record.pid > 0
            assert record.heartbeats >= 1
            assert not record.died
            completed += record.pairs_completed
        assert completed == report.pairs

    def test_busy_time_lands_on_shard_lanes(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        _, report = parallel_atmult(
            at, at, topology=TOPOLOGY, options=process_options()
        )
        assert report.worker_busy_seconds
        assert all(
            lane.startswith("shard-") for lane in report.worker_busy_seconds
        )
        assert sum(report.worker_busy_seconds.values()) > 0.0

    def test_generous_pair_deadline_changes_nothing(self, rng):
        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, options=MultiplyOptions(config=CONFIG))
        supervised, report = parallel_atmult(
            at, at, topology=TOPOLOGY,
            options=process_options(pair_deadline_seconds=120.0),
        )
        np.testing.assert_array_equal(
            supervised.to_dense(), sequential.to_dense()
        )
        assert report.failure.worker_deaths == 0


class TestSupervisedCheckpoint:
    def test_resume_skips_journaled_pairs(self, rng, tmp_path):
        at = build(heterogeneous_array(rng, 64, 64))
        first_store = CheckpointStore(tmp_path / "ckpt")
        first, first_report = parallel_atmult(
            at, at, topology=TOPOLOGY,
            options=process_options(checkpoint=first_store),
        )
        assert first_report.pairs_executed > 0
        resume_store = CheckpointStore(tmp_path / "ckpt", resume=True)
        resumed, resumed_report = parallel_atmult(
            at, at, topology=TOPOLOGY,
            options=process_options(checkpoint=resume_store),
        )
        np.testing.assert_array_equal(resumed.to_dense(), first.to_dense())
        assert resumed_report.failure.pairs_resumed == first_report.pairs
        assert resumed_report.pairs_executed == 0


class TestThreadFallback:
    def test_unavailable_platform_falls_back_with_a_warning(
        self, rng, monkeypatch
    ):
        import repro.resilience.supervisor as supervisor

        monkeypatch.setattr(supervisor, "processes_available", lambda: False)
        at = build(heterogeneous_array(rng, 64, 64))
        sequential, _ = atmult(at, at, options=MultiplyOptions(config=CONFIG))
        with pytest.warns(RuntimeWarning, match="falls back to threads"):
            result, report = parallel_atmult(
                at, at, topology=TOPOLOGY, options=process_options()
            )
        np.testing.assert_array_equal(
            result.to_dense(), sequential.to_dense()
        )
        # The thread backend leaves no per-process worker records.
        assert not report.failure.workers
