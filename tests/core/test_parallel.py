"""Tests for thread-parallel ATMULT."""

import numpy as np
import pytest

from repro import (
    COOMatrix,
    MultiplyOptions,
    SystemConfig,
    SystemTopology,
    atmult,
    build_at_matrix,
)
from repro.core.parallel import parallel_atmult
from repro.errors import ShapeError

from ..conftest import as_csr, heterogeneous_array, random_sparse_array

CONFIG = SystemConfig(llc_bytes=8 * 1024, b_atomic=16)


def build(array):
    return build_at_matrix(COOMatrix.from_dense(array), CONFIG)


class TestParallelCorrectness:
    @pytest.mark.parametrize("sockets", [1, 2, 4])
    def test_matches_sequential(self, rng, sockets):
        a = heterogeneous_array(rng, 90, 70)
        b = heterogeneous_array(rng, 70, 80)
        at_a, at_b = build(a), build(b)
        sequential, _ = atmult(at_a, at_b, options=MultiplyOptions(config=CONFIG))
        topology = SystemTopology(sockets=sockets, cores_per_socket=2)
        parallel, report = parallel_atmult(
            at_a,
            at_b,
            topology=topology,
            options=MultiplyOptions(config=CONFIG),
        )
        np.testing.assert_allclose(
            parallel.to_dense(), sequential.to_dense(), atol=1e-10
        )
        assert report.workers == sockets
        assert report.pairs > 0

    def test_plain_operands(self, rng):
        a = random_sparse_array(rng, 40, 40, 0.2)
        parallel, _ = parallel_atmult(
            as_csr(a),
            as_csr(a),
            topology=SystemTopology(sockets=2, cores_per_socket=1),
            options=MultiplyOptions(config=CONFIG),
        )
        np.testing.assert_allclose(parallel.to_dense(), a @ a, atol=1e-10)

    def test_deterministic_across_runs(self, rng):
        a = heterogeneous_array(rng, 80, 80)
        at = build(a)
        topology = SystemTopology(sockets=4, cores_per_socket=1)
        first, _ = parallel_atmult(
            at,
            at,
            topology=topology,
            options=MultiplyOptions(config=CONFIG),
        )
        second, _ = parallel_atmult(
            at,
            at,
            topology=topology,
            options=MultiplyOptions(config=CONFIG),
        )
        np.testing.assert_array_equal(first.to_dense(), second.to_dense())

    def test_shape_mismatch_rejected(self, rng):
        a = build(random_sparse_array(rng, 8, 9, 0.5))
        with pytest.raises(ShapeError):
            parallel_atmult(
                a,
                a,
                topology=SystemTopology(),
                options=MultiplyOptions(config=CONFIG),
            )

    def test_memory_limit_respected(self, rng):
        a = heterogeneous_array(rng, 80, 80)
        at = build(a)
        unlimited, _ = parallel_atmult(
            at,
            at,
            topology=SystemTopology(sockets=2, cores_per_socket=1),
            options=MultiplyOptions(config=CONFIG),
        )
        sparse_size = unlimited.to_csr().memory_bytes()
        bounded, _ = parallel_atmult(
            at,
            at,
            topology=SystemTopology(sockets=2, cores_per_socket=1),
            options=MultiplyOptions(config=CONFIG, memory_limit_bytes=sparse_size * 1.05),
        )
        assert bounded.memory_bytes() <= sparse_size * 1.05
        np.testing.assert_allclose(
            bounded.to_dense(), unlimited.to_dense(), atol=1e-10
        )


class TestParallelStress:
    def test_many_pairs_many_workers(self, rng):
        """Stress: a fragmented tiling with more workers than pairs per
        strip; every run must agree with the sequential result bit-wise
        on structure and numerically on values."""
        array = np.where(rng.random((160, 160)) < 0.15, rng.random((160, 160)), 0.0)
        # Add several dense blocks to force mixed tiles and conversions.
        for offset in (0, 48, 96):
            array[offset : offset + 16, offset : offset + 16] = rng.random((16, 16))
        at = build(array)
        sequential, _ = atmult(at, at, options=MultiplyOptions(config=CONFIG))
        topology = SystemTopology(sockets=8, cores_per_socket=1)
        for _ in range(3):
            parallel, report = parallel_atmult(
                at,
                at,
                topology=topology,
                options=MultiplyOptions(config=CONFIG),
            )
            np.testing.assert_allclose(
                parallel.to_dense(), sequential.to_dense(), atol=1e-10
            )
            assert parallel.to_csr().nnz == sequential.to_csr().nnz
            assert len(report.worker_busy_seconds) >= 1


class TestParallelReport:
    def test_worker_accounting(self, rng):
        a = heterogeneous_array(rng, 96, 96)
        at = build(a)
        _, report = parallel_atmult(
            at,
            at,
            topology=SystemTopology(sockets=2, cores_per_socket=1),
            options=MultiplyOptions(config=CONFIG),
        )
        assert report.phase("multiply") > 0
        assert report.products > 0
        assert sum(report.worker_busy_seconds.values()) > 0
        assert 0 < report.parallel_efficiency <= 1.0 + 1e-9

    def test_shared_conversion_cache(self, rng):
        """JIT conversions are counted once despite concurrent pairs."""
        dense_data = rng.uniform(0.5, 1.0, (64, 64))
        at = build(dense_data)  # dense tiles, but force via sparse wrapper
        a = as_csr(dense_data)
        _, report = parallel_atmult(
            a,
            a,
            topology=SystemTopology(sockets=4, cores_per_socket=1),
            options=MultiplyOptions(config=CONFIG),
        )
        # One plain CSR operand tile converted at most once per operand.
        assert report.conversions <= 2


class TestInterruptTeardown:
    """Satellite contract: Ctrl-C flushes the checkpoint buffer."""

    def interrupt_after(self, monkeypatch, pairs_before_interrupt):
        from repro.engine.executor import PairComputer

        original = PairComputer.run_pair
        calls = {"count": 0}

        def interrupting(self, pair):
            calls["count"] += 1
            if calls["count"] > pairs_before_interrupt:
                raise KeyboardInterrupt
            return original(self, pair)

        monkeypatch.setattr(PairComputer, "run_pair", interrupting)

    def test_interrupt_flushes_buffered_checkpoint_records(
        self, rng, tmp_path, monkeypatch
    ):
        from repro.resilience.checkpoint import CheckpointStore

        at = build(heterogeneous_array(rng, 96, 96))
        topology = SystemTopology(sockets=1, cores_per_socket=1)
        store = CheckpointStore(tmp_path / "ckpt")
        # A huge flush interval leaves every record buffered: only the
        # interrupt path can make them durable.
        options = MultiplyOptions(
            config=CONFIG, checkpoint=store, checkpoint_flush_pairs=10_000
        )
        self.interrupt_after(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            parallel_atmult(at, at, topology=topology, options=options)
        monkeypatch.undo()

        resume_store = CheckpointStore(tmp_path / "ckpt", resume=True)
        resumed, report = parallel_atmult(
            at, at, topology=topology,
            options=MultiplyOptions(config=CONFIG, checkpoint=resume_store),
        )
        sequential, _ = atmult(at, at, options=MultiplyOptions(config=CONFIG))
        np.testing.assert_array_equal(
            resumed.to_dense(), sequential.to_dense()
        )
        # The three pairs computed before Ctrl-C were flushed on the way
        # out and are restored instead of re-executed.
        assert report.failure.pairs_resumed == 3
