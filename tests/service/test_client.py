"""ServiceClient resilience: deadlines, retries, breaker, idempotency.

The synchronous client runs inside the event loop's default executor so
one asyncio test can serve and consume at the same time; transport
faults are produced by purpose-built flaky listeners.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import numpy as np
import pytest

from repro import (
    CircuitOpenError,
    COOMatrix,
    DeadlineExceededError,
    IntegrityError,
    MultiplyOptions,
    SystemConfig,
    TransportError,
    UnknownMatrixError,
    WaitTimeoutError,
    atmult,
)
from repro.generate.synthetic import banded_matrix
from repro.resilience.retry import RetryPolicy
from repro.service import JobRecord, JobSpec, JobStore, MatrixRegistry, MatrixService, serve
from repro.service.client import CircuitBreaker, Deadline, ServiceClient
from repro.service.jobs import decode_result

from ..conftest import random_sparse_array


def run(coro):
    return asyncio.run(coro)


FAST_RETRY = RetryPolicy(
    max_attempts=4, backoff_base_seconds=0.005, backoff_max_seconds=0.02
)


@pytest.fixture
def registry(small_config: SystemConfig, rng) -> MatrixRegistry:
    registry = MatrixRegistry(config=small_config)
    raw = random_sparse_array(rng, 96, 96, 0.08)
    raw[:24, :24] = rng.random((24, 24))
    registry.register("A", COOMatrix.from_dense(raw))
    registry.register("B", COOMatrix.from_dense(raw.T.copy()))
    return registry


def closed_port() -> int:
    """A port that was just released: connections to it are refused."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestDeadline:
    def test_remaining_and_expiry(self):
        deadline = Deadline(0.05)
        assert 0.0 < deadline.remaining() <= 0.05
        assert not deadline.expired
        time.sleep(0.06)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceededError, match="submit"):
            deadline.check("submit")

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_seconds=60.0)
        for _ in range(2):
            breaker.record_failure()
        breaker.before_attempt()  # still closed at 2 of 3
        breaker.record_failure()
        assert breaker.open
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.before_attempt()
        assert excinfo.value.retry_after_seconds > 0

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_seconds=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.before_attempt()  # consecutive count restarted

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=0.01)
        breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            breaker.before_attempt()
        time.sleep(0.02)
        breaker.before_attempt()  # half-open: the probe is allowed
        breaker.record_success()
        assert not breaker.open


class TestClientAgainstLiveService:
    def test_full_job_lifecycle(self, registry, tmp_path):
        async def scenario():
            loop = asyncio.get_running_loop()
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with ServiceClient("127.0.0.1", port, retry=FAST_RETRY) as client:
                    def drive():
                        assert client.ping()
                        health = client.health()
                        assert health["status"] == "ok" and health["started"]
                        ready = client.ready()
                        assert ready["ready"], ready
                        assert client.matrices() == ["A", "B"]
                        deadline = Deadline(120.0)
                        job_id = client.submit(
                            tenant="wire", op="multiply", a="A", b="B",
                            deadline=deadline,
                        )
                        status = client.wait(
                            job_id, timeout=120.0, deadline=deadline
                        )
                        assert status["state"] == "done", status
                        values = client.result(job_id)
                        metrics = client.metrics()
                        return values, metrics
                    values, metrics = await loop.run_in_executor(None, drive)
                await service.stop()
            return values, metrics

        values, metrics = run(scenario())
        a = registry.get("A").to_dense()
        b = registry.get("B").to_dense()
        np.testing.assert_allclose(values, a @ b, atol=1e-9)
        assert metrics["jobs"] == {"done": 1}

    def test_remote_errors_surface_as_typed_classes(self, registry, tmp_path):
        async def scenario():
            loop = asyncio.get_running_loop()
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with ServiceClient("127.0.0.1", port, retry=FAST_RETRY) as client:
                    def drive():
                        with pytest.raises(UnknownMatrixError):
                            client.submit(
                                tenant="t", op="multiply", a="ghost", b="B"
                            )
                        # the connection survived the typed rejection
                        assert client.ping()
                    await loop.run_in_executor(None, drive)
                await service.stop()

        run(scenario())

    def test_submit_retry_reuses_one_idempotency_key(self, registry, tmp_path):
        """Two identical submits with one key execute exactly once."""

        async def scenario():
            loop = asyncio.get_running_loop()
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with ServiceClient("127.0.0.1", port, retry=FAST_RETRY) as client:
                    def drive():
                        first = client.submit(
                            tenant="t", op="multiply", a="A", b="B",
                            idempotency_key="lost-response-retry",
                        )
                        second = client.submit(
                            tenant="t", op="multiply", a="A", b="B",
                            idempotency_key="lost-response-retry",
                        )
                        assert second == first
                        client.wait(first, timeout=120.0)
                        return client.metrics()
                    metrics = await loop.run_in_executor(None, drive)
                await service.stop()
            return metrics

        metrics = run(scenario())
        assert metrics["jobs"] == {"done": 1}


class TestLargeResults:
    def test_result_over_the_line_cap_is_fetchable(self, tmp_path):
        """A 2000-dim banded A×A whose dense JSON answer would be ~73 MiB.

        Shipped as a JSON list of floats that is past the client's
        64 MiB ``MAX_FRAME_BYTES``, so an admitted, computed job could
        not be fetched; as a length-delimited binary body it arrives
        whole and bit-identical to the in-process product.
        """
        config = SystemConfig()
        registry = MatrixRegistry(config=config)
        registry.register(
            "BAND", banded_matrix(2000, 160_000, bandwidth=1200, seed=7)
        )

        async def scenario():
            loop = asyncio.get_running_loop()
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with ServiceClient("127.0.0.1", port, request_timeout=120.0) as client:
                    def drive():
                        job_id = client.submit(tenant="t", op="multiply", a="BAND", b="BAND")
                        assert client.wait(job_id, timeout=300.0)["state"] == "done"
                        return client.result(job_id)
                    values = await loop.run_in_executor(None, drive)
                await service.stop()
            return values

        values = run(scenario())
        band = registry.get("BAND")
        reference, _ = atmult(band, band, options=MultiplyOptions(config=config))
        assert values.shape == (2000, 2000)
        assert np.array_equal(values, reference.to_dense())
        assert np.count_nonzero(values) > 0.9 * values.size  # a dense answer


def stored_result_body(tmp_path, result) -> tuple[dict, bytes]:
    store = JobStore(tmp_path / "store")
    store.create(JobRecord(spec=JobSpec(job_id="j", tenant="t", op="multiply", a="A", b="A")))
    store.save_result("j", result)
    header, handle = store.open_result("j")
    with handle:
        return header, handle.read()


class TestResultBodyInTransit:
    @pytest.mark.parametrize("kind", ["at", "values"])
    def test_no_flipped_bit_yields_wrong_values(self, registry, tmp_path, kind):
        """Flip one bit at every 5th offset of a result body: decoding
        either raises IntegrityError or returns the exact values (a flip
        in zip metadata the reader never consults changes nothing)."""
        result = registry.get("A") if kind == "at" else np.linspace(-1.0, 1.0, 40)
        header, body = stored_result_body(tmp_path, result)
        expected = decode_result(kind, body)
        detected = 0
        for offset in range(0, len(body), 5):
            flipped = bytearray(body)
            flipped[offset] ^= 0x08
            try:
                values = decode_result(kind, bytes(flipped))
            except IntegrityError:
                detected += 1
                continue
            assert np.array_equal(values, expected), offset
        assert detected  # every payload byte is covered by a checksum

    def test_client_rejects_a_body_flipped_on_the_wire(self, registry, tmp_path):
        header, body = stored_result_body(tmp_path, registry.get("A"))
        flipped = bytearray(body)
        flipped[len(body) // 2] ^= 0x01

        async def scenario():
            loop = asyncio.get_running_loop()

            async def handler(reader, writer):
                await reader.readline()
                answer = {"ok": True, "result": header}
                writer.write(json.dumps(answer).encode() + b"\n" + bytes(flipped))
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with ServiceClient("127.0.0.1", port, retry=FAST_RETRY) as client:
                    with pytest.raises(IntegrityError):
                        await loop.run_in_executor(None, client.result, "j")

        run(scenario())


class TestWaitVerb:
    def test_wait_timeout_is_typed_and_keeps_the_connection(self, registry, tmp_path):
        """A server-side wait timeout answers WaitTimeoutError (a
        TimeoutError) on a connection that stays usable."""

        async def scenario():
            loop = asyncio.get_running_loop()
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                await service.stop()  # no workers: submitted jobs stay queued
                with ServiceClient("127.0.0.1", port, retry=FAST_RETRY) as client:
                    def drive():
                        job_id = client.submit(tenant="t", op="multiply", a="A", b="B")
                        sock = client._sock
                        with pytest.raises(WaitTimeoutError) as excinfo:
                            client.wait(job_id, timeout=0.05)
                        assert isinstance(excinfo.value, TimeoutError)
                        assert client._sock is sock  # not a transport failure
                        assert client.status(job_id)["state"] == "queued"
                        with pytest.raises(DeadlineExceededError):
                            client.wait(job_id, timeout=60.0, deadline=Deadline(0.05))
                        return client.breaker.failures
                    failures = await loop.run_in_executor(None, drive)
            return failures

        assert run(scenario()) == 0

    def test_shutdown_with_a_parked_wait_is_clean(self, registry, tmp_path):
        """The loop's shutdown cancels a handler parked in ``wait``; the
        autouse guard fails the test if asyncio logs that as an error."""

        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                await service.stop()  # no workers: the job stays queued
                job_id = await service.submit(tenant="t", op="multiply", a="A", b="B")
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                request = {"op": "wait", "job_id": job_id, "timeout": 600.0}
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                for _ in range(500):
                    if service._settled:
                        break
                    await asyncio.sleep(0.01)
                assert job_id in service._settled  # parked server-side
            return reader, writer  # still open when the loop shuts down

        run(scenario())

    def test_wait_answers_when_the_job_settles(self, registry, tmp_path):
        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            async with service:
                job_id = await service.submit(tenant="t", op="multiply", a="A", b="B")
                status = await service.wait(job_id, timeout=120.0)
                assert not service._settled  # events are dropped once set
                return status

        assert run(scenario()).state.value == "done"


class TestTransportResilience:
    def test_retries_through_connections_dropped_at_accept(self):
        """A listener that kills its first two connections; retry wins."""

        async def scenario():
            loop = asyncio.get_running_loop()
            kills = {"left": 2}

            async def handler(reader, writer):
                if kills["left"] > 0:
                    kills["left"] -= 1
                    writer.close()
                    return
                line = await reader.readline()
                assert json.loads(line)["op"] == "ping"
                writer.write(json.dumps({"ok": True, "pong": True}).encode() + b"\n")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                with ServiceClient(
                    "127.0.0.1", port, retry=FAST_RETRY,
                    breaker=CircuitBreaker(failure_threshold=10),
                ) as client:
                    assert await loop.run_in_executor(None, client.ping)
            assert kills["left"] == 0

        run(scenario())

    def test_exhausted_retries_raise_transport_error(self):
        port = closed_port()
        with ServiceClient(
            "127.0.0.1", port,
            retry=RetryPolicy(max_attempts=2, backoff_base_seconds=0.001),
            breaker=CircuitBreaker(failure_threshold=100),
        ) as client:
            with pytest.raises(TransportError):
                client.ping()

    def test_breaker_opens_and_fails_fast(self):
        port = closed_port()
        with ServiceClient(
            "127.0.0.1", port,
            retry=RetryPolicy(max_attempts=2, backoff_base_seconds=0.001),
            breaker=CircuitBreaker(failure_threshold=2, reset_seconds=60.0),
        ) as client:
            with pytest.raises(TransportError):
                client.ping()  # two attempts = two transport failures
            assert client.breaker.open
            started = time.monotonic()
            with pytest.raises(CircuitOpenError):
                client.ping()
            assert time.monotonic() - started < 0.5  # fail-fast, no dial

    def test_client_deadline_stops_retrying(self):
        port = closed_port()
        with ServiceClient(
            "127.0.0.1", port,
            retry=RetryPolicy(max_attempts=50, backoff_base_seconds=0.01),
            breaker=CircuitBreaker(failure_threshold=1000),
        ) as client:
            with pytest.raises(DeadlineExceededError):
                client.ping(deadline=Deadline(0.05))

    def test_expired_deadline_rejects_before_sending(self, registry, tmp_path):
        deadline = Deadline(0.001)
        time.sleep(0.01)
        client = ServiceClient("127.0.0.1", 1)  # never dialed
        with pytest.raises(DeadlineExceededError):
            client.submit(
                tenant="t", op="multiply", a="A", b="B", deadline=deadline
            )
