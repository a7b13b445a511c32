"""Protocol error paths: every malformed input answers typed, nothing dies.

Satellite contract: truncated frames, oversized frames, unknown verbs,
garbage bytes and a corrupted result payload each produce a typed error
response (or a clean connection close) and leave the server — and where
applicable the same connection — fully usable afterwards.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro import COOMatrix, IntegrityError, SystemConfig
from repro.service import MatrixRegistry, MatrixService, serve
from repro.service import protocol as protocol_module
from repro.service.jobs import decode_result

from ..conftest import random_sparse_array


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def registry(small_config: SystemConfig, rng) -> MatrixRegistry:
    registry = MatrixRegistry(config=small_config)
    raw = random_sparse_array(rng, 64, 64, 0.1)
    registry.register("A", COOMatrix.from_dense(raw))
    return registry


async def request(reader, writer, payload):
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


class TestFrameBounds:
    def test_oversized_frame_typed_error_connection_survives(
        self, registry, tmp_path, monkeypatch
    ):
        """A frame past the cap answers FrameTooLargeError, then serves on."""
        monkeypatch.setattr(protocol_module, "STREAM_LIMIT_BYTES", 4096)

        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"x" * 20000 + b"\n")
                await writer.drain()
                error = json.loads(await reader.readline())
                # the same connection still answers real requests
                pong = await request(reader, writer, {"op": "ping"})
                listing = await request(reader, writer, {"op": "matrices"})
                writer.close()
                await writer.wait_closed()
                await service.stop()
                return error, pong, listing

        error, pong, listing = run(scenario())
        assert not error["ok"]
        assert error["error"]["type"] == "FrameTooLargeError"
        assert "4096" in error["error"]["message"]
        assert pong["ok"] and pong["pong"]
        assert listing["matrices"] == ["A"]

    def test_pipelined_request_after_oversized_frame_is_preserved(
        self, registry, tmp_path, monkeypatch
    ):
        """Draining the oversized frame must not eat the next frame."""
        monkeypatch.setattr(protocol_module, "STREAM_LIMIT_BYTES", 4096)

        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                # one write: oversized frame AND the follow-up ping
                writer.write(
                    b"y" * 20000 + b"\n"
                    + json.dumps({"op": "ping"}).encode() + b"\n"
                )
                await writer.drain()
                error = json.loads(await reader.readline())
                pong = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                await service.stop()
                return error, pong

        error, pong = run(scenario())
        assert error["error"]["type"] == "FrameTooLargeError"
        assert pong["ok"] and pong["pong"]

    def test_truncated_frame_closes_quietly_server_survives(
        self, registry, tmp_path
    ):
        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                # disconnect mid-frame: no newline ever arrives
                _, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b'{"op": "sub')
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                # a fresh connection is served normally
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                pong = await request(reader, writer, {"op": "ping"})
                writer.close()
                await writer.wait_closed()
                await service.stop()
                return pong

        pong = run(scenario())
        assert pong["ok"] and pong["pong"]


class TestMalformedRequests:
    def test_garbage_bytes_then_unknown_verb_then_recovery(
        self, registry, tmp_path
    ):
        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"\x00\xff\xfe not json at all\n")
                await writer.drain()
                garbage = json.loads(await reader.readline())
                unknown = await request(reader, writer, {"op": "frobnicate"})
                non_object = await request(reader, writer, [1, 2, 3])
                missing_job = await request(
                    reader, writer, {"op": "submit", "tenant": "t"}
                )
                pong = await request(reader, writer, {"op": "ping"})
                writer.close()
                await writer.wait_closed()
                await service.stop()
                return garbage, unknown, non_object, missing_job, pong

        garbage, unknown, non_object, missing_job, pong = run(scenario())
        assert not garbage["ok"]
        assert garbage["error"]["type"] == "BadRequest"
        assert not unknown["ok"]
        assert unknown["error"]["type"] == "FormatError"
        assert not non_object["ok"]
        assert non_object["error"]["type"] == "FormatError"
        assert not missing_job["ok"]
        assert missing_job["error"]["type"] == "FormatError"
        assert pong["ok"]


class TestResultIntegrity:
    def test_corrupted_result_payload_yields_typed_error(
        self, registry, tmp_path
    ):
        """A corrupt stored result never reads back as values.

        Tampered members under intact checksums reach the reader, whose
        verification rejects them; a file that is no archive at all is
        answered with a typed error.  The connection survives both.
        """

        async def scenario():
            service = MatrixService(registry, job_dir=tmp_path / "jobs")
            server = await serve(service, port=0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                submitted = await request(reader, writer, {
                    "op": "submit", "tenant": "t",
                    "job": {"op": "multiply", "a": "A", "b": "A"},
                })
                job_id = submitted["job_id"]
                status = await request(
                    reader, writer, {"op": "wait", "job_id": job_id}
                )
                assert status["status"]["state"] == "done", status

                # Corrupt the persisted values but keep the stored checksums:
                # a well-formed archive whose content silently changed.
                path = tmp_path / "jobs" / job_id / "result.npz"
                with np.load(path) as archive:
                    arrays = {name: archive[name] for name in archive.files}
                name = next(n for n in arrays if n.startswith(("dense_", "values_")))
                arrays[name] = arrays[name] + 1.0
                np.savez(path, **arrays)
                header = await request(
                    reader, writer, {"op": "result", "job_id": job_id}
                )
                body = await reader.readexactly(header["result"]["bytes"])

                path.write_bytes(b"not an archive")
                error = await request(
                    reader, writer, {"op": "result", "job_id": job_id}
                )
                pong = await request(reader, writer, {"op": "ping"})
                writer.close()
                await writer.wait_closed()
                await service.stop()
                return header, body, error, pong

        header, body, error, pong = run(scenario())
        with pytest.raises(IntegrityError, match="checksum"):
            decode_result(header["result"]["kind"], body)
        assert not error["ok"]
        assert error["error"]["type"] == "IntegrityError"
        assert pong["ok"]  # connection survived the integrity failure
