"""JSON-lines TCP front end for the matrix service.

One request per line, one JSON response line per request — scriptable
and language-agnostic.  Requests are JSON objects with an ``op`` field:

* ``{"op": "submit", "tenant": T, "job": {"op": "multiply", "a": ...,
  "b": ...}}`` → ``{"ok": true, "job_id": ...}``
* ``{"op": "status", "job_id": J}`` → ``{"ok": true, "status": {...}}``
* ``{"op": "wait", "job_id": J, "timeout": S}`` → the same ``status``
  answer, sent once the job reaches a terminal state; after ``S``
  seconds (default 60) a typed ``WaitTimeoutError`` answer instead.
  The connection stays open either way.
* ``{"op": "result", "job_id": J}`` → one JSON header line
  ``{"ok": true, "result": {"kind": K, "shape": [r, c], "bytes": N}}``
  followed by exactly ``N`` raw bytes: the job's stored result file,
  a v3 archive of kind ``"at"`` (the AT Matrix of a multiply) or
  ``"values"`` (the vector of a ``matvec``/``solve``).  The body is
  decoded and checksum-verified by the reader
  (:func:`repro.service.jobs.decode_result`); it is binary, so this one
  answer is not ``nc``-readable.
* ``{"op": "cancel", "job_id": J}`` → ``{"ok": true, "cancelled": bool}``
* ``{"op": "metrics"}`` → the :meth:`MatrixService.metrics` export.
* ``{"op": "matrices"}`` → the registered matrix names.
* ``{"op": "ping"}`` → liveness probe.
* ``{"op": "health"}`` → :meth:`MatrixService.health` liveness detail.
* ``{"op": "ready"}`` → :meth:`MatrixService.ready` readiness gate
  (started, not draining, registry loaded, queue headroom).

Submit jobs may carry ``deadline_seconds`` (total budget, propagated
into the engine's cooperative cancellation) and ``idempotency_key``
(server-side dedupe: a retried submit never double-executes).

Every :class:`~repro.errors.ReproError` maps to ``{"ok": false,
"error": {"type": <class name>, "message": ...}}`` with the connection
kept open, so one tenant's rejected job never disturbs another tenant's
stream.  Connections are served concurrently by asyncio; the service's
worker pool bounds the actual compute.

Frames are bounded: a request line longer than
:data:`STREAM_LIMIT_BYTES` is discarded (the connection survives) and
answered with a typed ``FrameTooLargeError`` payload instead of growing
the buffer without bound; a frame truncated by a mid-line disconnect
closes that connection without disturbing the server.  A result body is
not a line: it is length-delimited by its header and streamed from the
file in chunks, so its size is bounded by the stored result, not by
the line cap.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from typing import Any, BinaryIO

from ..errors import FormatError, FrameTooLargeError, ReproError
from .server import MatrixService

#: Per-line stream buffer and frame-size cap: submit requests carry
#: inline ``rhs`` vectors, far past asyncio's 64 KiB default.  Requests
#: beyond this are rejected with ``FrameTooLargeError``.
STREAM_LIMIT_BYTES = 64 * 1024 * 1024

#: Bytes read from a result file per write while streaming its body.
_BODY_CHUNK_BYTES = 1 << 20


def _error_payload(error: ReproError) -> dict[str, Any]:
    return {
        "ok": False,
        "error": {"type": type(error).__name__, "message": str(error)},
    }


async def _read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """One newline-terminated request frame, size-capped.

    Returns ``None`` on clean EOF (including a disconnect that
    truncated the frame mid-line — the client is gone; there is nobody
    to answer).  An oversized frame is *discarded* — buffered bytes
    through the terminating newline are consumed so the connection
    stays usable — and reported as
    :class:`~repro.errors.FrameTooLargeError` for a typed response.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        # EOF before the newline: a final unterminated frame (legacy
        # clients) is still served; an empty tail is a clean close.
        return error.partial or None
    except asyncio.LimitOverrunError as error:
        consumed = error.consumed
        while True:
            try:
                if consumed:
                    await reader.readexactly(consumed)
                await reader.readuntil(b"\n")
                break  # drained through the newline; connection usable
            except asyncio.LimitOverrunError as again:
                consumed = again.consumed
            except asyncio.IncompleteReadError:
                return None  # EOF inside the oversized frame
        raise FrameTooLargeError(
            f"request frame exceeds the {STREAM_LIMIT_BYTES} byte cap",
            limit_bytes=STREAM_LIMIT_BYTES,
        ) from None


async def _dispatch(service: MatrixService, request: dict[str, Any]) -> dict[str, Any]:
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "pong": True}
    if op == "health":
        return {"ok": True, "health": service.health()}
    if op == "ready":
        return {"ok": True, "ready": service.ready()}
    if op == "matrices":
        return {"ok": True, "matrices": service.registry.names()}
    if op == "metrics":
        return {"ok": True, "metrics": service.metrics()}
    if op == "submit":
        job = request.get("job")
        if not isinstance(job, dict):
            raise FormatError("submit requests need a 'job' object")
        job_id = await service.submit(
            tenant=str(request.get("tenant", "anonymous")),
            op=str(job.get("op", "")),
            a=str(job.get("a", "")),
            b=job.get("b"),
            rhs=job.get("rhs"),
            params=job.get("params"),
            job_id=job.get("job_id"),
            deadline_seconds=(
                float(job["deadline_seconds"])
                if job.get("deadline_seconds") is not None
                else None
            ),
            idempotency_key=(
                str(job["idempotency_key"])
                if job.get("idempotency_key") is not None
                else None
            ),
        )
        return {"ok": True, "job_id": job_id}
    if op in ("status", "wait", "cancel"):
        job_id = str(request.get("job_id", ""))
        if op == "status":
            status = await service.status(job_id)
            return {"ok": True, "status": status.to_json_dict()}
        if op == "wait":
            timeout = float(request.get("timeout", 60.0))
            if not timeout >= 0:
                raise FormatError(f"wait timeout must be >= 0, got {timeout}")
            status = await service.wait(job_id, timeout=timeout)
            return {"ok": True, "status": status.to_json_dict()}
        cancelled = await service.cancel(job_id)
        return {"ok": True, "cancelled": cancelled}
    raise FormatError(f"unknown request op {op!r}")


async def _send_body(
    body: BinaryIO, size: int, writer: asyncio.StreamWriter
) -> None:
    """Stream exactly ``size`` bytes of ``body`` in bounded chunks."""
    loop = asyncio.get_running_loop()
    remaining = size
    while remaining:
        chunk = await loop.run_in_executor(
            None, body.read, min(_BODY_CHUNK_BYTES, remaining)
        )
        if not chunk:  # cannot happen for an atomically replaced file
            raise ConnectionAbortedError("result file ended before its size")
        writer.write(chunk)
        remaining -= len(chunk)
        await writer.drain()


async def _handle_connection(
    service: MatrixService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                line = await _read_frame(reader)
            except FrameTooLargeError as error:
                writer.write(json.dumps(_error_payload(error)).encode() + b"\n")
                await writer.drain()
                continue
            if not line:
                break
            body: BinaryIO | None = None
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise FormatError("requests must be JSON objects")
                if request.get("op") == "result":
                    header, body = await service.open_result(
                        str(request.get("job_id", ""))
                    )
                    response: dict[str, Any] = {"ok": True, "result": header}
                else:
                    response = await _dispatch(service, request)
            except ReproError as error:
                response = _error_payload(error)
            except (ValueError, TypeError, KeyError) as error:
                response = {
                    "ok": False,
                    "error": {"type": "BadRequest", "message": str(error)},
                }
            writer.write(json.dumps(response).encode() + b"\n")
            if body is None:
                await writer.drain()
                continue
            with body:
                await _send_body(body, response["result"]["bytes"], writer)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


async def serve(
    service: MatrixService, *, host: str = "127.0.0.1", port: int = 0
) -> asyncio.base_events.Server:
    """Start the service (if needed) and bind the JSON-lines endpoint.

    ``port=0`` binds an ephemeral port; read the bound address from the
    returned server's ``sockets``.  The caller owns the loop:
    ``async with server: await server.serve_forever()``.
    """
    await service.start()

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await _handle_connection(service, reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            # Shutdown cancels connections still open (idle, or parked in
            # a ``wait``), and a client may vanish mid-answer.  Either
            # way the connection is closed; end the task normally, as
            # asyncio's stream callback logs a cancelled or failed
            # handler task as an error ("Exception in callback").
            pass

    return await asyncio.start_server(
        handler, host=host, port=port, limit=STREAM_LIMIT_BYTES
    )
