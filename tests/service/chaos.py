"""Deterministic fault-injecting TCP proxy for chaos-testing the service.

:class:`ChaosProxy` sits between a :class:`repro.ServiceClient` and a
``repro serve`` endpoint and mangles traffic per *connection*, driven by
the library's seeded-hash machinery (:func:`repro.resilience.faults.
stable_unit`) so every run of a given seed injects the identical fault
schedule regardless of thread timing:

=============  ========================================================
fault          behaviour
=============  ========================================================
``drop``       accept, then close immediately (connect storms)
``garbage``    prefix the first server response with garbage bytes
``truncate``   cut the first server response mid-frame, then close
``reset``      forward a budgeted number of response bytes, then RST
``delay``      add latency to every forwarded chunk
``clean``      pure passthrough
=============  ========================================================

Every surviving connection additionally retires after a seeded number of
complete response *frames*.  A frame is one JSON line, plus — after a
result header ``{"ok": true, "result": {..., "bytes": N}}`` — the N raw
body bytes that follow it, newline bytes included; the proxy parses
that framing (:class:`_FrameCounter`) so a binary body neither ends a
frame early nor skews the seeded schedule, and cuts only between whole
frames.  A long-lived client is thereby forced to reconnect every few
exchanges, walking the whole fault schedule instead of parking forever
on one lucky clean connection.

Faults are only injected on the server→client direction: requests reach
the server intact, so a mangled exchange is always a *lost response*,
never a corrupted submission — exactly the failure idempotency keys
exist for.  The proxy is threaded and synchronous on purpose: it needs
no event loop and works against a server in another process.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any

from repro.resilience.faults import stable_unit

__all__ = ["ChaosProxy", "FAULT_KINDS"]

FAULT_KINDS = ("drop", "garbage", "truncate", "reset", "delay", "clean")

_GARBAGE = b"\xfe\xfd\x00{{{ chaos \xff"
_CHUNK = 65536


def _hard_close(sock: socket.socket, *, rst: bool = False) -> None:
    """Tear a socket down so the peer notices *now* (FIN, or RST)."""
    if rst:
        # SO_LINGER with zero timeout: the close sends RST when the
        # kernel reference drops, a hard reset instead of a tidy FIN.
        try:
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:
            pass
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _body_length(line: bytes) -> int:
    """Body bytes that follow the response line ``line`` (0: none)."""
    try:
        response = json.loads(line)
    except ValueError:
        return 0
    header = response.get("result") if isinstance(response, dict) else None
    if response.get("ok") and isinstance(header, dict):
        return int(header.get("bytes", 0))
    return 0


class _FrameCounter:
    """Finds whole response frames in a server→client byte stream."""

    def __init__(self) -> None:
        self._line = bytearray()
        self._body = 0  # body bytes still to come for the current frame

    def scan(self, data: bytes, budget: int) -> tuple[int, int]:
        """Consume ``data``: frames completed (at most ``budget``), and the
        offset just past the last of them (``len(data)`` below budget)."""
        frames = pos = 0
        while pos < len(data):
            if self._body:
                taken = min(self._body, len(data) - pos)
                self._body -= taken
                pos += taken
            else:
                newline = data.find(b"\n", pos)
                if newline == -1:
                    self._line += data[pos:]
                    break
                self._line += data[pos:newline]
                pos = newline + 1
                self._body = _body_length(bytes(self._line))
                self._line.clear()
            if not self._body and not self._line:
                frames += 1
                if frames == budget:
                    return frames, pos
        return frames, len(data)


def _fault_for(seed: int, connection: int) -> str:
    """The deterministic fault of connection number ``connection``."""
    draw = stable_unit(seed, "chaos-fault", connection)
    if draw < 0.10:
        return "drop"
    if draw < 0.20:
        return "garbage"
    if draw < 0.30:
        return "truncate"
    if draw < 0.40:
        return "reset"
    if draw < 0.55:
        return "delay"
    return "clean"


class ChaosProxy:
    """A seeded fault-injecting TCP proxy in front of one target port."""

    def __init__(
        self,
        target_port: int,
        *,
        seed: int,
        host: str = "127.0.0.1",
        target_host: str = "127.0.0.1",
    ) -> None:
        self.seed = seed
        self.target = (target_host, target_port)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()[:2]
        self._threads: list[threading.Thread] = []
        self._sockets: list[socket.socket] = []
        self._lock = threading.Lock()
        self._closing = False
        self._connections = 0
        #: fault kind -> number of connections it was applied to
        self.stats: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True
        )
        self._accept_thread.start()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            sockets = list(self._sockets)
        for sock in sockets:
            _hard_close(sock)
        self._accept_thread.join(timeout=5.0)
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> ChaosProxy:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def snapshot(self) -> dict[str, Any]:
        """JSON-friendly export of the injected-fault schedule so far."""
        with self._lock:
            return {"seed": self.seed, "connections": self._connections,
                    "faults": dict(self.stats)}

    # -- internals ---------------------------------------------------------
    def _track(self, sock: socket.socket) -> None:
        with self._lock:
            self._sockets.append(sock)

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                index = self._connections
                self._connections += 1
            fault = _fault_for(self.seed, index)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(client, index, fault),
                name=f"chaos-conn-{index}",
                daemon=True,
            )
            with self._lock:
                self.stats[fault] += 1
                self._threads.append(thread)
            thread.start()

    def _serve_connection(
        self, client: socket.socket, index: int, fault: str
    ) -> None:
        self._track(client)
        if fault == "drop":
            _hard_close(client)
            return
        try:
            upstream = socket.create_connection(self.target, timeout=10.0)
        except OSError:
            _hard_close(client)
            return
        self._track(upstream)

        delay = 0.02 if fault == "delay" else 0.0
        budget: int | None = None
        mangle = b""
        linger_reset = False
        if fault == "truncate":
            # cut inside the first response frame (responses are >10 B)
            budget = 5 + int(stable_unit(self.seed, "truncate", index) * 5)
        elif fault == "reset":
            budget = 256 + int(stable_unit(self.seed, "reset", index) * 3840)
            linger_reset = True
        elif fault == "garbage":
            mangle = _GARBAGE
        # bounded lifetime: retire after 1-3 complete response frames
        frame_budget = 1 + int(stable_unit(self.seed, "frames", index) * 3)

        # client -> server: always intact (see module docstring)
        up = threading.Thread(
            target=self._pump,
            args=(client, upstream),
            kwargs={"delay": 0.0},
            name=f"chaos-up-{index}",
            daemon=True,
        )
        with self._lock:
            self._threads.append(up)
        up.start()
        # server -> client: where the configured fault applies
        self._pump(
            upstream,
            client,
            delay=delay,
            budget=budget,
            mangle=mangle,
            linger_reset=linger_reset,
            frame_budget=frame_budget,
        )

    @staticmethod
    def _pump(
        src: socket.socket,
        dst: socket.socket,
        *,
        delay: float = 0.0,
        budget: int | None = None,
        mangle: bytes = b"",
        linger_reset: bool = False,
        frame_budget: int | None = None,
    ) -> None:
        import time

        forwarded = 0
        retire = False
        frames = _FrameCounter()
        try:
            while not retire:
                data = src.recv(_CHUNK)
                if not data:
                    break
                if frame_budget is not None:
                    # keep exactly the remaining whole frames, then retire
                    completed, cut = frames.scan(data, frame_budget)
                    data = data[:cut]
                    frame_budget -= completed
                    retire = frame_budget == 0
                if mangle:
                    data = mangle + data
                    mangle = b""
                if budget is not None:
                    data = data[: max(0, budget - forwarded)]
                if delay:
                    time.sleep(delay)
                if data:
                    dst.sendall(data)
                    forwarded += len(data)
                if budget is not None and forwarded >= budget:
                    break
        except OSError:
            pass
        finally:
            # shutdown() before close(): a peer pump blocked in recv()
            # on the same socket pins the kernel file reference, so a
            # bare close() would neither send FIN nor wake it — the
            # client would stall for its full request timeout instead
            # of failing over immediately.
            _hard_close(dst, rst=linger_reset)
            _hard_close(src)
