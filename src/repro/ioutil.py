"""Durable file I/O primitives: atomic writes and the format checksums.

Every file the library persists — ``.npz`` archives, checkpoint journal
records, ``.mtx`` exports, observation dumps — goes through
:func:`atomic_write`: the bytes land in a temporary file in the target
directory, are flushed and fsynced, and only then renamed over the final
path with ``os.replace``.  A process killed mid-save therefore leaves
either the previous file intact or a stray ``*.tmp`` — never a truncated
final file that a later load dies on.  The repro-lint rule RPR007
enforces that no code under ``src/repro`` opens a final path for
writing directly.

:func:`crc32` is the checksum of every current on-disk and on-wire
format: archive format v3 stores one per payload array, checkpoint
journal v2 one per record, and a service result body is an archive
carrying them.  It is stdlib :func:`zlib.crc32` (CRC-32, IEEE 802.3),
which runs at C speed and accepts any C-contiguous buffer — a numpy
array included — without a copy.  A flipped bit at rest or in transit
is caught at load time instead of surfacing as wrong numerics.

:func:`crc32c` is the CRC-32C (Castagnoli) checksum of the previous
formats (archive v2, journal v1).  It is table-driven pure Python,
orders of magnitude slower than :func:`crc32`, and kept only so those
files still load and verify: loaders pick the checksum by the version
number stored in the file.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import zlib
from collections.abc import Iterator
from pathlib import Path
from typing import IO, Any

#: CRC-32 of a buffer, continuing from ``value``: ``crc32(data, value=0)``.
crc32 = zlib.crc32

#: Reflected CRC-32C (Castagnoli) polynomial (iSCSI, ext4, RFC 3720).
_CRC32C_POLY = 0x82F63B78


def _build_table() -> tuple[int, ...]:
    table = []
    for index in range(256):
        crc = index
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC32C_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC32C_TABLE = _build_table()


def crc32c(data: Any, value: int = 0) -> int:
    """CRC-32C checksum of the buffer ``data``, continuing from ``value``.

    ``crc32c(b, crc32c(a))`` equals ``crc32c(a + b)``, so multi-array
    payloads can be digested without concatenating their bytes.
    """
    table = _CRC32C_TABLE
    crc = (value ^ 0xFFFFFFFF) & 0xFFFFFFFF
    for byte in bytes(data):
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


@contextlib.contextmanager
def atomic_write(
    target: str | Path, *, mode: str = "wb", encoding: str | None = None
) -> Iterator[IO[Any]]:
    """Write a file atomically: temp file + fsync + ``os.replace``.

    Yields a writable handle onto a temporary file created next to
    ``target`` (same filesystem, so the final rename is atomic).  On
    clean exit the temp file replaces ``target``; on any exception it is
    removed and the previous content of ``target`` — if any — survives
    untouched.
    """
    if mode not in {"w", "wb"}:
        raise ValueError(f"atomic_write supports modes 'w'/'wb', got {mode!r}")
    path = Path(target)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def atomic_write_bytes(target: str | Path, data: bytes) -> None:
    """Atomically replace ``target`` with ``data``."""
    with atomic_write(target, mode="wb") as handle:
        handle.write(data)


def atomic_write_text(
    target: str | Path, text: str, *, encoding: str = "utf-8"
) -> None:
    """Atomically replace ``target`` with ``text``."""
    with atomic_write(target, mode="w", encoding=encoding) as handle:
        handle.write(text)
