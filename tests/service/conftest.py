"""Service-suite guard: asyncio must log no error while a test runs.

A connection handler task that ends cancelled or failed is logged by
asyncio's stream machinery ("Exception in callback ...", "Unhandled
exception in client_connected_cb") instead of raised, so without this
guard a leaking shutdown path passes every assertion.
"""

from __future__ import annotations

import logging

import pytest


class _Collect(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def no_asyncio_errors():
    handler = _Collect()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    messages = [record.getMessage() for record in handler.records]
    assert not messages, f"asyncio logged errors: {messages}"
