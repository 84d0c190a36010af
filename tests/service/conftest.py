"""Fixtures: thread-hosted daemons the tests talk to over real HTTP.

``pytest-asyncio`` is not available in this environment, so the async
daemon runs on a background thread (:class:`ServiceThread`) with its
own event loop, and the tests drive it with the synchronous client —
which also means every test exercises the real wire path.
"""

from __future__ import annotations

import pytest

from repro.obs.telemetry import Telemetry
from repro.service.server import ServiceConfig
from repro.testing import ServiceThread

#: Small cell shared by the service tests: fast, deterministic.
CELL = "small-layered-ep"


@pytest.fixture
def service():
    """A daemon on an ephemeral port, in-process execution (workers=0)."""
    with ServiceThread(
        ServiceConfig(port=0, workers=0, queue_limit=16), telemetry=Telemetry()
    ) as thread:
        yield thread


@pytest.fixture
def client(service):
    return service.client(timeout=60.0)
