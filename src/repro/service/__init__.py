"""Scheduling-as-a-service: an asyncio job-submission daemon.

A stdlib-only (no new runtime dependencies) JSON-over-HTTP front-end
for the simulation engine: submit single-instance schedules, paired-
comparison sweeps, and multi-job stream simulations to a long-lived
daemon that executes them on a shared worker pool.  The pieces:

* :mod:`~repro.service.protocol` — versioned request/response schema,
  strict validation, structured error codes, request fingerprints;
* :mod:`~repro.service.admission` — bounded queue + token-bucket rate
  limit + cooperative deadlines (explicit 429/503/504, never unbounded
  buffering);
* :mod:`~repro.service.executor` — shared pool built on
  :mod:`repro.experiments.parallel`, with in-flight request joining
  and an LRU response cache keyed by content fingerprint;
* :mod:`~repro.service.server` — the asyncio HTTP daemon
  (``/schedule`` ``/sweep`` ``/stream`` ``/healthz`` ``/metrics``),
  graceful SIGTERM drain, and the HTTP front it shares with the
  cluster router;
* :mod:`~repro.service.client` — synchronous stdlib client.

Entry points: ``repro serve`` and ``repro submit`` (see
:mod:`repro.service.cli`).  :mod:`repro.testing` hosts the daemon on a
thread or spawns it, and ``scripts/soak.py`` smoke-tests and
load-tests it.
"""

from repro.service.client import ServiceClient, ServiceError, ServiceResponse
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    parse_request,
    request_fingerprint,
)
from repro.service.server import ScheduleService, ServiceConfig, run_front

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "parse_request",
    "request_fingerprint",
    "ScheduleService",
    "ServiceConfig",
    "run_front",
    "ServiceClient",
    "ServiceError",
    "ServiceResponse",
]
