"""The scheduling daemon, and the HTTP front it shares with the router.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — the
stdlib has no async HTTP server, and the protocol subset a scheduling
API needs (request line, headers, ``Content-Length`` body, one
response, close) is ~60 lines — far less surface than a web framework
dependency.  Endpoints:

* ``POST /schedule`` — simulate one instance (bit-identical to a
  direct :func:`repro.sim.engine.simulate`);
* ``POST /sweep`` — a paired-comparison sweep, sharded over the shared
  pool through the persistent result cache;
* ``POST /stream`` — one multi-job Poisson stream simulation;
* ``GET /healthz`` — liveness (``503`` once draining);
* ``GET /metrics`` — the serialized
  :class:`~repro.obs.telemetry.TelemetrySnapshot` plus queue depth,
  in-flight count, and admission/rejection counters.

Every request passes admission control
(:class:`~repro.service.admission.AdmissionController`) before any
work is queued: a full queue or an exhausted token bucket answers
``429`` with a ``Retry-After`` hint and a structured JSON error body —
overload is explicit, never an unbounded buffer or a silent drop.

Graceful drain: SIGTERM/SIGINT stop the listener, reject new requests
with ``503 draining``, wait for admitted requests (bounded by
``drain_timeout``), then shut the pool down — clean exit code 0, no
orphaned workers (``scripts/soak.py`` asserts this end to end).
Connections are HTTP/1.1 keep-alive: at soak rates the TCP handshake
per request is the dominant client-side cost, so the server answers as
many requests as the client pipelines sequentially on one connection,
closing on client request (``Connection: close``), idle timeout,
framing errors, or drain.  The cluster router
(:mod:`repro.cluster.router`) speaks the same wire protocol in front of
many daemons, so the listener lifecycle, the connection loop and the
framing live in :class:`HttpFront`, which both subclass, and
:func:`run_front` is the blocking entry point of both commands.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import sys
import time
from dataclasses import dataclass
from time import perf_counter

from repro.errors import ConfigurationError
from repro.obs.telemetry import Telemetry
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.executor import ServiceExecutor
from repro.service.protocol import (
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    ProtocolError,
    error_response,
    ok_response,
    parse_request,
)

__all__ = ["ServiceConfig", "ScheduleService", "HttpFront", "run_front", "json_body"]

#: Timeout for reading one request head/body off a connection; an idle
#: keep-alive connection closes after it.
READ_TIMEOUT = 30.0
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class BadHttp(Exception):
    """Malformed HTTP framing (before any JSON exists to answer with)."""


async def read_http_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes, bool] | None:
    """Read one framed HTTP request off a (possibly reused) connection.

    Returns ``(method, path, headers, body, keep_alive)`` — where
    ``keep_alive`` is the *client's* preference per HTTP/1.1 defaults —
    or ``None`` when the connection ended cleanly before a request
    started (EOF or idle timeout between keep-alive requests), which
    callers treat as a silent close, not an error.  Framing errors
    raise :class:`BadHttp`; protocol-level size errors raise
    :class:`ProtocolError`.
    """
    try:
        request_line = await asyncio.wait_for(reader.readline(), READ_TIMEOUT)
    except asyncio.TimeoutError:
        return None  # idle keep-alive connection: close silently
    if not request_line:
        return None  # clean EOF between requests
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise BadHttp(f"bad request line {request_line!r}")
    method, target, version = parts[0].upper(), parts[1], parts[2].upper()
    headers: dict[str, str] = {}
    while True:
        line = await asyncio.wait_for(reader.readline(), READ_TIMEOUT)
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise BadHttp("connection closed inside request headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise BadHttp(f"bad header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise ProtocolError(
            "bad_request", "Content-Length must be an integer"
        ) from None
    if length < 0:
        raise ProtocolError("bad_request", "negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(
            "payload_too_large",
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit",
        )
    body = (
        await asyncio.wait_for(reader.readexactly(length), READ_TIMEOUT)
        if length
        else b""
    )
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        keep_alive = connection == "keep-alive"
    else:
        keep_alive = connection != "close"
    return method, target.split("?", 1)[0], headers, body, keep_alive


def render_http_response(
    status: int,
    payload: bytes,
    keep_alive: bool,
    retry_after: float | None = None,
) -> bytes:
    """Serialize one framed HTTP response (body passed through verbatim)."""
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    if retry_after is not None:
        # Retry-After is integer delay-seconds; round *up* so a
        # hint of 0.2s never becomes "retry immediately".
        head.append(f"Retry-After: {max(1, math.ceil(retry_after))}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload


def json_body(body: dict) -> bytes:
    """The wire bytes of a JSON answer."""
    return json.dumps(body).encode("utf-8")


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon knobs, one frozen record (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: int = 8512
    #: Worker processes for the shared pool; 0 executes in-process on
    #: the event loop's thread pool (tests, smoke runs).
    workers: int = 1
    #: Bound on admitted-but-unfinished requests; beyond it: 429.
    queue_limit: int = 64
    #: Sustained admission rate (requests/second); ``None`` disables
    #: rate limiting.  ``burst`` defaults to ``max(1, rate)``.
    rate_limit: float | None = None
    burst: float | None = None
    #: Server-side default deadline (seconds) when a request names none;
    #: ``None`` means wait indefinitely.
    default_deadline: float | None = None
    #: How long a drain waits for in-flight work before hard teardown.
    drain_timeout: float = 20.0
    #: In-memory response-cache entries (0 disables).
    cache_entries: int = 256

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")


class HttpFront:
    """Listener lifecycle and keep-alive connection loop of both servers.

    :class:`ScheduleService` and the cluster router subclass it.  A
    subclass provides:

    * ``start()``, which ends by binding the listener with
      :meth:`_listen`, and ``drain() -> bool``, which closes it with
      :meth:`_close_listener` and reports whether the drain was clean;
    * ``draining``, true once new work is refused (each answer then
      closes its connection);
    * ``_dispatch(method, path, raw_body)``, which answers one request
      as ``(status, body bytes, Retry-After seconds or None)`` or raises
      :class:`ProtocolError`;
    * ``_announce()``, the startup lines :func:`run_front` logs.
    """

    #: The ``repro`` subcommand that runs this front, for log lines.
    command = ""

    def __init__(self, config) -> None:
        self.config = config
        self.port: int | None = None
        self._server: asyncio.Server | None = None
        self._shutdown: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started_at = 0.0

    # -- lifecycle ------------------------------------------------------
    async def _listen(self) -> None:
        """Bind the listener (resolves ``port`` — pass 0 for ephemeral)."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def _close_listener(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def request_shutdown(self) -> None:
        """Trigger a graceful drain; safe from any thread or signal."""
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)

    async def serve_forever(self) -> bool:
        """Serve until SIGTERM/SIGINT (or :meth:`request_shutdown`), then drain.

        Returns ``True`` if the drain completed cleanly within
        ``drain_timeout``.
        """
        assert self._shutdown is not None, "start() first"
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._shutdown.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread / non-Unix: programmatic shutdown only
        try:
            await self._shutdown.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
        return await self.drain()

    def _log(self, message: str) -> None:
        print(f"[repro {self.command}] {message}", file=sys.stderr, flush=True)

    # -- request handling -----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            keep = True
            while keep:
                keep = await self._serve_one(reader, writer)
        except asyncio.CancelledError:
            # Loop teardown cancels idle keep-alive connections; exit
            # quietly (3.11's stream callback would log the cancel).
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """One request/response exchange; returns whether to keep serving."""
        retry_after = None
        keep_alive = False
        try:
            request = await read_http_request(reader)
            if request is None:
                return False  # clean EOF / idle timeout: close silently
            method, path, _headers, body, keep_alive = request
            status, payload, retry_after = await self._dispatch(method, path, body)
        except ProtocolError as err:
            status, payload = err.http_status, json_body(err.to_body())
            retry_after = err.retry_after
        except (BadHttp, asyncio.TimeoutError):
            # Framing is broken mid-request; answer and close (the
            # stream position is no longer trustworthy).
            status, keep_alive = 400, False
            payload = json_body(
                error_response("bad_request", "malformed HTTP request")
            )
        except (
            asyncio.IncompleteReadError, ConnectionError, BrokenPipeError
        ):
            return False
        except Exception as exc:  # never leak a traceback as a hang
            status = 500
            payload = json_body(
                error_response("internal", f"{type(exc).__name__}: {exc}")
            )
        if self.draining:
            keep_alive = False  # drain: finish this answer, then close
        try:
            writer.write(
                render_http_response(
                    status, payload, keep_alive=keep_alive,
                    retry_after=retry_after,
                )
            )
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            return False
        return keep_alive

    @staticmethod
    def _require_method(method: str, expected: str) -> None:
        if method != expected:
            raise ProtocolError(
                "method_not_allowed", f"use {expected}, not {method}"
            )


class ScheduleService(HttpFront):
    """One daemon instance: listener + admission + shared executor."""

    command = "serve"

    def __init__(
        self,
        config: ServiceConfig | None = None,
        telemetry: Telemetry | None = None,
        work_fns: dict | None = None,
    ) -> None:
        super().__init__(config or ServiceConfig())
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.executor = ServiceExecutor(
            n_workers=self.config.workers,
            cache_entries=self.config.cache_entries,
            telemetry=self.telemetry,
            work_fns=work_fns,
        )
        bucket = (
            TokenBucket(self.config.rate_limit, self.config.burst)
            if self.config.rate_limit is not None
            else None
        )
        self.admission = AdmissionController(
            self.config.queue_limit, bucket=bucket, telemetry=self.telemetry
        )

    @property
    def draining(self) -> bool:
        return self.admission.draining

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Start the pool, then bind the listener."""
        self.executor.start()
        await self._listen()

    async def _announce(self) -> None:
        self._log(
            f"listening on http://{self.config.host}:{self.port} "
            f"(workers={self.config.workers}, "
            f"queue={self.config.queue_limit}, "
            f"rate={self.config.rate_limit or 'off'}) — SIGTERM drains"
        )

    async def drain(self) -> bool:
        """Stop accepting, finish admitted work, tear the pool down."""
        self.admission.start_draining()
        await self._close_listener()
        deadline = time.monotonic() + self.config.drain_timeout
        while self.admission.pending > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        remaining = max(0.0, deadline - time.monotonic())
        clean = await self.executor.drain(timeout=remaining)
        return clean and self.admission.pending == 0

    # -- request handling -----------------------------------------------
    async def _dispatch(
        self, method: str, path: str, raw_body: bytes
    ) -> tuple[int, bytes, float | None]:
        if path == "/healthz":
            self._require_method(method, "GET")
            draining = self.admission.draining
            # Rich enough for a supervisor to act on: draining state,
            # queue pressure, and uptime — not just liveness.
            return (
                503 if draining else 200,
                json_body({
                    "protocol": PROTOCOL_VERSION,
                    "status": "draining" if draining else "ok",
                    "uptime": time.monotonic() - self._started_at,
                    "draining": draining,
                    "pending": self.admission.pending,
                    "queue_limit": self.config.queue_limit,
                    "in_flight": self.executor.in_flight,
                }),
                None,
            )
        if path == "/metrics":
            self._require_method(method, "GET")
            return 200, json_body(self._metrics_body()), None
        kind = path.lstrip("/")
        if kind not in REQUEST_KINDS:
            raise ProtocolError(
                "not_found",
                f"no endpoint {path!r}; try /schedule /sweep /stream "
                f"/healthz /metrics",
            )
        self._require_method(method, "POST")
        self.telemetry.inc("service.requests")
        self.telemetry.inc(f"service.requests.{kind}")
        try:
            payload = json.loads(raw_body.decode("utf-8")) if raw_body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError("bad_json", f"request body is not JSON: {exc}") from None
        request = parse_request(payload, expected_kind=kind)

        ticket = self.admission.admit()  # raises 429/503 rejections
        t0 = perf_counter()
        try:
            deadline = (
                request.deadline
                if request.deadline is not None
                else self.config.default_deadline
            )
            try:
                result, source = await asyncio.wait_for(
                    self.executor.execute(request), timeout=deadline
                )
            except asyncio.TimeoutError:
                self.telemetry.inc("admission.rejected.deadline")
                raise ProtocolError(
                    "deadline_exceeded",
                    f"deadline of {deadline:g}s passed before the result; "
                    f"the computation continues and will be cached",
                ) from None
        finally:
            ticket.release()
        elapsed = perf_counter() - t0
        self.telemetry.add_time(f"service.latency.{kind}", elapsed)
        return 200, json_body(ok_response(kind, result, elapsed, source)), None

    def _metrics_body(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "status": "draining" if self.admission.draining else "ok",
            "uptime": time.monotonic() - self._started_at,
            "workers": self.config.workers,
            "queue_limit": self.config.queue_limit,
            "queue_depth": self.admission.pending,
            "in_flight": self.executor.in_flight,
            "telemetry": self.telemetry.snapshot().to_dict(),
        }


def run_front(front: HttpFront) -> int:
    """Blocking entry point of ``repro serve`` and ``repro route``.

    Returns the exit code: 0 after a clean drain, 1 after one that
    timed out, 130 on a second Ctrl-C during the drain.
    """

    async def main() -> bool:
        await front.start()
        await front._announce()
        clean = await front.serve_forever()
        front._log(f"drained {'cleanly' if clean else 'WITH TIMEOUT'}")
        return clean

    try:
        return 0 if asyncio.run(main()) else 1
    except KeyboardInterrupt:
        return 130
