"""Synchronous stdlib client for the scheduling daemon.

Built on :mod:`http.client` — the daemon's consumers (CLI, load
generator, CI smoke) are synchronous, and a blocking client keeps them
dependency-free.  Connections are **keep-alive and per-thread**: each
thread reuses one persistent connection across requests (the TCP
handshake per request is the load generator's dominant client-side
overhead at soak rates), reconnecting transparently — with a single
retry, safe because every request is an idempotent pure computation —
when the server has closed it (idle timeout, restart, drain).

Two calling styles:

* :meth:`ServiceClient.request` / :meth:`post` return a
  :class:`ServiceResponse` (status + parsed body + latency) without
  raising on service errors — what the load generator needs to count
  429s as data rather than failures;
* the convenience verbs (:meth:`schedule`, :meth:`sweep`,
  :meth:`stream`, :meth:`healthz`, :meth:`metrics`) raise
  :class:`ServiceError` carrying the structured error code on any
  non-2xx answer and hand back the ``result`` payload on success.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from dataclasses import dataclass, field
from time import perf_counter
from urllib.parse import urlparse

from repro.errors import ConfigurationError, ReproError
from repro.service.protocol import PROTOCOL_VERSION

__all__ = ["ServiceClient", "ServiceResponse", "ServiceError", "DEFAULT_PORT"]

DEFAULT_PORT = 8512


@dataclass(frozen=True)
class ServiceResponse:
    """One HTTP exchange: status, parsed JSON body, client-side latency."""

    status: int
    body: dict
    latency: float
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def error_code(self) -> str | None:
        """The structured error code, if this is an error body."""
        error = self.body.get("error")
        return error.get("code") if isinstance(error, dict) else None

    @property
    def retry_after(self) -> float | None:
        """Rejection backoff hint (body field, falling back to the header)."""
        error = self.body.get("error")
        if isinstance(error, dict) and "retry_after" in error:
            return float(error["retry_after"])
        if "retry-after" in self.headers:
            try:
                return float(self.headers["retry-after"])
            except ValueError:
                return None
        return None


class ServiceError(ReproError):
    """A non-2xx daemon answer, carrying the structured error code."""

    def __init__(self, response: ServiceResponse) -> None:
        code = response.error_code or "unknown"
        error = response.body.get("error") or {}
        message = error.get("message") or f"HTTP {response.status}"
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.response = response


class ServiceClient:
    """Talk to one daemon at ``host:port`` (or construct from a URL)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 120.0,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        # One persistent keep-alive connection per thread:
        # http.client connections are not thread-safe, and the load
        # generator drives one client from many threads.
        self._local = threading.local()

    @classmethod
    def from_url(cls, url: str, timeout: float = 120.0) -> "ServiceClient":
        """``http://host:port`` (or bare ``host:port``/``host``) form."""
        parsed = urlparse(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("http", ""):
            raise ConfigurationError(
                f"only http:// service URLs are supported, got {url!r}"
            )
        if not parsed.hostname:
            raise ConfigurationError(f"no host in service URL {url!r}")
        return cls(parsed.hostname, parsed.port or DEFAULT_PORT, timeout=timeout)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- transport ------------------------------------------------------
    def _acquire(self) -> tuple[http.client.HTTPConnection, bool]:
        """This thread's pooled connection (or a fresh one), plus whether
        it was reused — a reused connection may be stale (server idle
        timeout, restart), so its failures are retried once."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            return conn, True
        return (
            http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            ),
            False,
        )

    def _release(self, conn: http.client.HTTPConnection, raw) -> None:
        if raw.will_close:
            conn.close()
        else:
            self._local.conn = conn

    def close(self) -> None:
        """Close this thread's pooled connection (if any)."""
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        if conn is not None:
            conn.close()

    def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> ServiceResponse:
        """One exchange; raises only on transport failure, never on 4xx/5xx."""
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        t0 = perf_counter()
        for _attempt in (0, 1):
            conn, reused = self._acquire()
            try:
                conn.request(method, path, body=body, headers=headers)
                raw = conn.getresponse()
                data = raw.read()
            except (
                http.client.HTTPException,
                ConnectionError,
                BrokenPipeError,
                OSError,
            ):
                conn.close()
                if not reused:
                    raise
                continue  # stale keep-alive connection: one fresh retry
            latency = perf_counter() - t0
            try:
                decoded = json.loads(data) if data else {}
            except json.JSONDecodeError:
                decoded = {"raw": data.decode("utf-8", "replace")}
            self._release(conn, raw)
            return ServiceResponse(
                status=raw.status,
                body=decoded if isinstance(decoded, dict) else {"raw": decoded},
                latency=latency,
                headers={k.lower(): v for k, v in raw.getheaders()},
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def post(self, kind: str, payload: dict) -> ServiceResponse:
        """POST a raw payload to the ``kind`` endpoint (no raising)."""
        return self.request("POST", f"/{kind}", {"protocol": PROTOCOL_VERSION, **payload})

    def _checked(self, response: ServiceResponse) -> dict:
        if not response.ok:
            raise ServiceError(response)
        return response.body

    # -- convenience verbs ----------------------------------------------
    def schedule(
        self,
        cell: str,
        scheduler: str = "mqb",
        seed: int = 0,
        preemptive: bool = False,
        quantum: float = 1.0,
        power: str | None = None,
        deadline: float | None = None,
    ) -> dict:
        """Submit a ``schedule`` request; return the full ok-body."""
        payload: dict = {
            "cell": cell,
            "scheduler": scheduler,
            "seed": seed,
            "preemptive": preemptive,
            "quantum": quantum,
        }
        if power is not None:
            payload["power"] = power
        if deadline is not None:
            payload["deadline"] = deadline
        return self._checked(self.post("schedule", payload))

    def sweep(
        self,
        cell: str,
        algorithms: list[str],
        n_instances: int = 10,
        seed: int = 2011,
        preemptive: bool = False,
        quantum: float = 1.0,
        deadline: float | None = None,
    ) -> dict:
        payload: dict = {
            "cell": cell,
            "algorithms": list(algorithms),
            "n_instances": n_instances,
            "seed": seed,
            "preemptive": preemptive,
            "quantum": quantum,
        }
        if deadline is not None:
            payload["deadline"] = deadline
        return self._checked(self.post("sweep", payload))

    def stream(
        self,
        cell: str,
        policy: str = "global-mqb",
        n_jobs: int = 10,
        mean_interarrival: float = 40.0,
        seed: int = 0,
        deadline: float | None = None,
    ) -> dict:
        payload: dict = {
            "cell": cell,
            "policy": policy,
            "n_jobs": n_jobs,
            "mean_interarrival": mean_interarrival,
            "seed": seed,
        }
        if deadline is not None:
            payload["deadline"] = deadline
        return self._checked(self.post("stream", payload))

    def healthz(self) -> dict:
        return self._checked(self.request("GET", "/healthz"))

    def metrics(self) -> dict:
        return self._checked(self.request("GET", "/metrics"))

    def wait_until_up(self, timeout: float = 10.0) -> dict:
        """Poll ``/healthz`` until it answers 200 (startup races).

        Rides out a listener that is not bound yet, and a router that
        answers 503 ``no_shards`` while its shards boot.
        """
        import time

        deadline = time.monotonic() + timeout
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except (ServiceError, ConnectionError, OSError, socket.timeout) as exc:
                last = exc
                time.sleep(0.05)
        raise ConfigurationError(
            f"service at {self.url} not healthy within {timeout}s: {last}"
        )
