"""Minimal asyncio HTTP/1.1 client used inside the cluster.

The router forwards requests to shards and health-checks them over the
same JSON-over-HTTP protocol the daemon speaks; the stdlib has no
async HTTP client, and the subset the cluster needs (one request, one
``Content-Length``-framed response, keep-alive) is small enough to own
— mirroring the daemon's own ~60-line server framing.

:class:`PooledEndpoint` keeps a small stack of idle keep-alive
connections per shard: at soak rates the router would otherwise pay a
TCP handshake per forwarded request, which measurably dominates
loopback latency.  A request on a reused connection that fails at the
transport layer is retried once on a fresh connection (the server may
have idle-closed it); a failure on a fresh connection is the shard's
problem and propagates to the caller's failover logic.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

__all__ = ["HttpResponse", "PooledEndpoint", "read_http_response"]


@dataclass
class HttpResponse:
    """One parsed upstream answer (body kept as raw bytes)."""

    status: int
    headers: dict[str, str]
    body: bytes
    will_close: bool

    def json(self) -> dict:
        try:
            decoded = json.loads(self.body.decode("utf-8")) if self.body else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            return {}
        return decoded if isinstance(decoded, dict) else {}


async def read_http_response(
    reader: asyncio.StreamReader, max_body_bytes: int = 1 << 26
) -> HttpResponse:
    """Parse one ``Content-Length``-framed HTTP/1.1 response."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed before a status line")
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"bad status line {status_line!r}")
    version, status = parts[0], int(parts[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise ConnectionError("connection closed inside response headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    length_header = headers.get("content-length")
    connection = headers.get("connection", "").lower()
    will_close = connection == "close" or version.upper() == "HTTP/1.0"
    if length_header is None:
        # No framing: read to EOF and force the connection closed.
        body = await reader.read(max_body_bytes)
        will_close = True
    else:
        length = int(length_header)
        if length > max_body_bytes:
            raise ConnectionError(f"response body of {length} bytes too large")
        body = await reader.readexactly(length) if length else b""
    return HttpResponse(
        status=status, headers=headers, body=body, will_close=will_close
    )


def _render_request(
    method: str, path: str, host: str, body: bytes | None
) -> bytes:
    head = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}",
        "Connection: keep-alive",
    ]
    if body is not None:
        head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + (body or b"")


@dataclass
class PooledEndpoint:
    """Keep-alive connection pool for one ``host:port`` upstream."""

    host: str
    port: int
    connect_timeout: float = 5.0
    max_idle: int = 8
    _idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = field(
        default_factory=list
    )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def _open(
        self,
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port),
            timeout=self.connect_timeout,
        )

    @staticmethod
    def _discard(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except Exception:
            pass

    def _release(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if len(self._idle) < self.max_idle:
            self._idle.append((reader, writer))
        else:
            self._discard(writer)

    async def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        timeout: float = 30.0,
    ) -> HttpResponse:
        """One exchange; raises ``ConnectionError``/``TimeoutError`` only.

        Transport failures on a *reused* connection retry once on a
        newly opened one (never on another idle one, which may be just
        as stale); failures on a fresh connection propagate.
        """
        payload = _render_request(method, path, self.host, body)
        reused = bool(self._idle)
        while True:
            if reused:
                reader, writer = self._idle.pop()
            else:
                reader, writer = await self._open()
            try:
                writer.write(payload)
                await asyncio.wait_for(writer.drain(), timeout=timeout)
                response = await asyncio.wait_for(
                    read_http_response(reader), timeout=timeout
                )
            except (
                ConnectionError,
                BrokenPipeError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
                OSError,
            ) as exc:
                self._discard(writer)
                if not reused:
                    if isinstance(exc, asyncio.TimeoutError):
                        raise
                    raise ConnectionError(
                        f"{self.url}{path}: {type(exc).__name__}: {exc}"
                    ) from exc
                reused = False
                continue
            if response.will_close:
                self._discard(writer)
            else:
                self._release(reader, writer)
            return response

    def close(self) -> None:
        """Drop every idle connection (drain/teardown)."""
        while self._idle:
            _reader, writer = self._idle.pop()
            self._discard(writer)
