"""How the daemon and the router answer malformed HTTP, over raw sockets.

Both servers frame requests with the same reader, so each case runs
against a daemon and against a one-shard router.  Every answer here
closes the connection: once the framing is broken, or the client spoke
HTTP/1.0 without keep-alive, the stream position is not worth trusting.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.testing import ServiceThread, static_cluster


@pytest.fixture(scope="module", params=["daemon", "router"])
def port(request):
    host = ServiceThread() if request.param == "daemon" else static_cluster(1)
    with host:
        yield host.port


def exchange(port: int, raw: bytes) -> tuple[int, dict[str, str], dict]:
    """Send ``raw``, read until the server closes, parse the one answer."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(raw)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    assert int(headers["content-length"]) == len(body)
    return int(status_line.split()[1]), headers, json.loads(body)


@pytest.mark.parametrize(
    "raw, status, code, message",
    [
        pytest.param(
            b"GARBAGE\r\n\r\n", 400, "bad_request", "malformed HTTP request",
            id="request-line",
        ),
        pytest.param(
            b"GET /healthz HTTP/1.1\r\nNoColonHere\r\n\r\n",
            400, "bad_request", "malformed HTTP request",
            id="header-without-colon",
        ),
        pytest.param(
            b"POST /schedule HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            413, "payload_too_large",
            "request body of 99999999 bytes exceeds the 1048576-byte limit",
            id="body-too-large",
        ),
        pytest.param(
            b"POST /schedule HTTP/1.1\r\nContent-Length: x\r\n\r\n",
            400, "bad_request", "Content-Length must be an integer",
            id="length-not-an-integer",
        ),
        pytest.param(
            b"POST /schedule HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            400, "bad_request", "negative Content-Length",
            id="negative-length",
        ),
    ],
)
def test_malformed_request_gets_structured_error_and_close(
    port, raw, status, code, message
):
    got_status, headers, body = exchange(port, raw)
    assert got_status == status
    assert headers["connection"] == "close"
    assert headers["content-type"] == "application/json"
    assert body["status"] == "error"
    assert body["error"] == {"code": code, "message": message}


def test_http10_request_is_answered_then_closed(port):
    status, headers, body = exchange(port, b"GET /healthz HTTP/1.0\r\n\r\n")
    assert status == 200
    assert headers["connection"] == "close"
    assert body["status"] == "ok"
