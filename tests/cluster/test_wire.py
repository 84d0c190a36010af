"""The router's pooled upstream connections: stale keep-alive retries.

A shard closes keep-alive connections that sit idle past its read
timeout, while the router keeps up to ``max_idle`` of them per shard.
A request that draws a stale one retries once, and that retry must
open a new connection: another idle one may be just as stale.
"""

from __future__ import annotations

import asyncio

from repro.cluster.wire import PooledEndpoint


class _KeepAliveServer:
    """An HTTP/1.1 server that answers every request on a kept-alive
    connection, after ``delay`` seconds, with its connection number."""

    def __init__(self, delay: float = 0.05) -> None:
        self.delay = delay
        self.writers: list[asyncio.StreamWriter] = []

    async def _handle(self, reader, writer) -> None:
        self.writers.append(writer)
        number = len(self.writers)
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                for line in head.decode("latin-1").split("\r\n"):
                    name, _, value = line.partition(":")
                    if name.lower() == "content-length":
                        await reader.readexactly(int(value))
                await asyncio.sleep(self.delay)
                body = b'{"connection": %d}' % number
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    def drop_connections(self) -> None:
        """Close every open connection, as an idle timeout would."""
        for writer in self.writers:
            writer.close()


def test_two_stale_idle_connections_retry_on_a_new_one():
    async def scenario():
        server = _KeepAliveServer()
        listener = await asyncio.start_server(server._handle, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        endpoint = PooledEndpoint("127.0.0.1", port)
        try:
            # Two concurrent requests open two connections, both pooled.
            first = await asyncio.gather(
                endpoint.request("GET", "/a"), endpoint.request("GET", "/b")
            )
            assert sorted(r.json()["connection"] for r in first) == [1, 2]
            assert len(endpoint._idle) == 2
            server.drop_connections()
            await asyncio.sleep(0.05)
            # The first attempt draws a stale connection; the retry
            # opens connection 3 instead of drawing the other stale one.
            response = await endpoint.request("GET", "/c")
            assert response.status == 200
            assert response.json() == {"connection": 3}
            assert len(server.writers) == 3
        finally:
            endpoint.close()
            listener.close()
            await listener.wait_closed()

    asyncio.run(scenario())
