"""Harnesses for the daemon and the router: in-thread and subprocess hosts.

:class:`ServiceThread` runs a complete :class:`ScheduleService` — or a
:class:`ClusterRouter` — on a background thread with its own event
loop, bound to an ephemeral port.  The test process talks to it over
real HTTP with the synchronous :class:`~repro.service.client.ServiceClient`.
That exercises the whole stack (framing, admission, executor, routing,
serialization) without pytest-asyncio, which this environment does not
ship.  :func:`static_cluster` puts a router in front of in-thread
daemons, so router behaviour (affinity, failover, aggregation, drain)
is testable in milliseconds over real sockets.

:func:`spawn` launches ``repro serve`` or ``repro route`` as a real
subprocess, for scripts that must observe OS-level behaviour (SIGTERM
handling, exit codes): ``scripts/soak.py``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import signal
import subprocess
import threading
from collections.abc import Sequence
from dataclasses import dataclass

from repro.cluster.router import ClusterRouter, RouterConfig
from repro.cluster.workers import spawn_repro
from repro.errors import ConfigurationError
from repro.obs.telemetry import Telemetry
from repro.service.client import ServiceClient
from repro.service.server import ScheduleService, ServiceConfig

__all__ = ["ServiceThread", "static_cluster", "Spawned", "spawn"]


class ServiceThread:
    """Host a daemon or a router on a background thread; a context manager.

    A :class:`ServiceConfig` hosts a :class:`ScheduleService`.  The
    default config runs requests with ``workers=0`` on the loop's
    thread pool — no fork cost, identical results — which is what tests
    want.  A :class:`RouterConfig` hosts a :class:`ClusterRouter`;
    ``shard_threads`` are the in-thread daemons behind it, stopped after
    it.  The bound port is ephemeral unless the config pins one.
    """

    def __init__(
        self,
        config: ServiceConfig | RouterConfig | None = None,
        telemetry: Telemetry | None = None,
        work_fns: dict | None = None,
        shard_threads: Sequence[ServiceThread] = (),
    ) -> None:
        self.config = config or ServiceConfig(port=0, workers=0)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        if isinstance(self.config, RouterConfig):
            self.service = ClusterRouter(self.config, telemetry=self.telemetry)
        else:
            self.service = ScheduleService(
                self.config, telemetry=self.telemetry, work_fns=work_fns
            )
        self.shard_threads = list(shard_threads)
        self.port: int | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self.clean: bool | None = None

    def __enter__(self) -> "ServiceThread":
        # static_cluster() hands back a started host; using it as a
        # context manager must not start it twice.
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def start(self) -> "ServiceThread":
        if self._thread is not None:
            raise ConfigurationError("ServiceThread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if self.port is None:
            raise ConfigurationError("service thread failed to start in 30s")
        return self

    def _run(self) -> None:
        async def main() -> bool:
            try:
                await self.service.start()
            except BaseException as exc:
                self._startup_error = exc
                self._started.set()
                raise
            self.port = self.service.port
            self._started.set()
            return await self.service.serve_forever()

        try:
            self.clean = asyncio.run(main())
        except BaseException:
            # Startup failures are re-raised to the caller from start().
            self._started.set()

    def stop(self) -> bool | None:
        """Drain and join, then stop the shards behind a router.

        Returns whether the drain was clean (``None`` if never started).
        """
        clean: bool | None = None
        if self._thread is not None:
            self.service.request_shutdown()
            self._thread.join(timeout=30.0)
            self._thread = None
            clean = self.clean
        for shard in self.shard_threads:
            shard.stop()
        return clean

    def client(self, timeout: float = 120.0) -> ServiceClient:
        assert self.port is not None, "start() first"
        return ServiceClient(self.config.host, self.port, timeout=timeout)


def static_cluster(
    n_shards: int,
    router_config: RouterConfig | None = None,
    telemetry: Telemetry | None = None,
    per_shard_work_fns: list[dict] | None = None,
) -> ServiceThread:
    """A router over ``n_shards`` in-thread daemons, started and healthy.

    ``per_shard_work_fns`` injects distinct work functions per shard
    (e.g. each shard answering with its own index), which is how the
    affinity tests observe placement without reaching into the router.
    """
    shards = []
    for index in range(n_shards):
        fns = per_shard_work_fns[index] if per_shard_work_fns else None
        shards.append(ServiceThread(work_fns=fns).start())
    base = router_config or RouterConfig()
    config = dataclasses.replace(
        base,
        port=base.port if base.port != 8600 else 0,
        shard_urls=tuple(f"http://127.0.0.1:{shard.port}" for shard in shards),
    )
    cluster = ServiceThread(config, telemetry=telemetry, shard_threads=shards)
    try:
        cluster.start()
        cluster.client().wait_until_up(timeout=30.0)
    except BaseException:
        cluster.stop()
        raise
    return cluster


@dataclass
class Spawned:
    """A ``repro serve`` or ``repro route`` subprocess and its client."""

    process: subprocess.Popen
    client: ServiceClient

    def terminate(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10.0)
            raise

    def __enter__(self) -> "Spawned":
        return self

    def __exit__(self, *exc: object) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10.0)


def spawn(command: Sequence[str], port: int) -> Spawned:
    """Launch ``command``, which listens on ``port``, and wait until healthy.

    ``command`` is a ``repro serve`` argv from
    :func:`~repro.cluster.workers.serve_command` or a ``repro route``
    one; the child imports this checkout's sources.
    """
    process = spawn_repro(command)
    client = ServiceClient("127.0.0.1", port)
    try:
        client.wait_until_up(timeout=60.0)
    except Exception:
        process.kill()
        process.wait(timeout=10.0)
        raise
    return Spawned(process=process, client=client)
