"""Worker supervision: spawn, health-check, restart, drain.

A :class:`WorkerSupervisor` owns the shard fleet behind the router.
Two modes share one implementation:

* **managed** — the supervisor spawns each shard as a real
  ``repro serve`` subprocess on its own port, restarts dead workers
  with capped exponential backoff (``supervisor.restarts``), and
  propagates SIGTERM as a coordinated drain (children first get a
  graceful SIGTERM, stragglers are killed after a bounded wait);
* **static** — shard URLs are given from outside (separately deployed
  daemons, or in-thread test harnesses); the supervisor only
  health-checks and reports, never spawns or kills.

Health is polled from ``/healthz`` every ``health_interval`` seconds:
a shard is *up* only while it answers 200 with ``status: ok`` — a
draining shard (503) is routed around exactly like a dead one.  One
failed probe does not evict a shard (a slow GC pause should not cause
a rebalance); ``fail_threshold`` consecutive failures do.  A managed
worker whose process is alive but unresponsive for ``kill_threshold``
consecutive probes is killed and restarted — a wedged event loop is
operationally identical to a dead one.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.telemetry import Telemetry
from repro.cluster.wire import PooledEndpoint

__all__ = [
    "WorkerSpec",
    "ManagedWorker",
    "WorkerSupervisor",
    "serve_command",
    "free_port",
    "spawn_repro",
]


def serve_command(
    port: int,
    host: str = "127.0.0.1",
    workers: int = 0,
    queue_limit: int = 64,
    rate_limit: float | None = None,
    burst: float | None = None,
    default_deadline: float | None = None,
    cache_entries: int = 256,
) -> list[str]:
    """The ``repro serve`` argv for one shard (mirrors the CLI flags)."""
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--host", host,
        "--port", str(port),
        "--workers", str(workers),
        "--queue-limit", str(queue_limit),
        "--cache-entries", str(cache_entries),
    ]
    if rate_limit is not None:
        cmd += ["--rate-limit", str(rate_limit)]
    if burst is not None:
        cmd += ["--burst", str(burst)]
    if default_deadline is not None:
        cmd += ["--default-deadline", str(default_deadline)]
    return cmd


def free_port() -> int:
    """An OS-assigned free TCP port (racy in principle, fine on loopback)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_repro(command: Sequence[str], **popen) -> subprocess.Popen:
    """Start a ``repro`` subprocess that imports this checkout's sources
    (``popen``: further :class:`subprocess.Popen` arguments)."""
    env = dict(os.environ)
    src = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(list(command), env=env, **popen)


@dataclass(frozen=True)
class WorkerSpec:
    """One shard's identity: ring id, address, and (if managed) argv."""

    shard_id: str
    host: str
    port: int
    command: tuple[str, ...] | None = None  # None → static (unmanaged)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def managed(self) -> bool:
        return self.command is not None


@dataclass
class ManagedWorker:
    """Mutable supervision state for one shard."""

    spec: WorkerSpec
    endpoint: PooledEndpoint
    process: subprocess.Popen | None = None
    healthy: bool = False
    consecutive_failures: int = 0
    restarts: int = 0
    restart_attempts: int = 0  # consecutive, resets on a healthy probe
    next_restart_at: float = 0.0
    last_health: dict = field(default_factory=dict)

    @property
    def alive(self) -> bool:
        """Process liveness (always True for static workers)."""
        if not self.spec.managed:
            return True
        return self.process is not None and self.process.poll() is None


class WorkerSupervisor:
    """Spawn/probe/restart/drain the shard fleet (see module docstring)."""

    def __init__(
        self,
        specs: list[WorkerSpec],
        health_interval: float = 0.5,
        probe_timeout: float = 2.0,
        fail_threshold: int = 2,
        kill_threshold: int = 10,
        backoff_base: float = 0.5,
        backoff_cap: float = 10.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if not specs:
            raise ConfigurationError("supervisor needs at least one worker")
        ids = [spec.shard_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate shard ids: {ids}")
        self.health_interval = float(health_interval)
        self.probe_timeout = float(probe_timeout)
        self.fail_threshold = int(fail_threshold)
        self.kill_threshold = int(kill_threshold)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.workers: dict[str, ManagedWorker] = {
            spec.shard_id: ManagedWorker(
                spec=spec,
                endpoint=PooledEndpoint(spec.host, spec.port),
            )
            for spec in specs
        }
        self._monitor: asyncio.Task | None = None
        self._draining = False

    # -- queries --------------------------------------------------------
    def healthy_ids(self) -> list[str]:
        return [wid for wid, w in self.workers.items() if w.healthy]

    def endpoint(self, shard_id: str) -> PooledEndpoint:
        return self.workers[shard_id].endpoint

    def summary(self) -> list[dict]:
        """Per-shard state for ``/healthz`` aggregation (no network)."""
        return [
            {
                "id": worker.spec.shard_id,
                "url": worker.spec.url,
                "managed": worker.spec.managed,
                "healthy": worker.healthy,
                "alive": worker.alive,
                "restarts": worker.restarts,
                "consecutive_failures": worker.consecutive_failures,
            }
            for worker in self.workers.values()
        ]

    def backoff_delay(self, attempts: int) -> float:
        """Capped exponential restart backoff: base·2^k, clamped."""
        return min(self.backoff_cap, self.backoff_base * (2.0 ** attempts))

    # -- lifecycle ------------------------------------------------------
    def _spawn(self, worker: ManagedWorker) -> None:
        assert worker.spec.command is not None
        worker.process = spawn_repro(worker.spec.command)
        self.telemetry.inc("supervisor.spawned")

    async def start(self) -> None:
        """Spawn managed workers and begin the monitor loop."""
        for worker in self.workers.values():
            if worker.spec.managed:
                self._spawn(worker)
        self._monitor = asyncio.get_running_loop().create_task(
            self._monitor_loop()
        )

    async def wait_healthy(
        self, min_healthy: int = 1, timeout: float = 30.0,
        stop: asyncio.Event | None = None,
    ) -> bool:
        """Block until ``min_healthy`` shards answer, the timeout passes
        or ``stop`` is set."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and not (
            stop is not None and stop.is_set()
        ):
            if len(self.healthy_ids()) >= min_healthy:
                return True
            await asyncio.sleep(0.05)
        return len(self.healthy_ids()) >= min_healthy

    # -- monitoring -----------------------------------------------------
    async def _probe(self, worker: ManagedWorker) -> None:
        try:
            response = await worker.endpoint.request(
                "GET", "/healthz", timeout=self.probe_timeout
            )
            up = response.status == 200
            worker.last_health = response.json()
        except (ConnectionError, OSError, asyncio.TimeoutError):
            up = False
        if up:
            if not worker.healthy:
                self.telemetry.inc("supervisor.recovered")
            worker.healthy = True
            worker.consecutive_failures = 0
            worker.restart_attempts = 0
        else:
            worker.consecutive_failures += 1
            self.telemetry.inc("supervisor.health_failures")
            if worker.consecutive_failures >= self.fail_threshold:
                worker.healthy = False

    def _restart_dead(self, worker: ManagedWorker, now: float) -> None:
        """Respawn a dead managed worker once its backoff has elapsed."""
        if worker.process is not None and worker.process.poll() is None:
            if worker.consecutive_failures >= self.kill_threshold:
                # Alive but wedged: treat as dead.
                worker.process.kill()
                worker.process.wait(timeout=10.0)
                self.telemetry.inc("supervisor.killed_unresponsive")
            else:
                return
        worker.healthy = False
        if now < worker.next_restart_at:
            return
        delay = self.backoff_delay(worker.restart_attempts)
        worker.restart_attempts += 1
        worker.restarts += 1
        worker.next_restart_at = now + delay
        worker.endpoint.close()
        self._spawn(worker)
        self.telemetry.inc("supervisor.restarts")

    async def _monitor_loop(self) -> None:
        while not self._draining:
            await asyncio.gather(
                *(self._probe(w) for w in self.workers.values())
            )
            now = time.monotonic()
            for worker in self.workers.values():
                if worker.spec.managed and not self._draining:
                    self._restart_dead(worker, now)
            await asyncio.sleep(self.health_interval)

    # -- drain ----------------------------------------------------------
    async def drain(self, timeout: float = 20.0) -> bool:
        """Stop monitoring, SIGTERM managed children, await clean exits.

        Returns ``True`` when every managed child exited 0 within the
        timeout, or was still starting and died of the SIGTERM itself
        (static workers are not ours to stop and don't count).
        """
        self._draining = True
        if self._monitor is not None:
            self._monitor.cancel()
            try:
                await self._monitor
            except (asyncio.CancelledError, Exception):
                pass
            self._monitor = None
        clean = True
        managed = [
            w for w in self.workers.values()
            if w.spec.managed and w.process is not None
        ]
        for worker in managed:
            if worker.process.poll() is None:
                worker.process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        for worker in managed:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                code = await asyncio.get_running_loop().run_in_executor(
                    None, worker.process.wait, remaining
                )
            except subprocess.TimeoutExpired:
                worker.process.kill()
                worker.process.wait(timeout=10.0)
                code = worker.process.returncode
            # A child that SIGTERM's default action ended had not
            # installed its handlers yet: it was still starting and held
            # no work, so that exit is as clean as a drain's.
            if code not in (0, -signal.SIGTERM):
                clean = False
            worker.healthy = False
            worker.endpoint.close()
        return clean
