"""Worker supervision: backoff, health eviction, restart, drain.

Static-mode tests put the supervisor in front of in-thread daemons
(:class:`ServiceThread`) so eviction/recovery is observable in
milliseconds; the managed test spawns one real ``repro serve``
subprocess and kill-9s it, because restart semantics (new pid, same
port, clean SIGTERM exit afterwards) only exist at the OS level.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.errors import ConfigurationError
from repro.obs.telemetry import Telemetry
from repro.cluster.workers import (
    WorkerSpec,
    WorkerSupervisor,
    free_port,
    serve_command,
)
from repro.testing import ServiceThread


def static_spec(shard_id: str, port: int) -> WorkerSpec:
    return WorkerSpec(shard_id=shard_id, host="127.0.0.1", port=port)


class TestConfig:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerSupervisor([])

    def test_duplicate_shard_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerSupervisor([static_spec("s0", 1), static_spec("s0", 2)])

    def test_backoff_is_capped_exponential(self):
        supervisor = WorkerSupervisor(
            [static_spec("s0", 1)], backoff_base=0.5, backoff_cap=10.0
        )
        delays = [supervisor.backoff_delay(k) for k in range(6)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 10.0]

    def test_static_spec_has_no_command(self):
        spec = static_spec("s0", 8512)
        assert not spec.managed
        assert spec.url == "http://127.0.0.1:8512"

    def test_serve_command_mirrors_cli_flags(self):
        cmd = serve_command(8512, rate_limit=5.0, default_deadline=2.0)
        assert "serve" in cmd
        assert "--port" in cmd and "8512" in cmd
        assert "--rate-limit" in cmd and "--default-deadline" in cmd


class TestStaticSupervision:
    def test_probe_tracks_live_then_dead_shard(self):
        """One failed probe is tolerated; ``fail_threshold`` evicts."""
        shard = ServiceThread().start()
        telemetry = Telemetry()

        async def scenario():
            supervisor = WorkerSupervisor(
                [static_spec("s0", shard.port)],
                fail_threshold=2,
                probe_timeout=2.0,
                telemetry=telemetry,
            )
            worker = supervisor.workers["s0"]
            await supervisor._probe(worker)
            assert worker.healthy
            assert supervisor.healthy_ids() == ["s0"]
            summary = supervisor.summary()[0]
            assert summary["healthy"] and summary["alive"]
            assert not summary["managed"]
            # Kill the shard: the next single probe failure must NOT
            # evict (a GC pause is not an outage)...
            await asyncio.get_running_loop().run_in_executor(None, shard.stop)
            await supervisor._probe(worker)
            assert worker.healthy
            assert worker.consecutive_failures == 1
            # ...the second consecutive failure does.
            await supervisor._probe(worker)
            assert not worker.healthy
            assert supervisor.healthy_ids() == []
            # Nothing managed to stop: drain is trivially clean.
            assert await supervisor.drain(timeout=5.0)

        try:
            asyncio.run(scenario())
        finally:
            shard.stop()
        counters = telemetry.snapshot().counters
        assert counters["supervisor.health_failures"] == 2

    def test_recovery_resets_failure_count(self):
        shard = ServiceThread().start()
        telemetry = Telemetry()
        try:

            async def scenario():
                supervisor = WorkerSupervisor(
                    [static_spec("s0", shard.port)],
                    fail_threshold=2,
                    telemetry=telemetry,
                )
                worker = supervisor.workers["s0"]
                worker.consecutive_failures = 5  # as if it had been down
                await supervisor._probe(worker)
                assert worker.healthy
                assert worker.consecutive_failures == 0

            asyncio.run(scenario())
        finally:
            shard.stop()
        assert telemetry.snapshot().counters["supervisor.recovered"] == 1

    def test_draining_shard_is_treated_as_down(self):
        """A 503-draining shard fails probes exactly like a dead one."""
        shard = ServiceThread().start()
        try:
            assert shard.service is not None
            shard.service.admission.start_draining()

            async def scenario():
                supervisor = WorkerSupervisor(
                    [static_spec("s0", shard.port)], fail_threshold=2
                )
                worker = supervisor.workers["s0"]
                await supervisor._probe(worker)
                await supervisor._probe(worker)
                assert not worker.healthy

            asyncio.run(scenario())
        finally:
            shard.stop()

    def test_monitor_loop_marks_shard_healthy(self):
        shard = ServiceThread().start()
        try:

            async def scenario():
                supervisor = WorkerSupervisor(
                    [static_spec("s0", shard.port)], health_interval=0.05
                )
                await supervisor.start()
                assert await supervisor.wait_healthy(1, timeout=10.0)
                assert await supervisor.drain(timeout=5.0)

            asyncio.run(scenario())
        finally:
            shard.stop()


class TestManagedSupervision:
    def test_killed_worker_is_respawned_then_drains_cleanly(self):
        """kill -9 a managed shard: the supervisor respawns it on the
        same port with a new pid, it turns healthy again, and SIGTERM
        drain still exits 0."""
        port = free_port()
        spec = WorkerSpec(
            shard_id="s0",
            host="127.0.0.1",
            port=port,
            command=tuple(serve_command(port)),
        )
        telemetry = Telemetry()

        async def scenario():
            supervisor = WorkerSupervisor(
                [spec],
                health_interval=0.1,
                fail_threshold=2,
                backoff_base=0.05,
                backoff_cap=0.5,
                telemetry=telemetry,
            )
            await supervisor.start()
            try:
                assert await supervisor.wait_healthy(1, timeout=30.0)
                worker = supervisor.workers["s0"]
                assert worker.process is not None
                first_pid = worker.process.pid
                worker.process.kill()  # SIGKILL: a crash, not a drain
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if worker.healthy and worker.process.pid != first_pid:
                        break
                    await asyncio.sleep(0.05)
                assert worker.process.pid != first_pid
                assert worker.healthy
                assert worker.restarts >= 1
                summary = supervisor.summary()[0]
                assert summary["restarts"] >= 1 and summary["managed"]
            finally:
                clean = await supervisor.drain(timeout=20.0)
            assert clean  # the respawned child exited 0 on SIGTERM

        asyncio.run(scenario())
        counters = telemetry.snapshot().counters
        assert counters["supervisor.restarts"] >= 1
        assert counters["supervisor.spawned"] >= 2
