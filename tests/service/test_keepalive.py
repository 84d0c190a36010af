"""Client connection reuse and the enriched /healthz payload."""

from __future__ import annotations

import threading
import time

from repro.service.server import ServiceConfig
from repro.testing import ServiceThread

from tests.service.conftest import CELL


class TestKeepAlive:
    def test_connection_is_reused_across_requests(self, client):
        assert client.healthz()["status"] == "ok"
        first = client._local.conn
        assert first is not None  # pooled after the exchange
        client.schedule(CELL, seed=1)
        assert client._local.conn is first

    def test_stale_pooled_connection_is_retried_transparently(self, client):
        """The server closing an idle connection (restart, timeout) must
        cost the caller nothing: the reused-conn failure retries once on
        a fresh connection."""
        assert client.healthz()["status"] == "ok"
        conn = client._local.conn
        assert conn is not None
        conn.sock.close()  # simulate a server-side close under us
        response = client.request("GET", "/healthz")
        assert response.status == 200
        assert client._local.conn is not conn  # replaced, not resurrected

    def test_close_drops_the_pooled_connection(self, client):
        client.healthz()
        assert client._local.conn is not None
        client.close()
        assert client._local.conn is None
        assert client.healthz()["status"] == "ok"  # reconnects fine

    def test_server_counts_reused_connections_once(self, service, client):
        """Several sequential requests ride one connection: the request
        counter advances, and each exchange still gets its own answer."""
        for seed in range(3):
            client.schedule(CELL, seed=seed)
        counters = service.telemetry.counters
        assert counters["service.requests.schedule"] == 3


class TestHealthzPayload:
    def test_idle_daemon_payload(self, service, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["draining"] is False
        assert body["pending"] == 0
        assert body["in_flight"] == 0
        assert body["queue_limit"] == service.config.queue_limit
        assert body["uptime"] >= 0.0
        time.sleep(0.02)
        assert client.healthz()["uptime"] > body["uptime"]

    def test_busy_daemon_reports_queue_pressure(self):
        """A supervisor must see pending depth, not just liveness."""
        gate = threading.Event()
        started = threading.Event()

        def blocking_work(payload: dict) -> dict:
            started.set()
            assert gate.wait(timeout=30.0)
            return {}

        config = ServiceConfig(port=0, workers=0, queue_limit=4)
        with ServiceThread(config, work_fns={"schedule": blocking_work}) as thread:
            client = thread.client()
            worker = threading.Thread(
                target=lambda: client.schedule(CELL, seed=1), daemon=True
            )
            worker.start()
            assert started.wait(timeout=30.0)
            probe = thread.client()  # own connection: don't queue behind
            body = probe.healthz()
            assert body["status"] == "ok"  # busy, not down
            assert body["pending"] == 1
            assert body["queue_limit"] == 4
            gate.set()
            worker.join(timeout=30.0)

    def test_overloaded_daemon_stays_alive_and_reports_depth(self):
        """At queue_limit the daemon sheds 429s but /healthz still
        answers 200 with the full queue visible."""
        gate = threading.Event()
        started = threading.Event()

        def blocking_work(payload: dict) -> dict:
            started.set()
            assert gate.wait(timeout=30.0)
            return {}

        config = ServiceConfig(port=0, workers=0, queue_limit=2)
        with ServiceThread(config, work_fns={"schedule": blocking_work}) as thread:
            blocked = []
            for seed in (1, 2):
                client = thread.client()
                worker = threading.Thread(
                    target=lambda c=client, s=seed: c.schedule(CELL, seed=s),
                    daemon=True,
                )
                worker.start()
                blocked.append(worker)
            assert started.wait(timeout=30.0)
            probe = thread.client()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if probe.healthz()["pending"] == 2:
                    break
                time.sleep(0.01)
            body = probe.healthz()
            assert body["pending"] == 2
            overflow = probe.post("schedule", {"cell": CELL, "seed": 3})
            assert overflow.status == 429
            assert overflow.error_code == "queue_full"
            gate.set()
            for worker in blocked:
                worker.join(timeout=30.0)

    def test_draining_daemon_payload(self):
        gate = threading.Event()
        started = threading.Event()

        def blocking_work(payload: dict) -> dict:
            started.set()
            assert gate.wait(timeout=30.0)
            return {}

        config = ServiceConfig(port=0, workers=0, drain_timeout=30.0)
        with ServiceThread(config, work_fns={"schedule": blocking_work}) as thread:
            client = thread.client()
            worker = threading.Thread(
                target=lambda: client.schedule(CELL, seed=1), daemon=True
            )
            worker.start()
            assert started.wait(timeout=30.0)
            assert thread.service is not None
            # Drain directly (not request_shutdown) so the listener is
            # still up to answer the probe.
            thread.service.admission.start_draining()
            probe = thread.client()
            response = probe.request("GET", "/healthz")
            assert response.status == 503
            assert response.body["status"] == "draining"
            assert response.body["draining"] is True
            assert response.body["pending"] == 1  # admitted work drains out
            gate.set()
            worker.join(timeout=30.0)
