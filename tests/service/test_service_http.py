"""End-to-end HTTP tests: bit-identity, dedup, overload, drain.

Each test talks to a real daemon (on a background thread, ephemeral
port) through the synchronous client, so the whole stack — framing,
validation, admission, executor, serialization — is under test.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.experiments.runner import run_comparison
from repro.multijob.arrival import poisson_stream
from repro.multijob.engine import simulate_stream
from repro.multijob.schedulers import make_stream_scheduler
from repro.obs.telemetry import Telemetry
from repro.schedulers.registry import available_schedulers, make_scheduler
from repro.service.client import ServiceError
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import ServiceConfig
from repro.testing import ServiceThread
from repro.sim.engine import simulate
from repro.workloads.generator import (
    sample_instance,
    sample_system,
    workload_cell,
)

from tests.service.conftest import CELL


class TestEndpoints:
    def test_healthz(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["protocol"] == PROTOCOL_VERSION

    def test_metrics_shape(self, client):
        client.schedule(CELL, seed=1)
        body = client.metrics()
        assert body["queue_depth"] == 0
        assert body["in_flight"] == 0
        counters = body["telemetry"]["counters"]
        assert counters["service.requests.schedule"] == 1
        assert counters["admission.admitted"] == 1

    def test_unknown_path_404(self, client):
        response = client.request("GET", "/nope")
        assert response.status == 404
        assert response.error_code == "not_found"

    def test_wrong_method_405(self, client):
        response = client.request("GET", "/schedule")
        assert response.status == 405
        assert response.error_code == "method_not_allowed"

    def test_malformed_json_400(self, client):
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request(
                "POST", "/schedule", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            raw = conn.getresponse()
            assert raw.status == 400
            import json

            assert json.loads(raw.read())["error"]["code"] == "bad_json"
        finally:
            conn.close()

    def test_validation_errors_are_structured(self, client):
        response = client.post("schedule", {"cell": "nope"})
        assert response.status == 400
        assert response.error_code == "unknown_cell"
        response = client.post("schedule", {"cell": CELL, "typo_field": 1})
        assert response.status == 400
        assert response.error_code == "bad_request"

    def test_preemptive_decentral_sweep_is_400(self, client):
        response = client.post(
            "sweep",
            {"cell": CELL, "algorithms": ["dkgreedy"], "n_instances": 2,
             "preemptive": True},
        )
        assert response.status == 400
        assert response.error_code == "bad_request"

    def test_wrong_protocol_version_rejected(self, client):
        response = client.request(
            "POST", "/schedule", {"protocol": 999, "cell": CELL}
        )
        assert response.status == 400
        assert response.error_code == "bad_protocol"


class TestBitIdentity:
    def test_schedule_matches_direct_simulate_for_every_scheduler(self, client):
        """The acceptance criterion: /schedule ≡ the engine, bit for bit.

        ``plan_run`` picks ``simulate()`` for every centralized
        scheduler and the work-stealing engine for the decentral ones
        — the same routing the service itself uses.
        """
        from repro.capabilities import plan_run

        spec = workload_cell(CELL)
        for name in available_schedulers():
            job, system = sample_instance(spec, np.random.default_rng(5))
            scheduler = make_scheduler(name)
            direct = plan_run(scheduler)(
                job, system, scheduler, rng=np.random.default_rng(5)
            )
            result = client.schedule(CELL, scheduler=name, seed=5)["result"]
            assert result["makespan"] == direct.makespan, name
            assert result["lower_bound"] == direct.lower_bound(), name
            assert result["ratio"] == direct.completion_time_ratio(), name
            assert result["decisions"] == direct.decisions, name

    def test_sweep_matches_run_comparison(self, client):
        spec = workload_cell(CELL)
        algorithms = ["kgreedy", "mqb"]
        direct = run_comparison(spec, algorithms, n_instances=4, seed=17)
        served = client.sweep(CELL, algorithms, n_instances=4, seed=17)
        assert served["result"]["series"] == [s.to_dict() for s in direct]

    def test_stream_matches_direct_simulate_stream(self, client):
        spec = workload_cell(CELL)
        rng = np.random.default_rng(11)
        system = sample_system(spec, rng)
        stream = poisson_stream(spec, 4, 30.0, rng)
        direct = simulate_stream(
            stream, system, make_stream_scheduler("global-mqb")
        )
        served = client.stream(
            CELL, policy="global-mqb", n_jobs=4, mean_interarrival=30.0, seed=11
        )["result"]
        assert served["makespan"] == direct.makespan
        assert served["mean_flow_time"] == direct.mean_flow_time
        assert served["completion_times"] == list(direct.completion_times)


class TestDedup:
    def test_warm_repeat_served_from_cache(self, service, client):
        first = client.schedule(CELL, seed=8)
        second = client.schedule(CELL, seed=8)
        assert first["source"] == "fresh"
        assert second["source"] == "cached"
        assert first["result"] == second["result"]
        counters = service.telemetry.snapshot().counters
        assert counters["cache.hits"] == 1
        assert counters["cache.misses"] == 1
        assert counters["cache.writes"] == 1

    def test_concurrent_identical_sweeps_compute_once(self):
        """Two clients racing the same request share one computation."""
        telemetry = Telemetry()
        gate = threading.Event()
        started = threading.Event()
        calls = []

        def gated_work(payload: dict) -> dict:
            calls.append(payload["seed"])
            started.set()
            assert gate.wait(timeout=30.0)
            return {"seed": payload["seed"]}

        config = ServiceConfig(port=0, workers=0, queue_limit=16)
        with ServiceThread(
            config, telemetry=telemetry, work_fns={"schedule": gated_work}
        ) as thread:
            results = []

            def submit():
                results.append(thread.client().schedule(CELL, seed=3))

            t1 = threading.Thread(target=submit)
            t1.start()
            assert started.wait(timeout=30.0)  # first request is computing
            t2 = threading.Thread(target=submit)
            t2.start()
            # Second request must reach the executor and join before the
            # gate opens; poll the daemon's own dedup counter.
            for _ in range(500):
                if telemetry.counters.get("dedup.joined", 0) == 1:
                    break
                import time

                time.sleep(0.01)
            gate.set()
            t1.join(timeout=30.0)
            t2.join(timeout=30.0)

        assert calls == [3]  # exactly one computation
        assert len(results) == 2
        assert results[0]["result"] == results[1]["result"]
        assert {r["source"] for r in results} == {"fresh", "joined"}
        counters = telemetry.snapshot().counters
        assert counters["cache.misses"] == 1
        assert counters["dedup.joined"] == 1


class TestOverload:
    def test_queue_full_rejects_with_429(self):
        gate = threading.Event()
        started = threading.Event()

        def blocking_work(payload: dict) -> dict:
            started.set()
            assert gate.wait(timeout=30.0)
            return {}

        config = ServiceConfig(port=0, workers=0, queue_limit=1)
        with ServiceThread(config, work_fns={"schedule": blocking_work}) as thread:
            occupier = threading.Thread(
                target=lambda: thread.client().schedule(CELL, seed=1)
            )
            occupier.start()
            assert started.wait(timeout=30.0)  # the only slot is taken
            response = thread.client().post("schedule", {"cell": CELL, "seed": 2})
            assert response.status == 429
            assert response.error_code == "queue_full"
            assert response.retry_after is not None
            assert "retry-after" in response.headers
            gate.set()
            occupier.join(timeout=30.0)
            # Slot freed: the same request is admitted now.
            assert thread.client().schedule(CELL, seed=2)["source"] == "fresh"

    def test_rate_limited_rejects_with_429(self):
        config = ServiceConfig(
            port=0, workers=0, queue_limit=16, rate_limit=0.001, burst=1
        )
        with ServiceThread(config) as thread:
            client = thread.client()
            assert client.schedule(CELL, seed=1)["status"] == "ok"
            response = client.post("schedule", {"cell": CELL, "seed": 2})
            assert response.status == 429
            assert response.error_code == "rate_limited"
            assert response.retry_after is not None and response.retry_after > 0
            counters = thread.telemetry.snapshot().counters
            assert counters["admission.rejected.rate_limited"] == 1

    def test_deadline_exceeded_504(self):
        gate = threading.Event()

        def slow_work(payload: dict) -> dict:
            assert gate.wait(timeout=30.0)
            return {"done": True}

        config = ServiceConfig(port=0, workers=0)
        with ServiceThread(config, work_fns={"schedule": slow_work}) as thread:
            client = thread.client()
            response = client.post(
                "schedule", {"cell": CELL, "seed": 1, "deadline": 0.05}
            )
            assert response.status == 504
            assert response.error_code == "deadline_exceeded"
            gate.set()
            # The computation survived the waiter's deadline and was
            # cached — the retry is a cache hit, not a recompute.
            for _ in range(500):
                if thread.telemetry.counters.get("cache.writes", 0) == 1:
                    break
                import time

                time.sleep(0.01)
            retry = client.schedule(CELL, seed=1)
            assert retry["source"] == "cached"


class TestDrain:
    def test_graceful_drain_is_clean(self):
        thread = ServiceThread(ServiceConfig(port=0, workers=0)).start()
        client = thread.client()
        client.schedule(CELL, seed=1)
        assert thread.stop() is True

    def test_healthz_reports_draining(self):
        gate = threading.Event()
        started = threading.Event()

        def blocking_work(payload: dict) -> dict:
            started.set()
            assert gate.wait(timeout=30.0)
            return {}

        config = ServiceConfig(port=0, workers=0, drain_timeout=30.0)
        thread = ServiceThread(config, work_fns={"schedule": blocking_work}).start()
        client = thread.client()
        worker = threading.Thread(
            target=lambda: client.schedule(CELL, seed=1)
        )
        worker.start()
        assert started.wait(timeout=30.0)
        assert thread.service is not None
        thread.service.request_shutdown()
        # The in-flight request finishes; new connections are refused
        # once the listener closes, so the drain completes cleanly.
        gate.set()
        worker.join(timeout=30.0)
        assert thread.stop() is True

    def test_new_requests_rejected_while_draining(self):
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
                target=lambda: client.schedule(CELL, seed=1)
            )
            worker.start()
            assert started.wait(timeout=30.0)
            assert thread.service is not None
            # Drain directly (not request_shutdown) so the listener is
            # still up for one more request to observe the 503.
            thread.service.admission.start_draining()
            with pytest.raises(ServiceError) as excinfo:
                client.schedule(CELL, seed=2)
            assert excinfo.value.code == "draining"
            gate.set()
            worker.join(timeout=30.0)
