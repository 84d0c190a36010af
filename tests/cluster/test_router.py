"""Router end-to-end: affinity, failover, aggregation, bit-identity.

Every test drives a real :class:`ClusterRouter` over real sockets via
:func:`static_cluster` — in-thread shard daemons, so the full path
(framing → validation → ring → forward → passthrough) is exercised in
milliseconds without subprocess spawns.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import ConfigurationError
from repro.obs.telemetry import Telemetry
from repro.cluster.router import RouterConfig
from repro.testing import static_cluster
from repro.service.protocol import PROTOCOL_VERSION

CELL = "small-layered-ep"


def shard_tagger(index: int):
    """A schedule work fn that answers with the shard that ran it."""

    def work(payload: dict) -> dict:
        return {"shard": index, "seed": payload["seed"]}

    return work


def wait_healthy_count(client, count: int, timeout: float = 15.0) -> dict:
    """Poll the router's /healthz until it reports ``count`` healthy."""
    deadline = time.monotonic() + timeout
    body: dict = {}
    while time.monotonic() < deadline:
        body = client.request("GET", "/healthz").body
        if body.get("healthy_shards") == count:
            return body
        time.sleep(0.02)
    raise AssertionError(f"never reached {count} healthy shards: {body}")


class TestConfig:
    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            RouterConfig(shards=0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            RouterConfig(retries=-1)


class TestAffinity:
    def test_identical_requests_land_on_the_same_shard(self):
        """Placement is a pure function of the content fingerprint:
        repeats land on the same shard and hit its response cache."""
        telemetry = Telemetry()
        cluster = static_cluster(
            3,
            telemetry=telemetry,
            per_shard_work_fns=[{"schedule": shard_tagger(i)} for i in range(3)],
        )
        with cluster:
            client = cluster.client()
            placement = {}
            for seed in range(32):
                body = client.post("schedule", {"cell": CELL, "seed": seed}).body
                assert body["status"] == "ok", body
                placement[seed] = body["result"]["shard"]
            # Repeats: same shard, answered from that shard's cache.
            for seed in (0, 7, 31):
                body = client.post("schedule", {"cell": CELL, "seed": seed}).body
                assert body["result"]["shard"] == placement[seed]
                assert body["source"] == "cached"
            # The ring spreads distinct fingerprints across the fleet.
            assert len(set(placement.values())) > 1
            counters = telemetry.counters
            routed_per_shard = [
                counters.get(f"router.routed.shard-{i}", 0) for i in range(3)
            ]
            assert sum(routed_per_shard) == counters["router.routed"]
            assert counters["router.routed"] == 32 + 3


class TestValidation:
    def test_malformed_requests_never_reach_a_shard(self):
        telemetry = Telemetry()
        with static_cluster(2, telemetry=telemetry) as cluster:
            client = cluster.client()
            response = client.post("schedule", {"cell": "nope"})
            assert response.status == 400
            assert response.error_code == "unknown_cell"
            response = client.post("schedule", {"cell": CELL, "typo": 1})
            assert response.status == 400
            assert telemetry.counters.get("router.routed", 0) == 0
            assert telemetry.counters["router.requests"] == 2

    def test_unknown_path_and_method(self):
        with static_cluster(1) as cluster:
            client = cluster.client()
            assert client.request("GET", "/nope").status == 404
            response = client.request("GET", "/schedule")
            assert response.status == 405
            assert response.error_code == "method_not_allowed"


class TestFailover:
    def test_requests_rebalance_around_a_dead_shard(self):
        telemetry = Telemetry()
        cluster = static_cluster(
            2,
            router_config=RouterConfig(health_interval=0.05, fail_threshold=2),
            telemetry=telemetry,
            per_shard_work_fns=[{"schedule": shard_tagger(i)} for i in range(2)],
        )
        with cluster:
            client = cluster.client()
            wait_healthy_count(client, 2)
            cluster.shard_threads[0].stop()
            wait_healthy_count(client, 1)
            # Every fingerprint — including those owned by the dead
            # shard — must still be answered, by the survivor.
            for seed in range(32):
                body = client.post("schedule", {"cell": CELL, "seed": seed}).body
                assert body["status"] == "ok", body
                assert body["result"]["shard"] == 1
            # ~half the keys had shard-0 as primary and were rebalanced.
            assert telemetry.counters["router.rebalanced"] >= 1

    def test_empty_ring_answers_structured_503(self):
        cluster = static_cluster(
            1,
            router_config=RouterConfig(health_interval=0.05, fail_threshold=2),
        )
        with cluster:
            client = cluster.client()
            cluster.shard_threads[0].stop()
            wait_healthy_count(client, 0)
            health = client.request("GET", "/healthz")
            assert health.status == 503
            assert health.body["status"] == "no_shards"
            response = client.post("schedule", {"cell": CELL, "seed": 0})
            assert response.status == 503
            assert response.error_code == "no_shards"
            assert response.retry_after is not None


class TestAggregation:
    def test_healthz_aggregates_supervised_state(self):
        with static_cluster(2) as cluster:
            body = cluster.client().healthz()
            assert body["protocol"] == PROTOCOL_VERSION
            assert body["status"] == "ok"
            assert body["role"] == "router"
            assert body["draining"] is False
            assert body["uptime"] >= 0.0
            assert body["healthy_shards"] == 2
            assert body["total_shards"] == 2
            assert len(body["shards"]) == 2
            for shard in body["shards"]:
                assert shard["healthy"] and shard["alive"]
                assert shard["url"].startswith("http://127.0.0.1:")

    def test_metrics_merges_shard_telemetry(self):
        with static_cluster(2) as cluster:
            client = cluster.client()
            for seed in range(3):
                assert client.post(
                    "schedule", {"cell": CELL, "seed": seed}
                ).ok
            body = client.metrics()
            assert body["role"] == "router"
            assert body["in_flight"] == 0
            assert body["router"]["counters"]["router.routed"] == 3
            cluster_counters = body["cluster"]["counters"]
            assert cluster_counters["service.requests.schedule"] == 3
            assert len(body["shards"]) == 2
            for shard in body["shards"]:
                assert isinstance(shard["metrics"], dict)
                assert "telemetry" in shard["metrics"]


class TestDrain:
    def test_coordinated_drain_is_clean(self):
        cluster = static_cluster(2)
        client = cluster.client()
        assert client.post("schedule", {"cell": CELL, "seed": 1}).ok
        assert cluster.stop() is True


class TestBitIdentity:
    def test_two_shards_answer_byte_identically_to_one(self):
        """The acceptance criterion: sharding is invisible in the data.

        The same request set is sent to a 1-shard and a 2-shard
        cluster; every ``result`` payload must serialize to identical
        bytes (the router passes shard answers through verbatim, and
        the computation is deterministic in the request fingerprint).
        """
        requests = [
            ("schedule", {"cell": CELL, "scheduler": "mqb", "seed": seed})
            for seed in range(4)
        ] + [
            ("schedule", {"cell": CELL, "scheduler": "kgreedy", "seed": 9}),
            (
                "sweep",
                {
                    "cell": CELL,
                    "algorithms": ["mqb", "kgreedy"],
                    "n_instances": 2,
                    "seed": 17,
                },
            ),
            (
                "stream",
                {"cell": CELL, "policy": "global-mqb", "n_jobs": 2, "seed": 3},
            ),
        ]

        def collect(n_shards: int) -> list[bytes]:
            results = []
            with static_cluster(n_shards) as cluster:
                client = cluster.client()
                for kind, payload in requests:
                    response = client.post(kind, payload)
                    assert response.ok, (n_shards, kind, response.body)
                    results.append(
                        json.dumps(
                            response.body["result"], sort_keys=True
                        ).encode("utf-8")
                    )
            return results

        assert collect(1) == collect(2)
