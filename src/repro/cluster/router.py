"""The consistent-hash router: one listener in front of many shards.

``repro route`` runs this: an asyncio HTTP listener speaking the
daemon's exact versioned JSON protocol, placed in front of N
``repro serve`` shard processes.  It is an
:class:`~repro.service.server.HttpFront`, so it shares the daemon's
listener lifecycle, keep-alive loop and framing.  Work requests (``/schedule``,
``/sweep``, ``/stream``) are validated *at the router* (malformed
requests never touch a shard), keyed by their content fingerprint —
the same SHA-256 identity the result cache and every shard's LRU
response cache use — and forwarded to the owning shard on the
consistent-hash ring (:mod:`repro.cluster.ring`).  Placement is
therefore a pure function of the request: identical requests land on
the same shard, so per-shard in-flight joining and response caching
keep working cluster-wide, and the shared content-addressed result
store on disk gives cross-shard warm-cache coherence for sweeps.

Failover: requests are pure computations (idempotent by construction
— the protocol's fingerprint *is* a proof of that), so a transport
failure or a draining shard retries on the next distinct replica in
ring order, bounded by ``retries``.  When the primary is unhealthy the
request is *rebalanced* to the next replica; when no healthy shard
remains the router answers a structured 503 ``no_shards``.  All of it
is counted: ``router.routed`` / ``router.routed.<shard>`` /
``router.retried`` / ``router.rebalanced`` / ``router.shard_down`` /
``router.no_shards``.

``/healthz`` aggregates supervised per-shard state (no fan-out — the
supervisor already polls); ``/metrics`` fans out to every live shard
and merges their telemetry snapshots into one cluster-level snapshot
next to the router's own counters.

Responses are passed through byte-for-byte: the router never
re-serializes a shard's answer, which is what makes the 2-shard vs
1-shard bit-identity test meaningful.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from time import perf_counter
from urllib.parse import urlparse

from repro.errors import ConfigurationError
from repro.obs.telemetry import TelemetrySnapshot, Telemetry, merge_snapshots
from repro.cluster.ring import DEFAULT_REPLICAS, HashRing
from repro.cluster.workers import (
    WorkerSpec,
    WorkerSupervisor,
    free_port,
    serve_command,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    ProtocolError,
    parse_request,
    request_fingerprint,
)
from repro.service.server import HttpFront, json_body

__all__ = ["RouterConfig", "ClusterRouter"]

#: How long one forward waits for its shard's answer.
FORWARD_TIMEOUT = 120.0


@dataclass(frozen=True)
class RouterConfig:
    """Cluster knobs: the listener, the fleet, supervision, failover."""

    host: str = "127.0.0.1"
    port: int = 8600
    #: Managed mode: spawn this many ``repro serve`` shards on free
    #: ports.  Ignored when ``shard_urls`` is non-empty (static mode).
    shards: int = 2
    #: Pool workers *per shard* (``repro serve --workers``); 0 runs
    #: shard requests in-process, which is right for soak fleets on
    #: small hosts.
    workers_per_shard: int = 0
    #: Static mode: route to these externally managed daemons instead
    #: of spawning (health-checked, never restarted).
    shard_urls: tuple[str, ...] = ()
    #: Per-shard admission settings, forwarded to ``repro serve``.
    queue_limit: int = 64
    rate_limit: float | None = None
    default_deadline: float | None = None
    cache_entries: int = 256
    #: Virtual nodes per shard on the hash ring.
    replicas: int = DEFAULT_REPLICAS
    #: Extra replicas tried after the primary (transport failures and
    #: draining shards only — admission 429s are answers, not failures).
    retries: int = 2
    health_interval: float = 0.5
    fail_threshold: int = 2
    drain_timeout: float = 20.0

    def __post_init__(self) -> None:
        if not self.shard_urls and self.shards < 1:
            raise ConfigurationError(
                f"need at least one shard, got {self.shards}"
            )
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")


def _specs_from_config(config: RouterConfig) -> list[WorkerSpec]:
    if config.shard_urls:
        specs = []
        for index, url in enumerate(config.shard_urls):
            parsed = urlparse(url if "//" in url else f"http://{url}")
            if not parsed.hostname or not parsed.port:
                raise ConfigurationError(
                    f"shard URL needs host:port, got {url!r}"
                )
            specs.append(
                WorkerSpec(
                    shard_id=f"shard-{index}",
                    host=parsed.hostname,
                    port=parsed.port,
                    command=None,
                )
            )
        return specs
    specs = []
    for index in range(config.shards):
        port = free_port()
        specs.append(
            WorkerSpec(
                shard_id=f"shard-{index}",
                host="127.0.0.1",
                port=port,
                command=tuple(
                    serve_command(
                        port,
                        workers=config.workers_per_shard,
                        queue_limit=config.queue_limit,
                        rate_limit=config.rate_limit,
                        default_deadline=config.default_deadline,
                        cache_entries=config.cache_entries,
                    )
                ),
            )
        )
    return specs


class ClusterRouter(HttpFront):
    """Listener + ring + supervisor; one per ``repro route`` process."""

    command = "route"

    def __init__(
        self,
        config: RouterConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(config or RouterConfig())
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.supervisor: WorkerSupervisor | None = None
        self.ring = HashRing(replicas=self.config.replicas)
        self._in_flight = 0
        self._draining = False

    @property
    def draining(self) -> bool:
        return self._draining

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Spawn/adopt the fleet and bind the listener."""
        specs = _specs_from_config(self.config)
        self.supervisor = WorkerSupervisor(
            specs,
            health_interval=self.config.health_interval,
            fail_threshold=self.config.fail_threshold,
            telemetry=self.telemetry,
        )
        for spec in specs:
            self.ring.add(spec.shard_id)
        await self.supervisor.start()
        await self._listen()

    async def _announce(self) -> None:
        assert self.supervisor is not None
        mode = "static" if self.config.shard_urls else "managed"
        self._log(
            f"listening on http://{self.config.host}:{self.port} "
            f"({len(self.supervisor.workers)} {mode} shards, "
            f"replicas={self.config.replicas}, "
            f"retries={self.config.retries}) — SIGTERM drains"
        )
        ready = await self.supervisor.wait_healthy(min_healthy=1)
        shard_urls = [w.spec.url for w in self.supervisor.workers.values()]
        self._log(f"shards {'healthy' if ready else 'NOT READY'}: {shard_urls}")

    async def drain(self) -> bool:
        """Coordinated drain: listener, in-flight forwards, then the fleet."""
        self._draining = True
        await self._close_listener()
        deadline = time.monotonic() + self.config.drain_timeout
        while self._in_flight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        clean = self._in_flight == 0
        if self.supervisor is not None:
            remaining = max(0.1, deadline - time.monotonic())
            clean = await self.supervisor.drain(timeout=remaining) and clean
        return clean

    # -- dispatch -------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, raw_body: bytes
    ) -> tuple[int, bytes, float | None]:
        if path == "/healthz":
            self._require_method(method, "GET")
            status, body = self._healthz_body()
            return status, json_body(body), None
        if path == "/metrics":
            self._require_method(method, "GET")
            return 200, json_body(await self._metrics_body()), None
        kind = path.lstrip("/")
        if kind not in REQUEST_KINDS:
            raise ProtocolError(
                "not_found",
                f"no endpoint {path!r}; try /schedule /sweep /stream "
                f"/healthz /metrics",
            )
        self._require_method(method, "POST")
        if self._draining:
            raise ProtocolError(
                "draining", "router is draining; resubmit elsewhere or later"
            )
        self.telemetry.inc("router.requests")
        try:
            payload = json.loads(raw_body.decode("utf-8")) if raw_body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                "bad_json", f"request body is not JSON: {exc}"
            ) from None
        # Validate locally so malformed requests never occupy a shard,
        # and so the fingerprint below is defined.
        request = parse_request(payload, expected_kind=kind)
        fingerprint = request_fingerprint(request)
        self._in_flight += 1
        t0 = perf_counter()
        try:
            status, body, retry_after = await self._route(
                kind, path, raw_body, fingerprint
            )
        finally:
            self._in_flight -= 1
        self.telemetry.add_time("router.latency", perf_counter() - t0)
        return status, body, retry_after

    async def _route(
        self, kind: str, path: str, raw_body: bytes, fingerprint: str
    ) -> tuple[int, bytes, float | None]:
        """Forward to the fingerprint's shard, failing over in ring order."""
        assert self.supervisor is not None
        preference = self.ring.preference(fingerprint)
        healthy = set(self.supervisor.healthy_ids())
        candidates = [sid for sid in preference if sid in healthy]
        if not candidates:
            self.telemetry.inc("router.no_shards")
            raise ProtocolError(
                "no_shards",
                f"no healthy shards (of {len(preference)}) to route "
                f"{kind!r} to; retry shortly",
                retry_after=self.config.health_interval * 2,
            )
        if candidates[0] != preference[0]:
            self.telemetry.inc("router.rebalanced")
        attempts = candidates[: self.config.retries + 1]
        last_response = None
        last_error: Exception | None = None
        for index, shard_id in enumerate(attempts):
            if index:
                self.telemetry.inc("router.retried")
            endpoint = self.supervisor.endpoint(shard_id)
            try:
                response = await endpoint.request(
                    "POST", path, raw_body, timeout=FORWARD_TIMEOUT
                )
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                self.telemetry.inc("router.shard_down")
                last_error = exc
                continue
            if (
                response.status == 503
                and response.json().get("error", {}).get("code") == "draining"
            ):
                # Restarting shard mid-drain: the work is idempotent,
                # the next replica can serve it.
                last_response = response
                continue
            self.telemetry.inc("router.routed")
            self.telemetry.inc(f"router.routed.{shard_id}")
            retry_after = None
            if "retry-after" in response.headers:
                try:
                    retry_after = float(response.headers["retry-after"])
                except ValueError:
                    retry_after = None
            return response.status, response.body, retry_after
        if last_response is not None:
            return last_response.status, last_response.body, None
        self.telemetry.inc("router.no_shards")
        raise ProtocolError(
            "no_shards",
            f"all {len(attempts)} candidate shards failed for {kind!r}: "
            f"{type(last_error).__name__ if last_error else 'unknown'}: "
            f"{last_error}",
            retry_after=self.config.health_interval * 2,
        )

    # -- aggregation ----------------------------------------------------
    def _healthz_body(self) -> tuple[int, dict]:
        assert self.supervisor is not None
        shards = self.supervisor.summary()
        healthy = sum(1 for s in shards if s["healthy"])
        if self._draining:
            status = "draining"
        elif healthy:
            status = "ok"
        else:
            status = "no_shards"
        code = 200 if status == "ok" else 503
        return code, {
            "protocol": PROTOCOL_VERSION,
            "status": status,
            "role": "router",
            "uptime": time.monotonic() - self._started_at,
            "draining": self._draining,
            "healthy_shards": healthy,
            "total_shards": len(shards),
            "shards": shards,
        }

    async def _metrics_body(self) -> dict:
        assert self.supervisor is not None

        async def fetch(shard_id: str) -> tuple[str, dict | None]:
            try:
                response = await self.supervisor.endpoint(shard_id).request(
                    "GET", "/metrics", timeout=self.supervisor.probe_timeout
                )
            except (ConnectionError, OSError, asyncio.TimeoutError):
                return shard_id, None
            return shard_id, (response.json() if response.status == 200 else None)

        fetched = dict(
            await asyncio.gather(*(fetch(sid) for sid in self.supervisor.workers))
        )
        snapshots = []
        shard_reports = []
        for summary in self.supervisor.summary():
            metrics = fetched.get(summary["id"])
            if metrics and isinstance(metrics.get("telemetry"), dict):
                try:
                    snapshots.append(
                        TelemetrySnapshot.from_dict(metrics["telemetry"])
                    )
                except (KeyError, TypeError, ValueError):
                    pass
            shard_reports.append({**summary, "metrics": metrics})
        cluster = merge_snapshots(snapshots) if snapshots else None
        return {
            "protocol": PROTOCOL_VERSION,
            "status": "draining" if self._draining else "ok",
            "role": "router",
            "uptime": time.monotonic() - self._started_at,
            "in_flight": self._in_flight,
            "router": self.telemetry.snapshot().to_dict(),
            "cluster": cluster.to_dict() if cluster is not None else None,
            "shards": shard_reports,
        }
