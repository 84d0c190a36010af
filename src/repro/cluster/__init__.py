"""Horizontally sharded serving: router, supervisor, hash ring.

The multi-process serving plane in front of :mod:`repro.service`: one
consistent-hash router (``repro route``) speaking the daemon's exact
versioned JSON protocol, N supervised ``repro serve`` shard processes
behind it.  Placement is keyed by the request content fingerprint, so
identical requests always land on the same shard — per-shard in-flight
joining and LRU response caching keep working fleet-wide, and the
shared content-addressed result store on disk provides cross-shard
warm-cache coherence for sweeps.  The pieces:

* :mod:`~repro.cluster.ring` — consistent-hash ring with virtual
  nodes (bounded key movement under membership change);
* :mod:`~repro.cluster.wire` — minimal asyncio HTTP client with
  per-shard keep-alive connection pools;
* :mod:`~repro.cluster.workers` — worker supervision: spawn, health
  probes, capped-exponential-backoff restart, coordinated drain;
* :mod:`~repro.cluster.router` — the listener: validate, fingerprint,
  route, fail over, aggregate ``/healthz`` and ``/metrics``.

Entry point: ``repro route`` (see :mod:`repro.cluster.cli`), plus
``scripts/soak.py`` for sustained mixed-profile load at shard counts
1/2/4; :func:`repro.testing.static_cluster` hosts a router over
in-thread daemons for tests.
"""

from repro.cluster.ring import DEFAULT_REPLICAS, HashRing
from repro.cluster.router import ClusterRouter, RouterConfig
from repro.cluster.workers import WorkerSpec, WorkerSupervisor

__all__ = [
    "DEFAULT_REPLICAS",
    "HashRing",
    "ClusterRouter",
    "RouterConfig",
    "WorkerSpec",
    "WorkerSupervisor",
]
