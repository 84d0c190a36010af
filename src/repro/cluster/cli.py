"""``repro route`` — run the sharded cluster from the command line.

Grafted onto the main :mod:`repro.cli` parser the same way the service
subcommands are, so the cluster stays an optional import.  Two modes:

* ``repro route --shards 4`` — spawn four ``repro serve`` shard
  processes on free ports, supervise them (health checks, capped-
  backoff restarts), and route in front of them;
* ``repro route --shard-urls http://h1:8512,http://h2:8512`` — route
  to externally managed daemons (health-checked, never restarted).
"""

from __future__ import annotations

import argparse

__all__ = ["add_cluster_parser", "cmd_route"]


def add_cluster_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``route`` subcommand."""
    route_p = sub.add_parser(
        "route",
        help="run the consistent-hash router over N supervised shards",
    )
    route_p.add_argument("--host", default="127.0.0.1", help="bind address")
    route_p.add_argument(
        "--port", type=int, default=8600,
        help="router bind port (default 8600; 0 picks a free one)",
    )
    route_p.add_argument(
        "--shards", type=int, default=2,
        help="shard processes to spawn and supervise (default 2)",
    )
    route_p.add_argument(
        "--shard-urls", default=None,
        help=(
            "comma-separated daemon URLs to route to instead of "
            "spawning (static mode: health-checked, never restarted)"
        ),
    )
    route_p.add_argument(
        "--workers-per-shard", type=int, default=0,
        help="pool workers per spawned shard (default 0: in-process)",
    )
    route_p.add_argument(
        "--queue-limit", type=int, default=64,
        help="per-shard admission queue limit (default 64)",
    )
    route_p.add_argument(
        "--rate-limit", type=float, default=None,
        help="per-shard sustained admission rate (default: off)",
    )
    route_p.add_argument(
        "--default-deadline", type=float, default=None,
        help="per-shard server-side deadline for requests naming none",
    )
    route_p.add_argument(
        "--cache-entries", type=int, default=256,
        help="per-shard LRU response-cache entries (default 256)",
    )
    route_p.add_argument(
        "--replicas", type=int, default=64,
        help="virtual nodes per shard on the hash ring (default 64)",
    )
    route_p.add_argument(
        "--retries", type=int, default=2,
        help=(
            "extra replicas tried when a shard is down or draining "
            "(default 2; requests are idempotent, so retry is safe)"
        ),
    )
    route_p.add_argument(
        "--health-interval", type=float, default=0.5,
        help="seconds between shard health probes (default 0.5)",
    )
    route_p.add_argument(
        "--drain-timeout", type=float, default=20.0,
        help="seconds a drain waits for in-flight work and shard exits",
    )


def cmd_route(args: argparse.Namespace) -> int:
    from repro.cluster.router import ClusterRouter, RouterConfig
    from repro.service.server import run_front

    shard_urls: tuple[str, ...] = ()
    if args.shard_urls:
        shard_urls = tuple(
            url.strip() for url in args.shard_urls.split(",") if url.strip()
        )
    config = RouterConfig(
        host=args.host,
        port=args.port,
        shards=args.shards,
        shard_urls=shard_urls,
        workers_per_shard=args.workers_per_shard,
        queue_limit=args.queue_limit,
        rate_limit=args.rate_limit,
        default_deadline=args.default_deadline,
        cache_entries=args.cache_entries,
        replicas=args.replicas,
        retries=args.retries,
        health_interval=args.health_interval,
        drain_timeout=args.drain_timeout,
    )
    return run_front(ClusterRouter(config))
