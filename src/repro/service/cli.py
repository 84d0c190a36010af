"""``repro serve`` / ``repro submit`` — the daemon's CLI face.

``serve`` blocks in the foreground running the daemon (SIGTERM/Ctrl-C
drains gracefully); ``submit`` fires one request at a running daemon
and prints the JSON answer.  Both live here and are grafted onto the
main :mod:`repro.cli` parser by :func:`add_service_parsers` so the
service stays an optional import (the daemon pulls in asyncio plumbing
the batch CLI never needs).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.service.client import DEFAULT_PORT, ServiceClient, ServiceError

__all__ = ["add_service_parsers", "cmd_serve", "cmd_submit"]

SUBMIT_KINDS = ("schedule", "sweep", "stream", "health", "metrics")


def add_service_parsers(sub: argparse._SubParsersAction) -> None:
    """Register the ``serve`` and ``submit`` subcommands."""
    serve_p = sub.add_parser(
        "serve", help="run the scheduling daemon (JSON over HTTP)"
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"bind port (default {DEFAULT_PORT}; 0 picks a free one)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=1,
        help=(
            "worker processes for the shared pool (default 1; 0 runs "
            "requests in-process — results identical either way)"
        ),
    )
    serve_p.add_argument(
        "--queue-limit", type=int, default=64,
        help="max admitted-but-unfinished requests before 429 (default 64)",
    )
    serve_p.add_argument(
        "--rate-limit", type=float, default=None,
        help="sustained admission rate in requests/second (default: off)",
    )
    serve_p.add_argument(
        "--burst", type=float, default=None,
        help="token-bucket burst capacity (default: max(1, rate))",
    )
    serve_p.add_argument(
        "--default-deadline", type=float, default=None,
        help="server-side deadline (s) for requests that name none",
    )
    serve_p.add_argument(
        "--drain-timeout", type=float, default=20.0,
        help="seconds a drain waits for in-flight work (default 20)",
    )
    serve_p.add_argument(
        "--cache-entries", type=int, default=256,
        help="in-memory response-cache entries, 0 disables (default 256)",
    )

    submit_p = sub.add_parser(
        "submit", help="submit one request to a running daemon"
    )
    submit_p.add_argument(
        "kind", choices=SUBMIT_KINDS, help="request kind (or health/metrics)"
    )
    submit_p.add_argument(
        "cell", nargs="?", default=None,
        help="workload cell (see `repro cells`); required for work requests",
    )
    submit_p.add_argument(
        "--url", default=f"http://127.0.0.1:{DEFAULT_PORT}",
        help=f"daemon URL (default http://127.0.0.1:{DEFAULT_PORT})",
    )
    submit_p.add_argument(
        "--scheduler", default="mqb", help="schedule: algorithm name"
    )
    submit_p.add_argument(
        "--algorithms", default="kgreedy,mqb",
        help="sweep: comma-separated algorithm names (default kgreedy,mqb)",
    )
    submit_p.add_argument(
        "--instances", type=int, default=10, help="sweep: instances"
    )
    submit_p.add_argument(
        "--policy", default="global-mqb", help="stream: multi-job policy"
    )
    submit_p.add_argument(
        "--jobs", type=int, default=10, help="stream: number of jobs"
    )
    submit_p.add_argument(
        "--interarrival", type=float, default=40.0,
        help="stream: mean interarrival gap (default 40)",
    )
    submit_p.add_argument("--seed", type=int, default=None, help="base seed")
    submit_p.add_argument(
        "--preemptive", action="store_true",
        help="schedule/sweep: use the preemptive engine",
    )
    submit_p.add_argument(
        "--quantum", type=float, default=1.0,
        help="preemptive quantum (default 1.0)",
    )
    submit_p.add_argument(
        "--power", default=None,
        help="schedule: named power config for an energy breakdown "
             "(baseline/idle-heavy/hetero/shutdown)",
    )
    submit_p.add_argument(
        "--deadline", type=float, default=None,
        help="per-request deadline in seconds (504 when exceeded)",
    )
    submit_p.add_argument(
        "--timeout", type=float, default=300.0,
        help="client-side HTTP timeout (default 300s)",
    )


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ScheduleService, ServiceConfig, run_front

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        rate_limit=args.rate_limit,
        burst=args.burst,
        default_deadline=args.default_deadline,
        drain_timeout=args.drain_timeout,
        cache_entries=args.cache_entries,
    )
    return run_front(ScheduleService(config))


def cmd_submit(args: argparse.Namespace) -> int:
    client = ServiceClient.from_url(args.url, timeout=args.timeout)
    try:
        if args.kind == "health":
            body = client.healthz()
        elif args.kind == "metrics":
            body = client.metrics()
        else:
            if args.cell is None:
                print(
                    f"error: `repro submit {args.kind}` needs a workload "
                    f"cell (see `repro cells`)",
                    file=sys.stderr,
                )
                return 2
            if args.kind == "schedule":
                body = client.schedule(
                    args.cell,
                    scheduler=args.scheduler,
                    seed=args.seed if args.seed is not None else 0,
                    preemptive=args.preemptive,
                    quantum=args.quantum,
                    power=args.power,
                    deadline=args.deadline,
                )
            elif args.kind == "sweep":
                body = client.sweep(
                    args.cell,
                    algorithms=[
                        a.strip() for a in args.algorithms.split(",") if a.strip()
                    ],
                    n_instances=args.instances,
                    seed=args.seed if args.seed is not None else 2011,
                    preemptive=args.preemptive,
                    quantum=args.quantum,
                    deadline=args.deadline,
                )
            else:
                body = client.stream(
                    args.cell,
                    policy=args.policy,
                    n_jobs=args.jobs,
                    mean_interarrival=args.interarrival,
                    seed=args.seed if args.seed is not None else 0,
                    deadline=args.deadline,
                )
    except ServiceError as err:
        print(json.dumps(err.response.body, indent=2))
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as err:
        print(
            f"error: cannot reach daemon at {client.url}: {err}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(body, indent=2))
    return 0
