#!/usr/bin/env python
"""Sustained-soak harness for the sharded scheduling cluster.

Drives an open-loop mixed profile (``/schedule`` + ``/sweep`` +
``/stream``) against a freshly spawned ``repro route`` cluster at each
shard count (default 1, 2, 4), records time-bucketed p50/p95/p99
latency trajectories, and asserts the serving-plane contract: **every
offered request is answered** (zero hung, zero silently dropped), none
with an ``internal`` error, and the SIGTERM drain is clean at every
shard count.

The profile mixes three request classes:

* *cheap* — ``/schedule`` cycling a small seed set, plus ``/sweep``
  and ``/stream`` on fixed seeds: warm LRU hits on their owner shard
  after the priming pass, answered on the event loop without touching
  the compute pool (the ``/sweep`` ones also exercise the persistent
  result store shared across shards);
* *mid* — ``/schedule`` with a never-repeating seed: real compute
  (~tens of ms) that must go through the shard's admission queue and
  thread pool;
* *heavy* — fresh ``/sweep`` requests (time-salted seeds, never
  cached) at a low Poisson rate — each one fans its chunks across the
  owning shard's *entire* thread pool for seconds while holding the
  GIL.

The mid/heavy interaction is the point of the experiment.  On this
class of host the shards do not get more cores by existing — what
sharding buys is **blast-radius isolation**: with one shard, every
heavy sweep saturates the single thread pool and the single bounded
admission queue through which *all* mid traffic must pass, so mids
shed (429/504) for the duration of every blast; with four shards a
blast only degrades the 1/4 of the fingerprint space that hashes to
its owner, and the other shards' queues and pools keep serving.  The
harness offers the *identical* arrival plan to every shard count and
measures sustained ok-goodput over the offered window; the run fails
if 4 shards do not beat 1.

Run from the repo root::

    PYTHONPATH=src python scripts/soak.py               # full: >= 1e5 requests
    PYTHONPATH=src python scripts/soak.py --smoke        # CI: 2 shards, seconds

Results merge into ``BENCH_service.json`` under the ``"soak"`` key
(the loadgen's single-daemon results live under ``"loadgen"``).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from loadgen import fmt_ms, merge_write, percentile  # noqa: E402
from repro.cluster.testing import spawn_cluster  # noqa: E402
from repro.service.client import ServiceClient, ServiceResponse  # noqa: E402
from repro.service.testing import free_port  # noqa: E402

OUT_PATH = REPO_ROOT / "BENCH_service.json"

CHEAP_CELL = "small-layered-ep"
HEAVY_CELL = "medium-layered-ir"

#: Cheap-class mix (must sum to 1): schedule / cached sweep / cached stream.
MIX = (("schedule", 0.90), ("sweep", 0.05), ("stream", 0.05))
SCHEDULE_SEEDS = 16
SWEEP_SEEDS = 4
STREAM_SEEDS = 4
#: Mid-class seeds start here so they never collide with the cheap set.
MID_SEED_BASE = 1_000_000
HEAVY_DEADLINE = 30.0
#: 67 instances of the heavy cell is ~2s of pure compute, fanned over
#: 4 chunks — enough to occupy a shard's whole default thread pool.
HEAVY_INSTANCES = 67


def cheap_payload(kind: str, index: int) -> dict:
    if kind == "schedule":
        return {"cell": CHEAP_CELL, "scheduler": "mqb",
                "seed": index % SCHEDULE_SEEDS}
    if kind == "sweep":
        return {"cell": CHEAP_CELL, "algorithms": ["mqb", "kgreedy"],
                "n_instances": 10, "seed": 2011 + index % SWEEP_SEEDS}
    return {"cell": CHEAP_CELL, "policy": "global-mqb", "n_jobs": 3,
            "seed": index % STREAM_SEEDS}


def mid_payload(index: int) -> dict:
    """A never-repeating schedule: always a cache miss, always pool-bound."""
    return {"cell": CHEAP_CELL, "scheduler": "mqb",
            "seed": MID_SEED_BASE + index}


def heavy_payload(salt: int, index: int) -> dict:
    """A fresh sweep: the time salt guarantees no cache layer (LRU or
    the persistent store from an earlier soak) can answer it."""
    return {"cell": HEAVY_CELL, "algorithms": ["mqb"],
            "n_instances": HEAVY_INSTANCES,
            "seed": salt * 10_000 + index, "deadline": HEAVY_DEADLINE}


def build_schedule(
    rate: float,
    mid_rate: float,
    heavy_rate: float,
    duration: float,
    seed: int,
    salt: int,
) -> list[tuple[float, str, str, dict]]:
    """The full open-loop plan: ``(at, class, kind, payload)`` sorted by
    arrival time.  Drawn up front so the offered load never depends on
    responses; built from the same ``seed`` for every shard count so
    the comparison offers byte-identical plans (only the heavy seeds
    carry the per-config salt, to defeat the persistent store)."""
    rng = np.random.default_rng(seed)

    def poisson_arrivals(r: float) -> np.ndarray:
        if r <= 0:
            return np.empty(0)
        gaps = rng.exponential(1.0 / r, size=max(1, int(r * duration * 2)))
        arrivals = np.cumsum(gaps)
        return arrivals[arrivals < duration]

    plan: list[tuple[float, str, str, dict]] = []
    kinds, weights = zip(*MIX)
    choices = rng.choice(len(kinds), size=len(arr := poisson_arrivals(rate)),
                         p=np.asarray(weights))
    for index, at in enumerate(arr):
        kind = kinds[int(choices[index])]
        plan.append((float(at), "cheap", kind, cheap_payload(kind, index)))
    for index, at in enumerate(poisson_arrivals(mid_rate)):
        plan.append((float(at), "mid", "schedule", mid_payload(index)))
    for index, at in enumerate(poisson_arrivals(heavy_rate)):
        plan.append((float(at), "heavy", "sweep", heavy_payload(salt, index)))
    plan.sort(key=lambda item: item[0])
    return plan


def prime_caches(client: ServiceClient) -> int:
    """Synchronously warm every cheap fingerprint's owner shard, so the
    measured window is steady-state rather than cold-start."""
    n = 0
    for seed in range(SCHEDULE_SEEDS):
        client.post("schedule", cheap_payload("schedule", seed))
        n += 1
    for seed in range(SWEEP_SEEDS):
        client.post("sweep", cheap_payload("sweep", seed))
        n += 1
    for seed in range(STREAM_SEEDS):
        client.post("stream", cheap_payload("stream", seed))
        n += 1
    return n


def run_soak_level(
    client: ServiceClient,
    plan: list[tuple[float, str, str, dict]],
    duration: float,
    senders: int,
    mid_senders: int,
    heavy_senders: int,
    bucket_seconds: float,
    join_grace: float,
) -> dict:
    """Offer the plan open-loop from a sender pool; return the record.

    Each class runs on its own disjoint sender subset so a sender
    blocked on a multi-second sweep (or a mid request waiting out its
    deadline) never delays cheap arrivals — the generator itself must
    not reintroduce the head-of-line blocking it is measuring.
    """
    results: list[tuple[float, str, str, ServiceResponse] | None]
    results = [None] * len(plan)
    cheap_pool = max(1, senders - mid_senders - heavy_senders)

    by_sender: dict[int, list[int]] = {}
    counters = {"cheap": 0, "mid": 0, "heavy": 0}
    for index, (_, klass, _, _) in enumerate(plan):
        n = counters[klass]
        counters[klass] += 1
        if klass == "heavy" and heavy_senders:
            slot = cheap_pool + mid_senders + n % heavy_senders
        elif klass == "mid" and mid_senders:
            slot = cheap_pool + n % mid_senders
        else:
            slot = n % cheap_pool
        by_sender.setdefault(slot, []).append(index)

    start = time.perf_counter()

    def sender(indices: list[int]) -> None:
        for index in indices:
            at, klass, kind, payload = plan[index]
            delay = start + at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t0 = time.perf_counter()
            try:
                response = client.post(kind, payload)
            except Exception as exc:  # transport failure: an answer, not a hang
                response = ServiceResponse(
                    status=0,
                    body={"error": {
                        "code": "transport",
                        "message": f"{type(exc).__name__}: {exc}",
                    }},
                    latency=time.perf_counter() - t0,
                )
            results[index] = (at, klass, kind, response)

    threads = [
        threading.Thread(target=sender, args=(indices,), daemon=True)
        for indices in by_sender.values()
    ]
    for thread in threads:
        thread.start()
    horizon = plan[-1][0] + join_grace if plan else join_grace
    join_deadline = start + horizon
    for thread in threads:
        thread.join(timeout=max(0.0, join_deadline - time.perf_counter()))
    elapsed = time.perf_counter() - start
    hung = sum(1 for r in results if r is None)

    answered = [r for r in results if r is not None]

    def census(klass: str) -> dict:
        rows = [r for r in answered if r[1] == klass]
        ok = [r for r in rows if r[3].ok]
        latencies = sorted(r[3].latency for r in ok)
        codes: dict[str, int] = {}
        for row in rows:
            if not row[3].ok:
                code = row[3].error_code or f"http_{row[3].status}"
                codes[code] = codes.get(code, 0) + 1
        return {
            "offered": len(rows),
            "ok": len(ok),
            "errors": codes,
            "latency": {
                "p50": percentile(latencies, 50),
                "p95": percentile(latencies, 95),
                "p99": percentile(latencies, 99),
            },
            "sources": {
                source: sum(1 for r in ok if r[3].body.get("source") == source)
                for source in ("fresh", "cached", "joined")
            },
        }

    # The latency trajectory buckets cover the serving plane (cheap +
    # mid, by arrival time); heavies are background load, reported in
    # their own census but kept out of the percentile stream.
    buckets = []
    if plan:
        n_buckets = int(plan[-1][0] // bucket_seconds) + 1
        for b in range(n_buckets):
            lo, hi = b * bucket_seconds, (b + 1) * bucket_seconds
            rows = [r for r in answered if r[1] != "heavy" and lo <= r[0] < hi]
            latencies = sorted(r[3].latency for r in rows if r[3].ok)
            buckets.append({
                "t": lo,
                "offered": sum(1 for at, klass, _, _ in plan
                               if klass != "heavy" and lo <= at < hi),
                "ok": len(latencies),
                "shed": sum(1 for r in rows if not r[3].ok),
                "p50": percentile(latencies, 50),
                "p95": percentile(latencies, 95),
                "p99": percentile(latencies, 99),
            })

    cheap = census("cheap")
    mid = census("mid")
    heavy = census("heavy")
    total_ok = cheap["ok"] + mid["ok"] + heavy["ok"]
    return {
        "offered": len(plan),
        "answered": len(answered),
        "hung": hung,
        "elapsed": elapsed,
        "ok": total_ok,
        # Goodput over the *offered* window: the plan is identical for
        # every shard count, so this compares ok-counts, not clock
        # noise in the drain tail.
        "throughput": total_ok / duration if duration > 0 else 0.0,
        "cheap": cheap,
        "mid": mid,
        "heavy": heavy,
        "buckets": buckets,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shards", default="1,2,4",
        help="comma-separated shard counts to soak (default 1,2,4)",
    )
    parser.add_argument(
        "--rate", type=float, default=170.0,
        help="cheap offered load in req/s (default 170)",
    )
    parser.add_argument(
        "--mid-rate", type=float, default=8.0,
        help="pool-bound fresh schedules per second (default 8)",
    )
    parser.add_argument(
        "--heavy-rate", type=float, default=0.2,
        help="fresh heavy sweeps per second (default 0.2)",
    )
    parser.add_argument(
        "--duration", type=float, default=190.0,
        help="seconds of offered load per shard count (default 190)",
    )
    parser.add_argument(
        "--deadline", type=float, default=1.5,
        help="per-shard default deadline in seconds (default 1.5; heavy "
        "sweeps carry their own 30s deadline)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=8,
        help="per-shard admission queue depth (default 8 — small on "
        "purpose, so a blast sheds loudly instead of buffering)",
    )
    parser.add_argument(
        "--senders", type=int, default=32,
        help="sender threads (default 32; 4 are reserved for heavies "
        "and 4 for mids)",
    )
    parser.add_argument(
        "--bucket", type=float, default=10.0,
        help="latency-trajectory bucket width in seconds (default 10)",
    )
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI preset: 2 shards only, ~10s, a few hundred requests",
    )
    parser.add_argument("--out", default=str(OUT_PATH))
    args = parser.parse_args(argv)

    if args.smoke:
        args.shards, args.rate, args.duration = "2", 40.0, 10.0
        args.mid_rate, args.heavy_rate = 3.0, 0.4
        args.senders, args.bucket = 16, 5.0

    shard_counts = [int(s) for s in args.shards.split(",") if s.strip()]
    salt = int(time.time()) % 1_000_000
    exit_code = 0
    configs = []

    for config_index, n_shards in enumerate(shard_counts):
        plan = build_schedule(
            args.rate, args.mid_rate, args.heavy_rate, args.duration,
            seed=args.seed, salt=salt + config_index,
        )
        print(f"[soak] {n_shards} shard(s): offering {len(plan)} requests "
              f"({args.rate:g}/s cheap + {args.mid_rate:g}/s mid + "
              f"{args.heavy_rate:g}/s heavy for {args.duration:g}s)",
              file=sys.stderr)
        port = free_port()
        spawned = spawn_cluster(
            port, shards=n_shards, workers_per_shard=0,
            queue_limit=args.queue_limit, default_deadline=args.deadline,
        )
        health: dict = {}
        metrics: dict = {}
        try:
            primed = prime_caches(spawned.client)
            record = run_soak_level(
                spawned.client, plan, duration=args.duration,
                senders=args.senders, mid_senders=4, heavy_senders=4,
                bucket_seconds=args.bucket,
                join_grace=HEAVY_DEADLINE + 60.0,
            )
            try:
                health = spawned.client.healthz()
                metrics = spawned.client.metrics()
            except Exception as exc:
                print(f"[soak] warning: post-run metrics fetch failed: {exc}",
                      file=sys.stderr)
        finally:
            code = spawned.terminate()
        record.update({
            "shards": n_shards,
            "primed": primed,
            "clean_sigterm_exit": code == 0,
            "healthy_shards": health.get("healthy_shards"),
            "router_counters": {
                k: v for k, v in sorted(
                    metrics.get("router", {}).get("counters", {}).items()
                )
                if k.startswith(("router.", "supervisor."))
            },
        })
        configs.append(record)
        cheap, mid = record["cheap"], record["mid"]
        print(
            f"[soak]   answered {record['answered']}/{record['offered']}, "
            f"hung {record['hung']}, ok {record['ok']} "
            f"({record['throughput']:.1f}/s sustained), cheap p50 "
            f"{fmt_ms(cheap['latency']['p50'])} p99 "
            f"{fmt_ms(cheap['latency']['p99'])}, mid ok {mid['ok']}/"
            f"{mid['offered']} (shed {mid['errors']}), drain "
            f"{'clean' if code == 0 else f'EXIT {code}'}",
            file=sys.stderr,
        )
        if record["hung"]:
            print(f"[soak] FAIL: {record['hung']} hung requests at "
                  f"{n_shards} shard(s)", file=sys.stderr)
            exit_code = 1
        internal = sum(
            record[klass]["errors"].get("internal", 0)
            for klass in ("cheap", "mid", "heavy")
        )
        if internal:
            print(f"[soak] FAIL: {internal} internal errors at "
                  f"{n_shards} shard(s)", file=sys.stderr)
            exit_code = 1
        if code != 0:
            print(f"[soak] FAIL: unclean drain (exit {code}) at "
                  f"{n_shards} shard(s)", file=sys.stderr)
            exit_code = 1

    by_shards = {record["shards"]: record for record in configs}
    if 1 in by_shards and max(by_shards) > 1:
        solo, best = by_shards[1], by_shards[max(by_shards)]
        if best["throughput"] <= solo["throughput"]:
            print(
                f"[soak] FAIL: {best['shards']} shards sustained "
                f"{best['throughput']:.1f}/s, not above 1 shard's "
                f"{solo['throughput']:.1f}/s", file=sys.stderr,
            )
            exit_code = 1

    payload = {
        "benchmark": "cluster-soak",
        "recorded": time.strftime("%Y-%m-%d %H:%M:%S"),
        "workload": {
            "cheap_cell": CHEAP_CELL,
            "heavy_cell": HEAVY_CELL,
            "mix": dict(MIX),
            "rate": args.rate,
            "mid_rate": args.mid_rate,
            "heavy_rate": args.heavy_rate,
            "heavy_instances": HEAVY_INSTANCES,
            "duration": args.duration,
            "deadline": args.deadline,
            "queue_limit": args.queue_limit,
            "senders": args.senders,
            "heavy_salt": salt,
            "arrivals": "open-loop Poisson, identical plan per shard "
                        "count, per-class sender pools",
        },
        "total_offered": sum(r["offered"] for r in configs),
        "total_hung": sum(r["hung"] for r in configs),
        "configs": configs,
        "passed": exit_code == 0,
    }
    merge_write(Path(args.out), "soak", payload)
    print(f"[soak] wrote {args.out} "
          f"({payload['total_offered']} requests offered, "
          f"{payload['total_hung']} hung)", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
