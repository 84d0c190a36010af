#!/usr/bin/env python
"""Smoke checks, open-loop load levels and a sharded soak of the serving plane.

Three stages, each against freshly spawned processes:

1. **Daemon checks** on ``repro serve --workers 1`` (the process
   pool): ``/healthz`` is ok; one ``/schedule``, one ``/sweep`` and one
   ``/stream`` answer; the warm schedule repeat is ``cached`` and equal
   to the fresh result; ``/metrics`` counts 4 admitted requests, one
   ``exec.ok.<kind>`` per kind and at least one cache hit; SIGTERM
   drains to exit 0.
2. **Levels** (the ``loadgen`` section of the output): open-loop
   Poisson ``/schedule`` load at 4 and 40 req/s against a daemon
   rate-limited to 10 req/s, below the top level, so the overload
   level produces 429s on any host.  Every offered request must be
   answered, none with an error other than a 429, at least one 429 at
   the overload level, and the drain must be clean.
3. **Soak** (the ``soak`` section): an open-loop mixed profile
   (``/schedule`` + ``/sweep`` + ``/stream``) through a freshly spawned
   ``repro route`` cluster at each shard count.  Every offered request
   must be answered (zero hung, zero silently dropped), none with an
   ``internal`` error, and the SIGTERM drain must be clean at every
   shard count.

*Open loop* means arrivals are drawn up front from a Poisson process
and never wait for earlier responses: the generator keeps offering load
when the server slows down, which is the regime where admission control
earns its keep.  Each request class sends from its own sender threads,
so a sender blocked on a multi-second sweep never delays another
class's arrivals.

The soak profile mixes three request classes:

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
    PYTHONPATH=src python scripts/soak.py --shards 4    # one shard count
    PYTHONPATH=src python scripts/soak.py --smoke        # CI: 2 shards, seconds

The results replace ``BENCH_service.json`` (``--out`` writes elsewhere).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.workers import free_port, serve_command  # noqa: E402
from repro.service.client import ServiceClient, ServiceResponse  # noqa: E402
from repro.service.protocol import HTTP_STATUS  # noqa: E402
from repro.testing import spawn  # noqa: E402

OUT_PATH = REPO_ROOT / "BENCH_service.json"

CHEAP_CELL = "small-layered-ep"
HEAVY_CELL = "medium-layered-ir"
SEED = 2011

#: Levels: offered /schedule rates against the daemon's admission rate.
LEVEL_RATES = (4.0, 40.0)
LEVEL_RATE_LIMIT = 10.0
LEVEL_SENDERS = 8
#: Level requests cycle this many seeds: a mix of fresh and cached.
LEVEL_SEEDS = 16

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
#: Per-shard default deadline (heavy sweeps carry their own) and
#: admission queue depth — small on purpose, so a blast sheds loudly
#: instead of buffering.
SHARD_DEADLINE = 1.5
SHARD_QUEUE_LIMIT = 8
#: Senders reserved for each of the mid and heavy classes.
CLASS_SENDERS = 4
#: A request still unanswered this long after the last arrival is hung.
JOIN_GRACE = HEAVY_DEADLINE + 60.0

Plan = list[tuple[float, str, str, dict]]


@dataclass(frozen=True)
class Profile:
    """How much load one run offers: level length, then the soak's."""

    level_duration: float
    shards: tuple[int, ...]
    #: offered cheap, mid and heavy requests per second
    rate: float
    mid_rate: float
    heavy_rate: float
    duration: float
    senders: int
    #: latency-trajectory bucket width in seconds
    bucket: float


FULL = Profile(level_duration=5.0, shards=(1, 2, 4), rate=170.0,
               mid_rate=8.0, heavy_rate=0.2, duration=190.0, senders=32,
               bucket=10.0)
SMOKE = Profile(level_duration=3.0, shards=(2,), rate=40.0, mid_rate=3.0,
                heavy_rate=0.4, duration=10.0, senders=16, bucket=5.0)


def log(message: str) -> None:
    print(f"[soak] {message}", file=sys.stderr, flush=True)


def percentile(latencies: list[float], q: float) -> float | None:
    """A percentile, or ``None`` on an empty sample (a fully rejected
    level has no ok-latencies; null in the JSON beats a fake 0.0)."""
    return float(np.percentile(np.asarray(latencies), q)) if latencies else None


def fmt_ms(value: float | None) -> str:
    return "n/a" if value is None else f"{value * 1000:.1f}ms"


def poisson_arrivals(
    rng: np.random.Generator, rate: float, duration: float
) -> np.ndarray:
    if rate <= 0:
        return np.empty(0)
    gaps = rng.exponential(1.0 / rate, size=max(1, int(rate * duration * 2)))
    arrivals = np.cumsum(gaps)
    return arrivals[arrivals < duration]


def offer(
    client: ServiceClient, plan: Plan, pools: dict[str, int]
) -> list[ServiceResponse | None]:
    """Offer ``plan`` open-loop, each class from its own sender pool.

    ``plan`` holds ``(at, class, kind, payload)`` sorted by arrival
    time; ``pools`` maps each class to its sender count.  Returns one
    answer per plan entry, ``None`` for a request still unanswered
    :data:`JOIN_GRACE` seconds after the last arrival.  A transport
    failure is an answer (status 0), not a hang.
    """
    answers: list[ServiceResponse | None] = [None] * len(plan)
    senders: dict[tuple[str, int], list[int]] = {}
    sent = dict.fromkeys(pools, 0)
    for index, (_, klass, _, _) in enumerate(plan):
        senders.setdefault((klass, sent[klass] % pools[klass]), []).append(index)
        sent[klass] += 1
    start = time.perf_counter()

    def sender(indices: list[int]) -> None:
        for index in indices:
            at, _, kind, payload = plan[index]
            delay = start + at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t0 = time.perf_counter()
            try:
                answers[index] = client.post(kind, payload)
            except Exception as exc:
                answers[index] = ServiceResponse(
                    status=0,
                    body={"error": {
                        "code": "transport",
                        "message": f"{type(exc).__name__}: {exc}",
                    }},
                    latency=time.perf_counter() - t0,
                )

    threads = [
        threading.Thread(target=sender, args=(indices,), daemon=True)
        for indices in senders.values()
    ]
    for thread in threads:
        thread.start()
    join_deadline = start + (plan[-1][0] if plan else 0.0) + JOIN_GRACE
    for thread in threads:
        thread.join(timeout=max(0.0, join_deadline - time.perf_counter()))
    return answers


def census(answers: list[ServiceResponse | None]) -> dict:
    """Offered, hung, ok, errors by code, ok-latency percentiles, sources."""
    answered = [r for r in answers if r is not None]
    ok = [r for r in answered if r.ok]
    latencies = sorted(r.latency for r in ok)
    errors: dict[str, int] = {}
    for response in answered:
        if not response.ok:
            code = response.error_code or f"http_{response.status}"
            errors[code] = errors.get(code, 0) + 1
    return {
        "offered": len(answers),
        "hung": len(answers) - len(answered),
        "ok": len(ok),
        "errors": errors,
        "latency": {
            "p50": percentile(latencies, 50),
            "p95": percentile(latencies, 95),
            "p99": percentile(latencies, 99),
        },
        "sources": {
            source: sum(1 for r in ok if r.body.get("source") == source)
            for source in ("fresh", "cached", "joined")
        },
    }


def shed_429(errors: dict[str, int]) -> int:
    return sum(n for code, n in errors.items() if HTTP_STATUS.get(code) == 429)


# -- stage 1: daemon checks -------------------------------------------
def daemon_failures(client: ServiceClient) -> list[str]:
    """One request of each kind; the first failed check ends the stage."""
    health = client.healthz()
    if health["status"] != "ok":
        return [f"unhealthy at start: {health}"]
    schedule = client.schedule(CHEAP_CELL, scheduler="mqb", seed=3)
    if schedule["result"]["makespan"] <= 0:
        return [f"bad schedule result: {schedule}"]
    repeat = client.schedule(CHEAP_CELL, scheduler="mqb", seed=3)
    if repeat["source"] != "cached":
        return [f"warm repeat not cached: {repeat['source']}"]
    if repeat["result"] != schedule["result"]:
        return ["cached result differs from fresh result"]
    sweep = client.sweep(CHEAP_CELL, ["kgreedy", "mqb"], n_instances=4, seed=7)
    keys = [s["key"] for s in sweep["result"]["series"]]
    if keys != ["kgreedy", "mqb"]:
        return [f"bad sweep series: {keys}"]
    stream = client.stream(CHEAP_CELL, policy="global-mqb", n_jobs=4,
                           mean_interarrival=30.0, seed=1)
    if stream["result"]["makespan"] <= 0:
        return [f"bad stream result: {stream}"]
    counters = client.metrics()["telemetry"]["counters"]
    expected = {"admission.admitted": 4, "exec.ok.schedule": 1,
                "exec.ok.sweep": 1, "exec.ok.stream": 1}
    failures = [
        f"counter {name} = {counters.get(name, 0)}, expected {n}"
        for name, n in expected.items() if counters.get(name, 0) != n
    ]
    # cache.hits is >= 1, not == 1: the warm schedule repeat is one
    # hit, and the sweep may add persistent-cache hits from earlier
    # daemon runs (sharing instance work across restarts is the
    # cache's whole point).
    if counters.get("cache.hits", 0) < 1:
        failures.append("no cache hit for the warm repeat")
    return failures


def check_daemon() -> list[str]:
    port = free_port()
    log(f"checks: repro serve --workers 1 on port {port}")
    with spawn(serve_command(port, workers=1, queue_limit=16), port) as daemon:
        try:
            failures = daemon_failures(daemon.client)
        except Exception as exc:
            failures = [f"{type(exc).__name__}: {exc}"]
        code = daemon.terminate()
    if code != 0:
        failures.append(f"SIGTERM drain exited {code}, expected 0")
    log(f"checks: {'FAILED' if failures else 'passed'}, drain exit {code}")
    return [f"daemon checks: {message}" for message in failures]


# -- stage 2: levels ---------------------------------------------------
def run_levels(duration: float) -> tuple[dict, list[str]]:
    port = free_port()
    log(f"levels: repro serve on port {port}, "
        f"rate limit {LEVEL_RATE_LIMIT:g}/s")
    command = serve_command(port, workers=0, queue_limit=64,
                            rate_limit=LEVEL_RATE_LIMIT,
                            burst=LEVEL_RATE_LIMIT)
    levels = []
    counters: dict = {}
    with spawn(command, port) as daemon:
        try:
            for index, rate in enumerate(LEVEL_RATES):
                rng = np.random.default_rng(SEED + index)
                plan = [
                    (float(at), "level", "schedule",
                     {"cell": CHEAP_CELL, "scheduler": "mqb",
                      "seed": n % LEVEL_SEEDS})
                    for n, at in enumerate(poisson_arrivals(rng, rate, duration))
                ]
                record = census(offer(daemon.client, plan,
                                      {"level": LEVEL_SENDERS}))
                record = {"offered_rate": rate, **record,
                          "throughput": record["ok"] / duration}
                levels.append(record)
                log(f"  {rate:g} req/s for {duration:g}s: offered "
                    f"{record['offered']}, ok {record['ok']}, "
                    f"429 {shed_429(record['errors'])}, "
                    f"p50 {fmt_ms(record['latency']['p50'])}, "
                    f"p99 {fmt_ms(record['latency']['p99'])}")
            counters = daemon.client.metrics()["telemetry"]["counters"]
        finally:
            code = daemon.terminate()
    failures = []
    for record in levels:
        rate = record["offered_rate"]
        if record["hung"]:
            failures.append(f"{record['hung']} requests unanswered at {rate:g}/s")
        other = sum(record["errors"].values()) - shed_429(record["errors"])
        if other:
            failures.append(f"{other} non-429 errors at {rate:g}/s")
    if not shed_429(levels[-1]["errors"]):
        failures.append("overload level produced no 429s")
    if code != 0:
        failures.append(f"drain was not clean (exit {code})")
    payload = {
        "benchmark": "service-loadgen",
        "recorded": time.strftime("%Y-%m-%d %H:%M:%S"),
        "workload": {
            "cell": CHEAP_CELL,
            "scheduler": "mqb",
            "distinct_seeds": LEVEL_SEEDS,
            "arrivals": "open-loop Poisson",
        },
        "daemon": {
            "rate_limit": LEVEL_RATE_LIMIT,
            "clean_sigterm_exit": code == 0,
        },
        "levels": levels,
        "admission_counters": {
            k: v for k, v in sorted(counters.items())
            if k.startswith(("admission.", "cache.", "dedup.", "service.requests"))
        },
        "passed": not failures,
    }
    return payload, [f"levels: {message}" for message in failures]


# -- stage 3: soak ----------------------------------------------------
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


def build_schedule(profile: Profile, salt: int) -> Plan:
    """The soak's open-loop plan, sorted by arrival time.  Built from
    the same seed for every shard count so the comparison offers
    byte-identical plans (only the heavy seeds carry the per-config
    salt, to defeat the persistent store)."""
    rng = np.random.default_rng(SEED)
    duration = profile.duration
    plan: Plan = []
    kinds, weights = zip(*MIX)
    arrivals = poisson_arrivals(rng, profile.rate, duration)
    choices = rng.choice(len(kinds), size=len(arrivals), p=np.asarray(weights))
    for index, at in enumerate(arrivals):
        kind = kinds[int(choices[index])]
        plan.append((float(at), "cheap", kind, cheap_payload(kind, index)))
    for index, at in enumerate(poisson_arrivals(rng, profile.mid_rate, duration)):
        plan.append((float(at), "mid", "schedule", mid_payload(index)))
    for index, at in enumerate(poisson_arrivals(rng, profile.heavy_rate, duration)):
        plan.append((float(at), "heavy", "sweep", heavy_payload(salt, index)))
    plan.sort(key=lambda item: item[0])
    return plan


def prime_caches(client: ServiceClient) -> int:
    """Synchronously warm every cheap fingerprint's owner shard, so the
    measured window is steady-state rather than cold-start."""
    n = 0
    for kind, seeds in (("schedule", SCHEDULE_SEEDS), ("sweep", SWEEP_SEEDS),
                        ("stream", STREAM_SEEDS)):
        for seed in range(seeds):
            client.post(kind, cheap_payload(kind, seed))
            n += 1
    return n


def soak_record(plan: Plan, answers: list, profile: Profile) -> dict:
    """The per-class census and the latency trajectory of one soak."""
    rows = list(zip(plan, answers))
    by_class = {
        klass: census([a for (_, k, _, _), a in rows if k == klass])
        for klass in ("cheap", "mid", "heavy")
    }
    # The latency trajectory buckets cover the serving plane (cheap +
    # mid, by arrival time); heavies are background load, reported in
    # their own census but kept out of the percentile stream.
    buckets = []
    if plan:
        for b in range(int(plan[-1][0] // profile.bucket) + 1):
            lo, hi = b * profile.bucket, (b + 1) * profile.bucket
            window = [a for (at, k, _, _), a in rows
                      if k != "heavy" and lo <= at < hi]
            buckets.append({"t": lo, **census(window)})
    total_ok = sum(c["ok"] for c in by_class.values())
    hung = sum(c["hung"] for c in by_class.values())
    return {
        "offered": len(plan),
        "answered": len(plan) - hung,
        "hung": hung,
        "ok": total_ok,
        # Goodput over the *offered* window: the plan is identical for
        # every shard count, so this compares ok-counts, not clock
        # noise in the drain tail.
        "throughput": total_ok / profile.duration,
        **by_class,
        "buckets": buckets,
    }


def route_command(port: int, shards: int) -> list[str]:
    return [
        sys.executable, "-m", "repro.cli", "route",
        "--host", "127.0.0.1",
        "--port", str(port),
        "--shards", str(shards),
        "--workers-per-shard", "0",
        "--queue-limit", str(SHARD_QUEUE_LIMIT),
        "--default-deadline", str(SHARD_DEADLINE),
    ]


def run_soak(profile: Profile, shard_counts: list[int]) -> tuple[dict, list[str]]:
    salt = int(time.time()) % 1_000_000
    failures = []
    configs = []
    pools = {"cheap": max(1, profile.senders - 2 * CLASS_SENDERS),
             "mid": CLASS_SENDERS, "heavy": CLASS_SENDERS}
    for config_index, n_shards in enumerate(shard_counts):
        plan = build_schedule(profile, salt=salt + config_index)
        log(f"soak, {n_shards} shard(s): offering {len(plan)} requests "
            f"({profile.rate:g}/s cheap + {profile.mid_rate:g}/s mid + "
            f"{profile.heavy_rate:g}/s heavy for {profile.duration:g}s)")
        port = free_port()
        health: dict = {}
        metrics: dict = {}
        with spawn(route_command(port, n_shards), port) as cluster:
            try:
                primed = prime_caches(cluster.client)
                record = soak_record(plan, offer(cluster.client, plan, pools),
                                     profile)
                try:
                    health = cluster.client.healthz()
                    metrics = cluster.client.metrics()
                except Exception as exc:
                    log(f"warning: post-run metrics fetch failed: {exc}")
            finally:
                code = cluster.terminate()
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
        log(f"  answered {record['answered']}/{record['offered']}, "
            f"hung {record['hung']}, ok {record['ok']} "
            f"({record['throughput']:.1f}/s sustained), cheap p50 "
            f"{fmt_ms(cheap['latency']['p50'])} p99 "
            f"{fmt_ms(cheap['latency']['p99'])}, mid ok {mid['ok']}/"
            f"{mid['offered']} (shed {mid['errors']}), drain "
            f"{'clean' if code == 0 else f'EXIT {code}'}")
        where = f"at {n_shards} shard(s)"
        if record["hung"]:
            failures.append(f"{record['hung']} hung requests {where}")
        internal = sum(
            record[klass]["errors"].get("internal", 0)
            for klass in ("cheap", "mid", "heavy")
        )
        if internal:
            failures.append(f"{internal} internal errors {where}")
        if code != 0:
            failures.append(f"unclean drain (exit {code}) {where}")

    by_shards = {record["shards"]: record for record in configs}
    if 1 in by_shards and max(by_shards) > 1:
        solo, best = by_shards[1], by_shards[max(by_shards)]
        if best["throughput"] <= solo["throughput"]:
            failures.append(
                f"{best['shards']} shards sustained "
                f"{best['throughput']:.1f}/s, not above 1 shard's "
                f"{solo['throughput']:.1f}/s"
            )

    payload = {
        "benchmark": "cluster-soak",
        "recorded": time.strftime("%Y-%m-%d %H:%M:%S"),
        "workload": {
            "cheap_cell": CHEAP_CELL,
            "heavy_cell": HEAVY_CELL,
            "mix": dict(MIX),
            "rate": profile.rate,
            "mid_rate": profile.mid_rate,
            "heavy_rate": profile.heavy_rate,
            "heavy_instances": HEAVY_INSTANCES,
            "duration": profile.duration,
            "deadline": SHARD_DEADLINE,
            "queue_limit": SHARD_QUEUE_LIMIT,
            "senders": profile.senders,
            "heavy_salt": salt,
            "arrivals": "open-loop Poisson, identical plan per shard "
                        "count, per-class sender pools",
        },
        "total_offered": sum(r["offered"] for r in configs),
        "total_hung": sum(r["hung"] for r in configs),
        "configs": configs,
        "passed": not failures,
    }
    return payload, [f"soak: {message}" for message in failures]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI preset: 3 s levels and one 10 s soak at 2 shards",
    )
    parser.add_argument(
        "--shards", default=None,
        help="comma-separated shard counts to soak (default 1,2,4; "
        "with --smoke, 2)",
    )
    parser.add_argument(
        "--out", default=str(OUT_PATH), help=f"output path (default {OUT_PATH})"
    )
    args = parser.parse_args(argv)
    profile = SMOKE if args.smoke else FULL
    shard_counts = list(profile.shards)
    if args.shards:
        shard_counts = [int(s) for s in args.shards.split(",") if s.strip()]

    failures = check_daemon()
    loadgen, level_failures = run_levels(profile.level_duration)
    soak, soak_failures = run_soak(profile, shard_counts)
    failures += level_failures + soak_failures
    Path(args.out).write_text(
        json.dumps({"loadgen": loadgen, "soak": soak}, indent=2) + "\n"
    )
    log(f"wrote {args.out} ({soak['total_offered']} soak requests offered, "
        f"{soak['total_hung']} hung)")
    for message in failures:
        log(f"FAIL: {message}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
