"""route_mix: a closed loop of two keep-alive clients against ``repro route``.

The cluster is the real CLI (``python -m repro.cli route --shards 2``,
default ``--workers-per-shard 0``), started in its own process group
with a temporary result store, and always torn down: SIGTERM drain,
SIGKILL of the whole group on timeout, exit code recorded.

Each client replays a fixed cycle of 40 requests — 36 ``hot``, 3
``fresh``, 1 ``sweep`` — and sends the next request only after the
previous reply, as the service's callers (sweep scripts, ``repro
submit``) do.  ``hot`` cycles 16 small-layered-ep seeds warmed during
set-up (LRU hits); ``fresh`` and ``sweep`` seeds never repeat.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats
from compute import peak_rss_mb
from inputs import (
    FRESH_CELL,
    HOT_CELL,
    SWEEP_ALGORITHMS,
    SWEEP_CELL,
    SWEEP_INSTANCES,
)

SHARDS = 2
CLIENTS = 2
CYCLE = ["hot"] * 40
for _i in (9, 19, 29):
    CYCLE[_i] = "fresh"
CYCLE[39] = "sweep"
#: (class -> simulations the cluster computes for it)
SIMS = {"hot": 0, "fresh": 1, "sweep": SWEEP_INSTANCES * len(SWEEP_ALGORITHMS)}
#: Length of the windows behind the per-window rates.
WINDOW_S = 3.0
#: Fresh and sweep requests per client whose results the digest file pins.
DIGESTED = {"fresh": 48, "sweep": 12}


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def payload(cls: str, seed: int) -> dict:
    if cls == "sweep":
        return {
            "protocol": 1, "kind": "sweep", "cell": SWEEP_CELL, "algorithms": list(SWEEP_ALGORITHMS),
            "n_instances": SWEEP_INSTANCES, "seed": seed,
        }
    cell = HOT_CELL if cls == "hot" else FRESH_CELL
    return {"protocol": 1, "kind": "schedule", "cell": cell, "scheduler": "mqb", "seed": seed}


def request_seed(plan: dict, cls: str, client: int, j: int) -> int:
    """Seed of the ``j``-th request of class ``cls`` sent by ``client``."""
    if cls == "hot":
        hot = plan["hot_seeds"]
        return hot[(j + client * len(hot) // 2) % len(hot)]
    return plan[f"{cls}_base"] + CLIENTS * j + client


class Cluster:
    """One ``repro route`` process group on a free port."""

    def __init__(self, env: dict, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.port = free_port()
        self.env = dict(env, REPRO_CACHE="1", REPRO_CACHE_DIR=str(workdir / "store"))
        self.store = workdir / "store"
        self.log_path = workdir / "route.log"
        self.process: subprocess.Popen | None = None

    def start(self) -> None:
        cmd = [
            sys.executable, "-m", "repro.cli", "route", "--host", "127.0.0.1",
            "--port", str(self.port), "--shards", str(SHARDS),
        ]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                cmd, env=self.env, stdout=log, stderr=log, start_new_session=True
            )

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def get(self, path: str) -> tuple[int, dict]:
        conn = self.connect()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def wait_healthy(self, timeout: float = 90.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro route exited with {self.process.returncode}")
            try:
                status, body = self.get("/healthz")
                if status == 200 and body.get("healthy_shards") == SHARDS:
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass
            time.sleep(0.02)
        raise RuntimeError("cluster did not become healthy")

    def pids(self) -> list[int]:
        """Router and shard pids (the router's process group)."""
        out = []
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == self.process.pid:  # pgrp
                out.append(int(entry.name))
        return out

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM drain; SIGKILL the group if it outlives ``timeout``."""
        proc = self.process
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        try:  # shards that outlived their router
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        return proc.returncode

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""


def send(conn, cls: str, seed: int):
    """One request on a keep-alive connection; returns (status, body bytes)."""
    path = "/sweep" if cls == "sweep" else "/schedule"
    body = json.dumps(payload(cls, seed)).encode()
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


def warm(cluster: Cluster, plan: dict) -> dict[int, str]:
    """Compute and cache every hot seed once; returns their result texts."""
    conn = cluster.connect()
    out = {}
    try:
        for seed in plan["hot_seeds"]:
            status, data = send(conn, "hot", seed)
            if status != 200:
                raise RuntimeError(f"warm-up /schedule seed {seed}: HTTP {status}")
            out[seed] = stats.canonical(json.loads(data)["result"])
    finally:
        conn.close()
    return out


def client_loop(cluster: Cluster, plan: dict, client: int, deadline: float, records: list) -> None:
    conn = cluster.connect()
    counters = {"hot": 0, "fresh": 0, "sweep": 0}
    k = client * len(CYCLE) // 2
    try:
        while time.perf_counter() < deadline:
            cls = CYCLE[k % len(CYCLE)]
            j = counters[cls]
            counters[cls] += 1
            k += 1
            seed = request_seed(plan, cls, client, j)
            t0 = time.perf_counter()
            try:
                status, data = send(conn, cls, seed)
            except (OSError, http.client.HTTPException) as exc:
                print(f"client {client}: {cls} seed {seed}: {exc!r}", file=sys.stderr)
                status, data = 0, b""
                conn.close()
                conn = cluster.connect()
            records.append((cls, client, j, seed, t0, time.perf_counter(), status, data))
    finally:
        conn.close()


def counter_diff(before: dict, after: dict, section: str) -> tuple[dict, dict]:
    """(counters, timers) of one /metrics snapshot section, after minus before."""
    a = after.get(section) or {}
    b = before.get(section) or {}
    counters = {
        k: v - b.get("counters", {}).get(k, 0) for k, v in a.get("counters", {}).items()
    }
    timers = {}
    for k, (total, calls) in a.get("timers", {}).items():
        t0, c0 = b.get("timers", {}).get(k, (0.0, 0))
        timers[k] = (total - t0, calls - c0)
    return counters, timers


def check(record, plan, warm_results, digests) -> tuple[bool, dict | None]:
    """(correct, parsed body) of one response."""
    cls, _client, _j, seed, _t0, _t1, status, data = record
    if status != 200:
        return False, None
    try:
        body = json.loads(data)
    except ValueError:
        return False, None
    result = body.get("result")
    if body.get("status") != "ok" or not isinstance(result, dict):
        return False, body
    if result.get("seed") != seed or result.get("cell") != payload(cls, seed)["cell"]:
        return False, body
    if cls == "hot" and stats.canonical(result) != warm_results[seed]:
        return False, body
    if digests is not None:
        want = digests.get(cls, {}).get(str(seed))
        pinned = result.get("series") if cls == "sweep" else result
        if want is not None and stats.digest(pinned) != want:
            print(f"digest mismatch: {cls} seed {seed}", file=sys.stderr)
            return False, body
    return True, body


def recompute(cls: str, seed: int) -> dict:
    """The same request through the public functions, in this process."""
    if cls == "sweep":
        from repro.experiments.runner import run_comparison
        from repro.workloads.generator import WORKLOAD_CELLS

        series = run_comparison(
            WORKLOAD_CELLS[SWEEP_CELL], SWEEP_ALGORITHMS, SWEEP_INSTANCES, seed
        )
        return [s.to_dict() for s in series]
    from repro.service.executor import run_schedule_request

    return run_schedule_request(payload(cls, seed))


def run(env: dict, workdir: Path, plan: dict, seconds: float, digests, setups: int):
    """Set up ``setups`` times (the last one is measured), run, check, tear down."""
    setup_times, exit_codes = [], []
    cluster = None
    for k in range(setups):
        cluster = Cluster(env, workdir / f"cluster{k}")
        t0 = time.perf_counter()
        try:
            cluster.start()
            cluster.wait_healthy()
            warm_results = warm(cluster, plan)
        except BaseException:  # includes SIGTERM's SystemExit: never leave a cluster behind
            exit_codes.append(cluster.stop())
            print(cluster.log_tail(), file=sys.stderr)
            raise
        setup_times.append(time.perf_counter() - t0)
        if k < setups - 1:
            exit_codes.append(cluster.stop())

    records: list = []
    try:
        _, before = cluster.get("/metrics")
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=client_loop, args=(cluster, plan, c, start + seconds, records),
                daemon=True,  # an interrupted run must not wait for them
            )
            for c in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        _, after = cluster.get("/metrics")
        rss = sum(peak_rss_mb(pid) for pid in cluster.pids())
    finally:
        exit_codes.append(cluster.stop())
    store_bytes = sum(p.stat().st_size for p in cluster.store.rglob("*") if p.is_file())

    # Checks, after the timed phase.
    checked = []
    failed = 0
    for rec in records:
        ok, body = check(rec, plan, warm_results, digests)
        failed += not ok
        checked.append((rec, ok, body))
    sample = [
        (rec, body) for rec, ok, body in checked
        if ok and ((rec[0] == "fresh" and rec[2] % 25 == 0) or (rec[0] == "sweep" and rec[2] % 10 == 0))
    ]
    for rec, body in sample:
        want = recompute(rec[0], rec[3])
        got = body["result"]["series"] if rec[0] == "sweep" else body["result"]
        if stats.canonical(got) != stats.canonical(want):
            print(f"recomputed {rec[0]} seed {rec[3]} differs from the response", file=sys.stderr)
            failed += 1

    counters, timers = counter_diff(before, after, "cluster")
    rcounters, rtimers = counter_diff(before, after, "router")
    return {
        "start": start,
        "seconds": seconds,
        "checked": checked,
        "failed": failed,
        "recomputed": len(sample),
        "setup_times": setup_times,
        "exit_codes": exit_codes,
        "peak_rss_mb": rss,
        "store_bytes": store_bytes,
        "counters": counters,
        "timers": timers,
        "router_counters": rcounters,
        "router_timers": rtimers,
    }


def metrics(out: dict) -> tuple[dict, dict, dict]:
    """(end-to-end values, per-layer values, sample counts) of one run."""
    start, end = out["start"], out["start"] + out["seconds"]
    lat = {"hot": [], "fresh": [], "sweep": []}
    elapsed = {"hot": [], "fresh": [], "sweep": []}
    nbytes = {"hot": [], "fresh": [], "sweep": []}
    ok_times, sims = [], 0
    for rec, ok, body in out["checked"]:
        cls, t0, t1, data = rec[0], rec[4], rec[5], rec[7]
        if not ok:
            continue
        lat[cls].append(1e3 * (t1 - t0))
        elapsed[cls].append(1e3 * body["elapsed"])
        nbytes[cls].append(len(data))
        ok_times.append(t1)
        sims += SIMS[cls] if t1 < end else 0
    hop = [l - e for l, e in zip(lat["hot"], elapsed["hot"])]
    e2e = {
        # A sweep completes 8 simulations at once, so 3 s windows would
        # quantize this rate; it is taken over the whole timed phase.
        "sims_per_s": sims / out["seconds"],
        "ok_rps": stats.median(stats.window_rates(ok_times, start, end, WINDOW_S)),
        "fresh_p50_ms": stats.percentile(lat["fresh"], 50),
        "sweep_p50_ms": stats.percentile(lat["sweep"], 50),
    }
    c, t = out["counters"], out["timers"]
    rc, rt = out["router_counters"], out["router_timers"]

    def mean_ms(timer):
        total, calls = timer
        return 1e3 * total / calls if calls else 0.0

    exec_schedule = mean_ms(t.get("service.exec.schedule", (0.0, 0)))
    hits, misses = c.get("cache.hits", 0), c.get("cache.misses", 0)
    fresh_elapsed = stats.median(elapsed["fresh"])
    layers = {
        "tail.fresh_p90_ms": stats.percentile(lat["fresh"], 90),
        "service.elapsed_ms.hot": stats.median(elapsed["hot"]),
        "service.elapsed_ms.fresh": fresh_elapsed,
        "service.elapsed_ms.sweep": stats.median(elapsed["sweep"]),
        "cluster.client_ms.hot.p50": stats.percentile(lat["hot"], 50),
        "cluster.client_ms.hot.p99": stats.percentile(lat["hot"], 99),
        "cluster.hop_ms.hot.p50": stats.percentile(hop, 50),
        "cluster.hop_ms.hot.p99": stats.percentile(hop, 99),
        "cluster.router_ms": mean_ms(rt.get("router.latency", (0.0, 0))),
        "service.exec_ms.schedule": exec_schedule,
        "service.exec_ms.sweep": mean_ms(t.get("service.exec.sweep", (0.0, 0))),
        "service.wait_ms.fresh": (
            sum(elapsed["fresh"]) / len(elapsed["fresh"]) - exec_schedule
            if elapsed["fresh"] else None
        ),
        "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else None,
        "service.response_bytes.hot": _mean(nbytes["hot"]),
        "service.response_bytes.fresh": _mean(nbytes["fresh"]),
        "service.response_bytes.sweep": _mean(nbytes["sweep"]),
        "resultcache.store_bytes": out["store_bytes"],
        "router.retried": rc.get("router.retried", 0),
        "router.shard_down": rc.get("router.shard_down", 0),
        "admission.rejected": sum(v for k, v in c.items() if k.startswith("admission.rejected.")),
        "dedup.joined": c.get("dedup.joined", 0),
    }
    samples = {
        "hot": len(lat["hot"]), "fresh": len(lat["fresh"]), "sweep": len(lat["sweep"]),
        "windows": int(out["seconds"] // WINDOW_S),
        "cache_hits": hits, "cache_misses": misses,
        "recomputed": out["recomputed"],
    }
    return e2e, layers, samples


def _mean(xs):
    return sum(xs) / len(xs) if xs else None
