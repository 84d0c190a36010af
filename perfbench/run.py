"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fig4_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Workloads, metric names, units
and bounds live in ``BENCHMARK.json``; the reasons behind them in
``perfbench/NOTES.md``.  Everything the run writes stays under
``.perfbench/`` in the checkout: the native kernel's shared-object
cache, and a per-run directory (temporary result store, inputs, trace)
that is removed at the end, except the trace file of a traced run.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the run record (versions, native backend, seed,
sample counts).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats
from compute import PROBE_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
WORKLOADS = ("fig4_sweep", "engine_variants", "route_mix")
#: Set-ups per run (the median is reported).  Compute workloads: half of
#: them before the measured run, one is the measured run's own, the rest
#: after it, so they sample the host at two moments ~30 s apart.
#: route_mix: the last one is the measured run's.
SETUPS = {"fig4_sweep": 8, "engine_variants": 8, "route_mix": 3}
#: Seconds a child process may take beyond the measured time.
CHILD_MARGIN_S = 60.0


def child_env(state: Path, workdir: Path) -> dict:
    env = dict(os.environ)
    for knob in ("REPRO_ENGINE", "REPRO_WORKERS", "REPRO_NATIVE", "REPRO_CACHE_SIZE"):
        env.pop(knob, None)  # defaults: scalar engine, serial, native auto
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        XDG_CACHE_HOME=str(state / "cache"),
        REPRO_NATIVE_DIR=str(state / "native"),
        REPRO_CACHE="0",
        REPRO_CACHE_DIR=str(workdir / "store"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    return env


def spawn_compute(env: dict, spec_path: Path, timeout: float):
    """Run ``compute.py``; return (seconds to READY, stdout lines after it, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "compute.py"), str(spec_path)],
        env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    setup, lines = None, []
    try:
        for line in proc.stdout:
            if setup is None and line.strip() == "READY":
                setup = time.perf_counter() - t0
            else:
                lines.append(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return setup, lines, proc.returncode


def run_compute(workload, seed, seconds, trace, env, workdir, digests):
    from inputs import fig4_ops, variant_ops

    ops = fig4_ops(seed) if workload == "fig4_sweep" else variant_ops(seed)
    base = {"ops": ops, "seconds": seconds, "trace": bool(trace),
            "trace_file": str(workdir / "trace.json"),
            "digests": (digests or {}).get(workload)}
    setups, report = [], None
    n = SETUPS[workload]
    for k in range(n):
        measured = k == n // 2
        path = workdir / f"input{k}.json"
        path.write_text(json.dumps(dict(base, setup_only=not measured)))
        setup, lines, code = spawn_compute(env, path, seconds + CHILD_MARGIN_S)
        if setup is None or code != 0:
            raise RuntimeError(f"compute worker failed (exit {code})")
        setups.append(setup)
        if measured:
            report = json.loads(lines[-1])
    e2e, layers, samples = compute_metrics(report, setups, trace)
    return e2e, layers, samples, report["attempted"], report["failed"], report["native"]


def speed_factors(probe_s: list, ops_per_round: int) -> list:
    """Per round: the host's speed relative to the reference (>1 = faster).

    Every operation is preceded by one :func:`compute.probe`; a round's
    probes took ``probe_s`` seconds in total.
    """
    return [ops_per_round * PROBE_REF_S / p for p in probe_s]


def compute_metrics(report: dict, setups: list, trace: bool):
    """(end-to-end values, per-layer values, sample counts) of a compute run.

    Timings are scaled by each round's host-speed factor, so they read
    as if the host ran at the reference speed throughout: the shared
    host's CPU speed drifts by up to a factor of two over tens of
    seconds to minutes, and the probe tracks it (see NOTES.md).  Raw medians go to the run record;
    ``setup_s`` is raw wall time.
    """
    n_ops = report["ops_per_round"]
    raw = report["untraced_rounds"]
    speed = speed_factors(report["untraced_probe"], n_ops)
    rounds = [w * f for w, f in zip(raw, speed)]
    n_rounds = len(rounds)
    latencies = [t * f for ts, f in zip(report["op_latencies"], speed) for t in ts]
    e2e = {
        "sims_per_s": stats.median_rate([report["sims_per_round"]] * n_rounds, rounds),
        "ok_rps": stats.median_rate(report["untraced_ok"], rounds),
        "fresh_p50_ms": _ms(stats.percentile(latencies, 50)),
        "sweep_p50_ms": _ms(stats.median(rounds)),
        "setup_s": stats.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    layers = {}
    if trace:
        tr = report["trace"]
        hits, misses = tr["offline_hits"], tr["offline_misses"]
        ready, finished = tr["task_ready"], tr["task_finished"]
        traced_speed = speed_factors(report["traced_probe"], n_ops)
        traced = stats.median([w * f for w, f in zip(report["traced_rounds"], traced_speed)])
        untraced = stats.median(rounds)
        layers = {
            "workloads.sample_ms": _per(tr["sample"]),
            "schedulers.prepare_ms": _per(tr["prepare"]),
            "core.offline_hit_ratio": hits / (hits + misses) if hits + misses else None,
            "schedulers.assign_ms.static": _per(tr["assign_static"]),
            "schedulers.assign_ms.mqb": _per(tr["assign_mqb"]),
            "schedulers.callback_ms": _per((finished[0], ready[1] + finished[1])),
            "sim.loop_self_ms": _per(tr["simulate_self"]),
            "sim.decisions": tr["decisions_per_round"],
            "sim.tasks": tr["tasks_per_round"],
            "experiments.runner_self_ms": 1e3 * tr["runner_self_per_round"],
            "trace.overhead_pct": (
                100.0 * (traced / untraced - 1.0) if traced and untraced else None
            ),
            "tail.fresh_p90_ms": _ms(
                stats.percentile([t for ts in report["op_latencies"] for t in ts], 90)
            ),
            **tr["label_ms"],
        }
    samples = {
        "rounds_untraced": n_rounds,
        "rounds_traced": len(report["traced_rounds"]),
        "fresh_ops": len(latencies),
        "host_speed_median": stats.median(speed),
        "raw_sims_per_s": stats.median_rate([report["sims_per_round"]] * n_rounds, raw),
        "raw_sweep_p50_ms": _ms(stats.median(raw)),
        "setups": len(setups),
        "native_unchanged_by_tracing": report["native_unchanged"],
    }
    if trace:
        samples["offline_lookups"] = {"hits": hits, "misses": misses}
    return e2e, layers, samples


def run_route(seed, seconds, trace, env, workdir, digests):
    import serving
    from inputs import route_plan

    out = serving.run(env, workdir, route_plan(seed), seconds,
                      (digests or {}).get("route_mix"), SETUPS["route_mix"])
    e2e, layers, samples = serving.metrics(out)
    e2e["setup_s"] = stats.median(out["setup_times"])
    e2e["peak_rss_mb"] = out["peak_rss_mb"]
    if trace:
        # Everything route_mix reports is read from responses and /metrics,
        # which the untraced run reads too: tracing adds nothing here.
        layers["trace.overhead_pct"] = 0.0
    samples["drain_exit_codes"] = out["exit_codes"]
    attempted = len(out["checked"]) + len(out["exit_codes"])
    failed = out["failed"] + sum(1 for c in out["exit_codes"] if c != 0)
    return e2e, layers, samples, attempted, failed, None


def _ms(seconds):
    return None if seconds is None else 1e3 * seconds


def _per(count_seconds):
    count, seconds = count_seconds
    return 1e3 * seconds / count if count else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an exception, so the cluster and worker
    # teardown in the finally blocks below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(args.seconds if args.seconds is not None else bench["run_seconds"])

    state = ROOT / ".perfbench"
    workdir = state / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(state, workdir)
    os.environ.clear()
    os.environ.update(env)  # this process samples inputs and recomputes checks
    sys.path.insert(0, str(ROOT / "src"))

    import numpy
    from repro import native
    from repro.experiments.runner import resolve_engine

    native.load_kernel()  # builds the shared object once per checkout, before any timing
    digests = None
    if args.seed == DEFAULT_SEED:
        digests = json.loads((HERE / "digests.json").read_text())
    try:
        if args.workload == "route_mix":
            result = run_route(args.seed, seconds, args.trace, env, workdir, digests)
        else:
            result = run_compute(args.workload, args.seed, seconds, args.trace, env, workdir, digests)
    finally:
        if args.trace and (workdir / "trace.json").exists():
            keep = state / "traces"
            keep.mkdir(parents=True, exist_ok=True)
            shutil.move(str(workdir / "trace.json"), keep / f"{args.workload}-{args.seed}.json")
        shutil.rmtree(workdir, ignore_errors=True)
    e2e, layers, samples, attempted, failed, child_native = result

    status = native.native_status()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine": resolve_engine(),
        "native": child_native or {k: status[k] for k in ("mode", "loaded", "backend", "fallbacks")},
        "samples": samples,
    }
    if args.trace:
        declared = bench["per_layer"]
        values = dict.fromkeys((m["name"] for m in declared), 0.0)  # 0: layer not reached
        values.update(layers)
        native_status = record["native"]
        values["native.loaded"] = 1 if native_status["loaded"] else 0
        values["native.fallbacks"] = native_status["fallbacks"]
    else:
        declared = bench["end_to_end"]
        values = e2e
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in declared}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
