"""Compute workloads (fig4_sweep, engine_variants): the process under test.

Started by ``run.py`` as ``python3 perfbench/compute.py INPUT.json``.  It
imports the program and loads the native kernel, then prints ``READY``
(``run.py`` times process start to that line as set-up).  With
``"setup_only": true`` it exits there.  Otherwise it runs one warm-up
operation, repeats the input's round of operations until the time is up
and prints one JSON report as its last line.

A round is the whole operation list, after ``clear_offline_cache()``,
so every round does a fresh CLI run's work and all rounds are equal.
Outputs are checked after the timed region of each operation: every
round must reproduce the first round's result of each operation, and
on the default seed each must match the digest recorded in
``digests.json``.  Each operation is preceded by one :func:`probe`, so
``run.py`` can scale every round to the reference host speed.  With
``"trace": true`` tracing is installed on every other round; the
untraced rounds in between give the overhead.
"""

from __future__ import annotations

import gc
import heapq
import json
import sys
import time
from pathlib import Path

import stats


#: Seconds one :func:`probe` takes on the reference host (2-CPU shared
#: x86-64, Python 3.11, at its typical speed).  Only a scale: timings
#: are reported as if the host ran at this speed throughout.
PROBE_REF_S = 0.004


def probe() -> None:
    """A fixed slice of pure-Python work that measures the host's current speed.

    Heap pushes and pops, dict updates and float arithmetic — the
    interpreter paths the engine loops spend their time in.  It runs
    between operations, never during one, and calls no program code.
    The garbage collector is off while it runs: a collection would walk
    every object the program keeps alive, so a program holding a larger
    heap would slow the probe and the scaling would hide part of that
    program's own slowdown.  What is left to move it is the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        heap, acc = [], {}
        for i in range(3000):
            heapq.heappush(heap, (i * 7919 % 1000, i))
            acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
        while heap:
            heapq.heappop(heap)
    finally:
        if enabled:
            gc.enable()


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` of a process in MB (0.0 if it is gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def build_operation(op: dict):
    """(callable returning a JSON-able result, simulations it runs, label)."""
    from repro.decentral.policies import StealPolicy
    from repro.energy.models import power_config
    from repro.experiments.decentral import run_decentral_comparison
    from repro.experiments.energy import ENERGY_CELL, energy_algorithm_names, run_energy_comparison
    from repro.experiments.robustness import run_robustness_comparison
    from repro.experiments.runner import run_comparison
    from repro.experiments.stream import STREAM_LOADS, run_stream
    from repro.multijob.schedulers import STREAM_POLICIES
    from repro.schedulers.registry import PAPER_ALGORITHMS
    from repro.workloads.generator import WORKLOAD_CELLS

    from inputs import DECENTRAL_P

    kind, seed = op["kind"], op["seed"]
    if kind in ("comparison", "preemptive"):
        spec = WORKLOAD_CELLS[op["cell"]]
        preemptive = kind == "preemptive"

        def call():
            out = run_comparison(spec, PAPER_ALGORITHMS, 1, seed, preemptive=preemptive)
            return [s.to_dict() for s in out]

        label = "sim.preemptive_sim_ms" if preemptive else None
        return call, len(PAPER_ALGORITHMS), label
    if kind == "decentral":
        policy = StealPolicy() if op["policy"] == "steal" else StealPolicy(victims="global", cost=0)
        return (
            lambda: run_decentral_comparison(DECENTRAL_P, 1, seed, policy=policy),
            4,
            f"decentral.sim_ms.{op['policy']}",
        )
    if kind == "robustness":
        spec, rate = WORKLOAD_CELLS[op["cell"]], float(op["rate"])
        # Fault-free runs of every algorithm, plus the faulty ones at rate > 0.
        sims = len(PAPER_ALGORITHMS) * (1 if rate == 0.0 else 2)
        label = "faults.sim_ms.lambda0" if rate == 0.0 else "faults.sim_ms.faulty"
        return (
            lambda: run_robustness_comparison(spec, PAPER_ALGORITHMS, (rate,), 1, seed),
            sims,
            label,
        )
    if kind == "stream":
        return lambda: run_stream(1, seed), len(STREAM_POLICIES) * len(STREAM_LOADS), "multijob.sim_ms"
    if kind == "energy":
        spec = WORKLOAD_CELLS[ENERGY_CELL]
        power = power_config(op["power"], spec.num_types)
        return (
            lambda: run_energy_comparison(spec, power, 1, seed),
            len(energy_algorithm_names(op["power"])),
            "energy.sim_ms",
        )
    raise ValueError(f"unknown operation kind {kind!r}")


def check_results(results, first, digests, expected) -> int:
    """Failed operations of one round; the first round fills ``first``/``digests``.

    A result fails when its operation raised (``None``), when it differs
    from the first round's, or, on the first round, when ``expected``
    digests are given and its digest is not the recorded one.
    """
    bad = 0
    for i, result in enumerate(results):
        if result is None:
            bad += 1
            continue
        text = stats.canonical(result)
        if first[i] is None:
            first[i] = text
            digests[i] = stats.digest(result)
            want = expected[i] if expected is not None and i < len(expected) else None
            if expected is not None and digests[i] != want:
                print(f"operation {i}: digest {digests[i]} != recorded {want}", file=sys.stderr)
                bad += 1
        elif text != first[i]:
            print(f"operation {i}: result differs from the first round", file=sys.stderr)
            bad += 1
    return bad


def offline_hits() -> tuple[int, int]:
    from repro.core.cache import offline_cache_info

    info = offline_cache_info().values()
    return sum(v["hits"] for v in info), sum(v["misses"] for v in info)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    from repro import native
    from repro.core.cache import clear_offline_cache

    native.load_kernel()
    ops = spec["ops"]
    built = [build_operation(op) for op in ops]
    print("READY", flush=True)
    if spec.get("setup_only"):
        return 0
    built[0][0]()  # lazy imports and first-call set-up, outside set-up and timing

    expected = spec.get("digests")  # {op index: digest} on the default seed
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
    native_before = native.native_status()
    first: list = [None] * len(ops)
    digests: list = [None] * len(ops)
    attempted = failed = 0
    untraced_rounds: list[float] = []
    untraced_probe: list[float] = []
    untraced_ok: list[int] = []
    traced_rounds: list[float] = []
    traced_probe: list[float] = []
    latencies: list[list[float]] = []
    label_time: dict[str, float] = {}
    label_sims: dict[str, int] = {}
    hits = misses = 0
    sims_per_round = sum(b[1] for b in built)
    round_counts: list[tuple[int, int]] = []

    deadline = time.perf_counter() + float(spec["seconds"])
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        traced = tracer is not None and r % 2 == 0
        clear_offline_cache()
        if traced:
            tracer.decisions = tracer.tasks = 0
            tracer.install()
        results, op_times, probe_s = [], [], 0.0
        for i, (call, sims, label) in enumerate(built):
            t0 = time.perf_counter()
            probe()
            probe_s += time.perf_counter() - t0
            span = tracer.open(f"experiments.{ops[i]['kind']}") if traced else None
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                print(f"operation {ops[i]} failed: {exc!r}", file=sys.stderr)
                result = None
            dt = time.perf_counter() - t0
            if traced:
                tracer.close(span)
                if label is not None:
                    label_time[label] = label_time.get(label, 0.0) + dt
                    label_sims[label] = label_sims.get(label, 0) + sims
            op_times.append(dt)
            results.append(result)
        if traced:
            tracer.uninstall()
            h, m = offline_hits()
            hits, misses = hits + h, misses + m
            round_counts.append((tracer.decisions, tracer.tasks))
            traced_rounds.append(sum(op_times))
            traced_probe.append(probe_s)
        else:
            untraced_rounds.append(sum(op_times))
            untraced_probe.append(probe_s)
            latencies.append(op_times)
        bad = check_results(results, first, digests, expected)  # outside the timed region
        attempted += len(results)
        failed += bad
        if not traced:
            untraced_ok.append(len(results) - bad)
        r += 1

    native_after = native.native_status()
    report = {
        "attempted": attempted,
        "failed": failed,
        "ops_per_round": len(ops),
        "sims_per_round": sims_per_round,
        "untraced_rounds": untraced_rounds,
        "untraced_probe": untraced_probe,
        "untraced_ok": untraced_ok,
        "traced_rounds": traced_rounds,
        "traced_probe": traced_probe,
        "op_latencies": latencies,
        "peak_rss_mb": peak_rss_mb(),
        "native": {k: native_after[k] for k in ("mode", "loaded", "backend", "fallbacks")},
        "native_unchanged": (
            native_before["backend"] == native_after["backend"]
            and native_before["fallbacks"] == native_after["fallbacks"]
        ),
    }
    if tracer is not None:
        if len(set(round_counts)) > 1:
            print(f"decision/task counts differ between rounds: {round_counts}", file=sys.stderr)
            report["failed"] += 1
        runner_self = sum(
            tracer.total(name, self_time=True)[1]
            for name in ("experiments.comparison", "experiments.preemptive")
        )
        report["trace"] = {
            "sample": tracer.total("workloads.sample"),
            "simulate_self": tracer.total("sim.simulate", self_time=True),
            "prepare": tracer.aggregate("prepare"),
            "assign_static": tracer.aggregate("assign.static"),
            "assign_mqb": tracer.aggregate("assign.mqb"),
            "task_ready": tracer.aggregate("task_ready"),
            "task_finished": tracer.aggregate("task_finished"),
            "offline_hits": hits,
            "offline_misses": misses,
            "decisions_per_round": round_counts[0][0] if round_counts else 0,
            "tasks_per_round": round_counts[0][1] if round_counts else 0,
            "runner_self_per_round": runner_self / len(traced_rounds),
            "label_ms": {k: 1e3 * label_time[k] / label_sims[k] for k in label_time},
        }
        Path(spec["trace_file"]).write_text(json.dumps(tracer.to_json()))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
