"""The result line and BENCHMARK.json agree, and the harness fails closed.

The two end-to-end runs start the real program (a few seconds each).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import serving  # noqa: E402
from run import compute_metrics  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert 2 <= len(BENCH["workloads"]) <= 8
    names = [w["name"] for w in BENCH["workloads"]] + list(E2E) + list(LAYERS)
    assert len(names) == len(set(names))
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def _report(trace):
    counts = (3, 0.03)
    return {
        "untraced_rounds": [2.0, 2.2], "untraced_probe": [0.1, 0.1], "untraced_ok": [24, 24],
        "traced_rounds": [2.4] if trace else [], "traced_probe": [0.1] if trace else [],
        "ops_per_round": 24, "sims_per_round": 144, "op_latencies": [[0.1] * 24] * 2,
        "peak_rss_mb": 55.0,
        "native_unchanged": True,
        "trace": {
            "sample": counts, "prepare": counts, "assign_static": counts, "assign_mqb": counts,
            "task_ready": counts, "task_finished": counts, "simulate_self": counts,
            "offline_hits": 4, "offline_misses": 4, "decisions_per_round": 10,
            "tasks_per_round": 20, "runner_self_per_round": 0.01,
            "label_ms": {"energy.sim_ms": 1.0, "decentral.sim_ms.steal": 2.0},
        },
    }


def test_compute_metrics_cover_the_declared_names():
    e2e, layers, _ = compute_metrics(_report(False), [0.5, 0.6], False)
    assert set(e2e) == set(E2E)
    e2e, layers, _ = compute_metrics(_report(True), [0.5], True)
    assert set(layers) <= set(LAYERS)


def test_route_metrics_cover_the_declared_names():
    body = json.dumps({"elapsed": 0.001, "result": {}}).encode()
    checked = [((cls, 0, 0, 1, 1.0, 1.01, 200, body), True, json.loads(body))
               for cls in ("hot", "fresh", "sweep")]
    out = {"start": 1.0, "seconds": 3.0, "checked": checked, "recomputed": 0,
           "store_bytes": 0, "counters": {}, "timers": {},
           "router_counters": {}, "router_timers": {}}
    e2e, layers, _ = serving.metrics(out)
    assert set(e2e) | {"setup_s", "peak_rss_mb"} == set(E2E)
    assert set(layers) <= set(LAYERS)


def test_harness_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_binding():
    import repro.experiments.runner as runner
    from repro.schedulers.mqb import MQB
    from repro.sim.engine import simulate

    from tracing import Tracer

    pick = MQB._pick_best
    tracer = Tracer()
    tracer.install()
    try:
        assert runner.simulate is not simulate
        assert MQB._pick_best is pick
    finally:
        tracer.uninstall()
    assert runner.simulate is simulate


@pytest.mark.parametrize("workload,trace", [("fig4_sweep", 0), ("route_mix", 1)])
def test_printed_names_and_units_match(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = LAYERS if trace else E2E
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_host_speed_scaling_cancels_a_uniform_slowdown():
    fast = dict(_report(False), untraced_rounds=[2.0, 2.0], untraced_probe=[0.1, 0.1])
    slow = dict(_report(False), untraced_rounds=[3.0, 3.0], untraced_probe=[0.15, 0.15],
                op_latencies=[[0.15] * 24] * 2)
    e_fast, _, _ = compute_metrics(fast, [0.5], False)
    e_slow, _, s_slow = compute_metrics(slow, [0.5], False)
    for name in ("sims_per_s", "ok_rps", "fresh_p50_ms", "sweep_p50_ms"):
        assert e_slow[name] == pytest.approx(e_fast[name])
    assert s_slow["raw_sweep_p50_ms"] == pytest.approx(3000.0)

