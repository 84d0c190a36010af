#!/usr/bin/env python
"""Regenerate ``benchmarks/BENCH_engine.json`` (and a root-level copy).

Times the hot paths the optimization work targets — MQB/KGreedy runs on
a paper-scale IR instance, the offline passes (numpy and native), and a
Fig.-4-scale paired sweep serial vs parallel — and writes the numbers
next to the recorded pre-optimization baselines so the speedups are
auditable.  The same payload is written to ``BENCH_engine.json`` at the
repo root, where CI picks it up without knowing the benchmarks layout.

Run from the repo root::

    PYTHONPATH=src python scripts/bench_baseline.py

The baselines under ``"before"`` were measured on commit 354fe77 (the
seed, before the vectorized sweeps / offline cache / engine+MQB hot-path
work) on the same host class; re-measure them from that commit if the
host changes materially.  Parallel-sweep results depend on the host's
core count, which is recorded under ``"host"`` — on a single-core
container the 8-worker sweep cannot beat serial and the numbers say so.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile
import time
import timeit
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import KDag, make_scheduler, simulate  # noqa: E402
from repro.core.cache import clear_offline_cache  # noqa: E402
from repro.core.descendants import (  # noqa: E402
    descendant_values,
    different_child_distance,
    remaining_span,
    untyped_descendant_values,
)
from repro.experiments.runner import run_comparison  # noqa: E402
from repro.schedulers.registry import PAPER_ALGORITHMS  # noqa: E402
from repro.workloads.generator import WORKLOAD_CELLS, sample_instance  # noqa: E402

OUT_PATH = REPO_ROOT / "benchmarks" / "BENCH_engine.json"
ROOT_OUT_PATH = REPO_ROOT / "BENCH_engine.json"

#: Seed-commit (354fe77) timings, seconds — the "before" column.
BASELINE = {
    "engine_mqb_ir": 0.09123798527272697,
    "engine_kgreedy_ir": 0.013182770230263199,
    "descendant_values_pass": 0.011887787094117893,
    "remaining_span_pass": 0.004513976873874008,
    "fig4_ir_sweep_16_serial": 5.457877637000024,
}

SWEEP_INSTANCES = 16
SWEEP_SEED = 2011
#: medium-layered-tree sizes are bimodal (61 to 4,995 tasks), so the
#: tree rows take the first instance from seed 42 on of at least this
#: many tasks, the cell's large mode, rather than whatever one seed draws.
TREE_TASKS = 4900


def _best_of(fn, repeat: int = 5, number: int = 1) -> float:
    """Min-of-N wall time for one call (min is robust to scheduler noise)."""
    return min(timeit.repeat(fn, repeat=repeat, number=number)) / number


def _tree_seed() -> int:
    """The first seed from 42 on whose medium-layered-tree instance has
    ``TREE_TASKS``+ tasks."""
    spec = WORKLOAD_CELLS["medium-layered-tree"]
    seed = 42
    while sample_instance(spec, np.random.default_rng(seed))[0].n_tasks < TREE_TASKS:
        seed += 1
    return seed


def _tree_instance():
    """The first medium-layered-tree instance of ``TREE_TASKS``+ tasks."""
    return sample_instance(
        WORKLOAD_CELLS["medium-layered-tree"], np.random.default_rng(_tree_seed())
    )


def measure_tree() -> dict[str, float]:
    """MQB on a large tree instance, the Python loop and the C loop.

    Most of its ready tasks are leaves with all-zero descendant rows
    and small integer works, so MQB's pools hold many tasks of few
    classes of identical rows, which the C loop scores once per class.
    """
    from repro import native as _native

    job, system = _tree_instance()
    rows: dict[str, float] = {}
    os.environ["REPRO_NATIVE"] = "0"
    rows["engine_mqb_tree"] = _best_of(
        lambda: simulate(job, system, make_scheduler("mqb")), repeat=3
    )
    os.environ["REPRO_NATIVE"] = "1"
    if _native.load_kernel() is not None:
        rows["engine_mqb_tree_native"] = _best_of(
            lambda: simulate(job, system, make_scheduler("mqb")), repeat=10
        )
    os.environ["REPRO_NATIVE"] = "0"
    return rows


#: Target task counts of the preemptive rows' instances: the cells'
#: medians, as perfbench/inputs.py sizes its preemptive operations.
PREEMPTIVE_TASKS = {"small-layered-ep": 1400, "medium-layered-ir": 2750}


def _sized_instance(cell: str, target: int, pool: int = 16):
    """Of the instances seeds 42..42+pool draw from ``cell``, the one
    whose task count is nearest ``target`` (the smaller seed on a tie)."""
    spec = WORKLOAD_CELLS[cell]
    drawn = [sample_instance(spec, np.random.default_rng(s)) for s in range(42, 42 + pool)]
    return min(drawn, key=lambda inst: abs(inst[0].n_tasks - target))


def measure_preemptive() -> dict[str, float]:
    """Preemptive runs and one GlobalMQB stream, on numpy and in C.

    One quantum-1 run of KGreedy on a small-layered-ep instance and of
    MQB on a medium-layered-ir instance, each near its cell's median
    size (the Python loop, then the kernel's preemptive loop), and one
    GlobalMQB run of the stream experiment's first heavy-load stream
    (seed 2018; picks on numpy's lexsort, then in the kernel).
    """
    from repro import native as _native
    from repro.experiments.stream import STREAM_JOBS, STREAM_LOADS, STREAM_SPEC
    from repro.multijob import GlobalMQB, poisson_stream, simulate_stream
    from repro.sim.preemptive import simulate_preemptive
    from repro.workloads.generator import sample_system

    runs = {
        "engine_preemptive_kgreedy_ep": (
            "kgreedy", _sized_instance("small-layered-ep", PREEMPTIVE_TASKS["small-layered-ep"])
        ),
        "engine_preemptive_mqb_ir": (
            "mqb", _sized_instance("medium-layered-ir", PREEMPTIVE_TASKS["medium-layered-ir"])
        ),
    }
    heavy = 1
    rng = np.random.default_rng(np.random.SeedSequence([2018, heavy, 0]))
    stream_system = sample_system(STREAM_SPEC, rng)
    stream = poisson_stream(STREAM_SPEC, STREAM_JOBS, STREAM_LOADS[heavy][1], rng)
    rows: dict[str, float] = {}
    for mode, suffix in (("0", ""), ("1", "_native")):
        os.environ["REPRO_NATIVE"] = mode
        if mode == "1" and _native.load_kernel() is None:
            continue
        for row, (name, (job, system)) in runs.items():
            rows[row + suffix] = _best_of(
                lambda: simulate_preemptive(job, system, make_scheduler(name)),
                repeat=3 if mode == "0" else 10,
            )
        rows["stream_global_mqb" + suffix] = _best_of(
            lambda: simulate_stream(stream, stream_system, GlobalMQB()), repeat=5
        )
    os.environ["REPRO_NATIVE"] = "0"
    return rows


def measure_variants() -> dict[str, float]:
    """Fault-injected and energy-aware runs, on the Python loop and
    (``_native``) whole in the kernel's list-scheduling loop.

    On the medium-layered-ir instance nearest the cell's median size:
    ``faults_*`` time one restart run of KGreedy and of MQB under the
    robustness experiment's λ = 0.5 timeline (exponential faults, MTBF
    L(J)/0.5, MTTR 0.25·L(J), horizon 12·L(J)); ``energy_*`` time one
    traced EMQB (w = 0.5) and KGreedyConsolidate (r = 0.5) run plus its
    ``energy_breakdown`` on the hetero power config, as the energy
    experiment computes them.
    """
    from repro import native as _native
    from repro.core.properties import lower_bound
    from repro.energy.metrics import energy_breakdown
    from repro.energy.models import power_config
    from repro.faults.engine import simulate_with_faults
    from repro.faults.models import ExponentialFaults

    job, system = _sized_instance("medium-layered-ir", PREEMPTIVE_TASKS["medium-layered-ir"])
    bound = lower_bound(job, system.as_array())
    timeline = ExponentialFaults(mtbf=bound / 0.5, mttr=0.25 * bound).sample(
        system, 12.0 * bound, np.random.default_rng(0)
    )
    power = power_config("hetero", job.num_types)

    def faulty(name):
        return lambda: simulate_with_faults(job, system, make_scheduler(name), timeline)

    def energy(name):
        def run():
            res = simulate(job, system, make_scheduler(name), record_trace=True)
            energy_breakdown(res.trace, system, power, res.makespan)

        return run

    runs = {
        "faults_kgreedy_ir": faulty("kgreedy"),
        "faults_mqb_ir": faulty("mqb"),
        "energy_emqb_ir": energy("emqb[w=0.5,power=hetero]"),
        "energy_consolidate_ir": energy("kgreedy-consolidate[r=0.5]"),
    }
    rows: dict[str, float] = {}
    for mode, suffix in (("0", ""), ("1", "_native")):
        os.environ["REPRO_NATIVE"] = mode
        if mode == "1" and _native.load_kernel() is None:
            continue
        for row, fn in runs.items():
            rows[row + suffix] = _best_of(fn, repeat=3 if mode == "0" else 10)
    os.environ["REPRO_NATIVE"] = "0"
    return rows


def measure_offline(instances: dict) -> dict[str, float]:
    """The offline passes with a native path, on numpy and in C.

    Per instance: ``KDag`` construction (validation, CSR and the
    level-order peel), ShiftBT's prepare from an empty offline cache
    (bottom and top levels, due dates, one EDD subproblem per type),
    the different-child distance (DType's pass) and the typed and
    untyped descendant values (MQB's and MaxDP's add sweeps); once,
    sampling the tree instance (``sample_tree``: the tree generator's
    expansion, its numpy draws and the ``KDag``).
    """
    from repro import native as _native

    rows: dict[str, float] = {}
    tree_spec = WORKLOAD_CELLS["medium-layered-tree"]
    tree_seed = _tree_seed()
    for mode, suffix in (("0", ""), ("1", "_native")):
        os.environ["REPRO_NATIVE"] = mode
        if mode == "1" and _native.load_kernel() is None:
            continue
        rows[f"sample_tree{suffix}"] = _best_of(
            lambda: sample_instance(tree_spec, np.random.default_rng(tree_seed)),
            repeat=10,
        )
        for label, (job, system) in instances.items():
            def prepare(job=job, system=system):
                clear_offline_cache()
                make_scheduler("shiftbt").prepare(job, system)

            rows[f"kdag_construct_{label}{suffix}"] = _best_of(
                lambda job=job: KDag(job.types, job.work, job.edges, job.num_types),
                repeat=20,
            )
            rows[f"shiftbt_prepare_{label}{suffix}"] = _best_of(prepare, repeat=10)
            rows[f"different_child_distance_pass_{label}{suffix}"] = _best_of(
                lambda job=job: different_child_distance(job), repeat=20
            )
            rows[f"descendant_values_pass_{label}{suffix}"] = _best_of(
                lambda job=job: descendant_values(job), repeat=20
            )
            rows[f"untyped_descendant_values_pass_{label}{suffix}"] = _best_of(
                lambda job=job: untyped_descendant_values(job), repeat=20
            )
    os.environ["REPRO_NATIVE"] = "0"
    clear_offline_cache()
    return rows


def measure() -> dict[str, float]:
    # The engine/sweep timings below measure real computation; pin the
    # result cache off so a warm user cache can't shortcut them.  The
    # un-suffixed entries pin the native MQB kernel OFF so they stay
    # comparable with the recorded history (which predates the kernel);
    # the paired _native entries measure the same work with it on.
    os.environ["REPRO_CACHE"] = "0"
    os.environ["REPRO_NATIVE"] = "0"
    job, system = sample_instance(
        WORKLOAD_CELLS["medium-layered-ir"], np.random.default_rng(42)
    )
    after: dict[str, float] = {}

    clear_offline_cache()
    rng = np.random.default_rng(0)
    after["engine_mqb_ir"] = _best_of(
        lambda: simulate(job, system, make_scheduler("mqb"), rng=rng), repeat=10
    )
    # Native kernel (src/repro/native): the same runs as whole C runs
    # (simulate() hands a static-priority or MQB run to the kernel's
    # list-scheduling loop) — bit-identical results, guarded by
    # tests/test_differential.py.  Skipped (entries absent) when no
    # kernel can be built on this host.
    from repro import native as _native

    os.environ["REPRO_NATIVE"] = "1"
    if _native.load_kernel() is not None:
        after["engine_mqb_ir_native"] = _best_of(
            lambda: simulate(job, system, make_scheduler("mqb"), rng=rng),
            repeat=10,
        )
        after["engine_kgreedy_ir_native"] = _best_of(
            lambda: simulate(job, system, make_scheduler("kgreedy")),
            repeat=10,
        )
    os.environ["REPRO_NATIVE"] = "0"
    after.update(measure_tree())
    after.update(measure_preemptive())
    after.update(measure_variants())
    after.update(measure_offline({"ir": (job, system), "tree": _tree_instance()}))
    after["engine_kgreedy_ir"] = _best_of(
        lambda: simulate(job, system, make_scheduler("kgreedy")), repeat=10
    )
    from repro.obs.telemetry import Telemetry

    after["engine_mqb_ir_telemetry"] = _best_of(
        lambda: simulate(
            job, system, make_scheduler("mqb"), telemetry=Telemetry()
        ),
        repeat=10,
    )
    after["descendant_values_pass"] = _best_of(
        lambda: descendant_values(job), repeat=20
    )
    after["remaining_span_pass"] = _best_of(
        lambda: remaining_span(job), repeat=20
    )

    spec = WORKLOAD_CELLS["medium-layered-ir"]

    def sweep(workers: int, n: int = SWEEP_INSTANCES) -> float:
        t0 = time.perf_counter()
        run_comparison(spec, PAPER_ALGORITHMS, n, SWEEP_SEED, n_workers=workers)
        return time.perf_counter() - t0

    after["fig4_ir_sweep_16_serial"] = min(sweep(1) for _ in range(2))
    after["fig4_ir_sweep_16_workers8"] = min(sweep(8) for _ in range(2))
    after["fig4_ir_sweep_256_serial"] = sweep(1, 256)

    # The same sweeps with every static-priority and MQB run in the
    # native kernel's whole-run loop.
    os.environ["REPRO_NATIVE"] = "1"
    if _native.load_kernel() is not None:
        after["fig4_ir_sweep_16_serial_native"] = min(
            sweep(1) for _ in range(2)
        )
        after["fig4_ir_sweep_256_serial_native"] = sweep(1, 256)
    os.environ["REPRO_NATIVE"] = "0"

    # Decentralized work-stealing engine (src/repro/decentral): one
    # DKGreedy run under the default steal policy on the overhead
    # sweep's own workload (EP, 2P chains) at growing system sizes —
    # the per-decision cost of the steal protocol as P scales is the
    # number the decentral experiment's wall-time budget rests on.
    from repro.decentral.engine import simulate_decentralized
    from repro.experiments.decentral import decentral_spec
    from repro.system.resources import ResourceConfig

    for p in (64, 256, 1024):
        d_spec = decentral_spec(p)
        d_job = sample_instance(d_spec, np.random.default_rng(42))[0]
        d_system = ResourceConfig((p,) * d_spec.num_types)
        after[f"decentral_p{p}"] = _best_of(
            lambda: simulate_decentralized(
                d_job, d_system, make_scheduler("dkgreedy"),
                rng=np.random.default_rng(0),
            ),
            repeat=3,
        )

    # Result cache (src/repro/resultcache): the same sweep cold (every
    # instance computed and persisted) vs warm (pure lookups, engines
    # never run).  Uses a throwaway cache dir so the numbers are honest
    # regardless of the host's cache state.
    cache_root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        os.environ["REPRO_CACHE"] = "1"
        os.environ["REPRO_CACHE_DIR"] = cache_root
        after["fig4_ir_sweep_16_cold_cache"] = sweep(1)
        after["fig4_ir_sweep_16_warm_cache"] = min(sweep(1) for _ in range(3))
    finally:
        os.environ["REPRO_CACHE"] = "0"
        os.environ.pop("REPRO_CACHE_DIR", None)
        shutil.rmtree(cache_root, ignore_errors=True)
    return after


def main() -> int:
    after = measure()
    speedups = {
        key: round(BASELINE[key] / after[key], 3)
        for key in BASELINE
        if key in after
    }
    speedups["fig4_ir_sweep_16_workers8_vs_seed_serial"] = round(
        BASELINE["fig4_ir_sweep_16_serial"] / after["fig4_ir_sweep_16_workers8"], 3
    )
    speedups["fig4_ir_sweep_16_warm_vs_cold_cache"] = round(
        after["fig4_ir_sweep_16_cold_cache"]
        / after["fig4_ir_sweep_16_warm_cache"],
        3,
    )
    if "engine_mqb_ir_native" in after:
        speedups["engine_mqb_ir_native_vs_numpy"] = round(
            after["engine_mqb_ir"] / after["engine_mqb_ir_native"], 3
        )
        speedups["engine_mqb_ir_native_vs_seed"] = round(
            BASELINE["engine_mqb_ir"] / after["engine_mqb_ir_native"], 3
        )
    for n in (16, 256):
        serial = f"fig4_ir_sweep_{n}_serial_native"
        if serial in after:
            speedups[f"{serial}_vs_python"] = round(
                after[f"fig4_ir_sweep_{n}_serial"] / after[serial], 3
            )
    offline = [
        f"{row}_{label}"
        for row in (
            "kdag_construct", "shiftbt_prepare", "different_child_distance_pass",
            "descendant_values_pass", "untyped_descendant_values_pass",
        )
        for label in ("ir", "tree")
    ] + ["sample_tree"]
    preemptive = ("engine_preemptive_kgreedy_ep", "engine_preemptive_mqb_ir", "stream_global_mqb")
    variants = ("faults_kgreedy_ir", "faults_mqb_ir", "energy_emqb_ir", "energy_consolidate_ir")
    for row in ("engine_kgreedy_ir", "engine_mqb_tree", *preemptive, *variants, *offline):
        if f"{row}_native" in after:
            speedups[f"{row}_native_vs_python"] = round(
                after[row] / after[f"{row}_native"], 3
            )
    payload = {
        "description": (
            "Engine/offline-pass hot-path timings, seconds (min over "
            "repeats). 'before' = seed commit 354fe77; 'after' = current "
            "tree. Sweep = run_comparison(medium-layered-ir, 6 paper "
            "algorithms, 16 instances, seed 2011, cache off); the "
            "fig4_ir_sweep_256_* entries run it at 256 instances. "
            "Un-suffixed entries pin REPRO_NATIVE=0 (the Python loop, "
            "numpy picks); the paired _native entries rerun the same "
            "work with the compiled kernel (src/repro/native, "
            "bit-identical) and are absent on hosts without a C "
            "toolchain. An engine or sweep _native entry "
            "(engine_*_native, fig4_ir_sweep_*_serial_native) times "
            "whole runs in the kernel's list-scheduling loop, every "
            "static-priority and MQB run of the sweep. "
            "engine_mqb_tree{,_native} time one MQB "
            "run on the first medium-layered-tree instance from seed 42 "
            f"on with at least {TREE_TASKS} tasks (the cell's large "
            "mode), on the Python loop and the C loop. The _telemetry "
            "variant runs the same instance under an enabled Telemetry "
            "(aggregates only, no event stream). The _cold_cache / "
            "_warm_cache pair times the same sweep against a fresh "
            "result cache (first run computes+persists, second run is "
            "pure lookups); their ratio is the warm_vs_cold speedup. "
            "The decentral_p{64,256,1024} entries time one DKGreedy "
            "work-stealing run (default steal policy) on the decentral "
            "experiment's EP workload at P processors per type. "
            "kdag_construct_*, shiftbt_prepare_*, "
            "different_child_distance_pass_*, descendant_values_pass_* "
            "and untyped_descendant_values_pass_* time, on the IR "
            "instance and the tree instance, one KDag construction (with "
            "its level-order peel), one ShiftBT prepare from an empty "
            "offline cache, one DType different-child-distance pass and "
            "one MQB typed / MaxDP untyped descendant-value pass; "
            "sample_tree times sampling the tree instance (the tree "
            "generator's expansion, its numpy draws and the KDag); their "
            "_native twins run the same work in the kernel's entry points "
            "(bit-identical). descendant_values_pass (no suffix) keeps "
            "its history: the IR instance with REPRO_NATIVE=0. "
            "engine_preemptive_kgreedy_ep and engine_preemptive_mqb_ir "
            "time one quantum-1 simulate_preemptive run of KGreedy on the "
            "small-layered-ep instance and of MQB on the medium-layered-ir "
            "instance nearest the cell's median size (1,400 and 2,750 "
            "tasks) among seeds 42-57, on the Python loop and (_native) "
            "in the kernel's preemptive loop; stream_global_mqb times one "
            "GlobalMQB run of the stream experiment's first heavy-load "
            "stream (seed 2018), picks on numpy's lexsort and (_native) "
            "in the kernel. faults_kgreedy_ir and faults_mqb_ir time one "
            "restart run under the robustness experiment's lambda = 0.5 "
            "exponential timeline on that medium-layered-ir instance, "
            "and energy_emqb_ir and energy_consolidate_ir one traced "
            "emqb[w=0.5,power=hetero] and kgreedy-consolidate[r=0.5] run "
            "plus its energy_breakdown on the hetero power config; their "
            "_native twins run whole in the kernel's list-scheduling loop."
        ),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "before": BASELINE,
        "after": {k: round(v, 6) for k, v in after.items()},
        "speedup": speedups,
    }
    text = json.dumps(payload, indent=2) + "\n"
    OUT_PATH.write_text(text)
    ROOT_OUT_PATH.write_text(text)
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {OUT_PATH}", file=sys.stderr)
    print(f"wrote {ROOT_OUT_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
