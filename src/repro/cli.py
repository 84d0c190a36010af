"""Command-line interface: reproduce the paper's experiments.

Usage::

    repro list
    repro cells
    repro run fig4 [--instances 300] [--seed 2011] [--out results/]
    repro run robustness [--mtbf 2.0] [--mttr 0.25] [--fault-seed 7]
    repro run all --out results/
    repro report results/fig4.json
    repro demo medium-layered-ir --scheduler mqb
    repro trace medium-layered-ir --scheduler mqb --out trace.json
    repro profile fig4 --instances 50
    repro cache stats
    repro serve --port 8512 --workers 4
    repro submit schedule medium-layered-ir --scheduler mqb
    repro route --port 8600 --shards 4

``repro run`` prints the rendered tables and (with ``--out``) saves the
raw JSON; ``repro report`` re-renders a saved result; ``repro demo``
simulates one sampled instance and draws the schedule as an ASCII
Gantt chart with per-type utilizations.

``repro trace`` runs one sampled instance with full event tracing
(:mod:`repro.obs`) and exports a Chrome trace-event file — open it in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` for a
per-processor timeline — plus a text utilization summary.
``repro profile`` runs a whole experiment under the phase profiler and
prints where the wall-clock time went.

Sweeps memoize per-instance results in a persistent content-addressed
cache (:mod:`repro.resultcache`): re-running a finished experiment is
pure lookups, an interrupted one resumes where it stopped.  ``repro
cache stats|clear|prune`` manages the store; ``--no-cache`` (or
``REPRO_CACHE=0``) runs without it.

``repro serve`` runs the scheduling daemon (:mod:`repro.service`):
JSON-over-HTTP submission of schedules, sweeps, and stream simulations
with admission control and result deduplication; ``repro submit``
talks to it.  ``repro route`` runs the sharded cluster front-end
(:mod:`repro.cluster`): a consistent-hash router over N supervised
``repro serve`` shard processes, speaking the same protocol.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ConfigurationError
from repro.experiments.figures import EXPERIMENTS, run_experiment
from repro.experiments.report import render_result
from repro.experiments.store import load_result, save_result

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Scheduling Functionally Heterogeneous "
            "Systems with Utilization Balancing' (IPDPS 2011)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", help=f"one of {sorted(EXPERIMENTS)} or 'all'")
    run_p.add_argument(
        "--instances",
        type=int,
        default=None,
        help="instances per plotted point (default: per-figure; paper used 5000)",
    )
    run_p.add_argument("--seed", type=int, default=None, help="base seed")
    run_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for instance sweeps (default: serial, or the "
            "REPRO_WORKERS env var; results are identical for any count)"
        ),
    )
    run_p.add_argument(
        "--native",
        choices=("auto", "on", "off"),
        default=None,
        help=(
            "compiled MQB selection kernel (default: the REPRO_NATIVE env "
            "var, else auto); 'on' is the same as 'auto', which warns once "
            "if the kernel cannot be loaded; 'off' forces the pure-numpy "
            "path — results are bit-identical either way"
        ),
    )
    run_p.add_argument("--out", default=None, help="directory for JSON results")
    run_p.add_argument(
        "--quiet", action="store_true", help="suppress rendered tables"
    )
    run_p.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "recompute every instance instead of consulting the result "
            "cache (equivalent to REPRO_CACHE=0)"
        ),
    )
    run_p.add_argument(
        "--mtbf",
        type=float,
        default=None,
        help=(
            "robustness only: mean time between failures per processor, in "
            "units of the instance lower bound L(J); replaces the default "
            "failure-rate sweep with the single point 1/MTBF"
        ),
    )
    run_p.add_argument(
        "--mttr",
        type=float,
        default=None,
        help=(
            "robustness only: mean time to repair, in units of L(J) "
            "(default 0.25)"
        ),
    )
    run_p.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        help=(
            "robustness only: seed for the failure timelines, decoupled "
            "from the workload seed (default: the workload seed)"
        ),
    )

    rep_p = sub.add_parser("report", help="render a saved result JSON")
    rep_p.add_argument("path", help="path to a result .json file")
    rep_p.add_argument(
        "--chart", action="store_true",
        help="draw bar results as ASCII bar charts (like the paper's figures)",
    )
    rep_p.add_argument(
        "--markdown", action="store_true",
        help="emit GitHub-flavoured markdown tables",
    )

    sub.add_parser("cells", help="list workload cells")

    demo_p = sub.add_parser(
        "demo", help="simulate one instance and draw its Gantt chart"
    )
    demo_p.add_argument("cell", help="workload cell name (see `repro cells`)")
    demo_p.add_argument("--scheduler", default="mqb", help="algorithm name")
    demo_p.add_argument("--seed", type=int, default=0, help="instance seed")
    demo_p.add_argument("--width", type=int, default=100, help="chart width")
    demo_p.add_argument(
        "--preemptive", action="store_true", help="use the preemptive engine"
    )
    demo_p.add_argument(
        "--power",
        default=None,
        help=(
            "power config name for an energy breakdown of the schedule "
            "(baseline, idle-heavy, hetero, shutdown; see repro.energy)"
        ),
    )

    trace_p = sub.add_parser(
        "trace",
        help="simulate one instance with event tracing; export a Chrome trace",
    )
    trace_p.add_argument("cell", help="workload cell name (see `repro cells`)")
    trace_p.add_argument("--scheduler", default="mqb", help="algorithm name")
    trace_p.add_argument("--seed", type=int, default=0, help="instance seed")
    trace_p.add_argument(
        "--out",
        default="trace.json",
        help=(
            "Chrome trace-event output path (open in Perfetto or "
            "chrome://tracing; default trace.json)"
        ),
    )
    trace_p.add_argument(
        "--jsonl",
        default=None,
        help="also write the raw event stream as JSON lines to this path",
    )
    trace_p.add_argument(
        "--preemptive", action="store_true", help="use the preemptive engine"
    )
    trace_p.add_argument(
        "--capacity",
        type=int,
        default=1 << 20,
        help="event ring-buffer capacity (oldest events drop beyond it)",
    )

    prof_p = sub.add_parser(
        "profile", help="run one experiment under the phase profiler"
    )
    prof_p.add_argument("experiment", help=f"one of {sorted(EXPERIMENTS)}")
    prof_p.add_argument(
        "--instances", type=int, default=None, help="instances per plotted point"
    )
    prof_p.add_argument("--seed", type=int, default=None, help="base seed")
    prof_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes; per-chunk profiles are merged, so counter "
            "totals are identical for any count"
        ),
    )
    prof_p.add_argument(
        "--native",
        choices=("auto", "on", "off"),
        default=None,
        help="compiled MQB selection kernel (see `repro run --native`)",
    )
    prof_p.add_argument(
        "--full",
        action="store_true",
        help="full observability report (decision costs, counters), "
        "not just the timer table",
    )
    prof_p.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every instance (equivalent to REPRO_CACHE=0)",
    )

    from repro.cluster.cli import add_cluster_parser
    from repro.resultcache.cli import add_cache_parser
    from repro.service.cli import add_service_parsers

    add_cache_parser(sub)
    add_service_parsers(sub)
    add_cluster_parser(sub)
    return parser


def _cmd_list() -> int:
    for name, fn in sorted(EXPERIMENTS.items()):
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{name:11s} {doc}")
    return 0


def _apply_no_cache(args: argparse.Namespace) -> None:
    """``--no-cache`` is sugar for REPRO_CACHE=0 (process-wide: worker
    processes inherit the environment, so the whole sweep honours it)."""
    if getattr(args, "no_cache", False):
        import os

        os.environ["REPRO_CACHE"] = "0"


def _apply_native(args: argparse.Namespace) -> None:
    """``--native`` is sugar for REPRO_NATIVE (inherited by workers)."""
    choice = getattr(args, "native", None)
    if choice is not None:
        import os

        os.environ["REPRO_NATIVE"] = {"auto": "auto", "on": "1", "off": "0"}[
            choice
        ]


def _cmd_run(args: argparse.Namespace) -> int:
    _apply_no_cache(args)
    _apply_native(args)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        t0 = time.time()
        fault_kwargs = {}
        if name == "robustness" or args.experiment != "all":
            fault_kwargs = {
                "mtbf": args.mtbf,
                "mttr": args.mttr,
                "fault_seed": args.fault_seed,
            }
        result = run_experiment(
            name,
            n_instances=args.instances,
            seed=args.seed,
            n_workers=args.workers,
            **fault_kwargs,
        )
        elapsed = time.time() - t0
        if not args.quiet:
            print(render_result(result))
            print(f"[{name} completed in {elapsed:.1f}s]\n", file=sys.stderr)
        if args.out:
            path = save_result(result, args.out)
            print(f"[saved {path}]", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    result = load_result(args.path)
    if getattr(args, "chart", False):
        from repro.experiments.report import render_bar_chart

        print(render_bar_chart(result))
    elif getattr(args, "markdown", False):
        from repro.experiments.report import render_markdown

        print(render_markdown(result))
    else:
        print(render_result(result))
    return 0


def _cmd_cells() -> int:
    from repro.experiments.robustness import ROBUSTNESS_CELLS
    from repro.workloads.generator import EXTRA_CELLS, WORKLOAD_CELLS

    robustness = {name for name, _ in ROBUSTNESS_CELLS}
    for name, spec in {**WORKLOAD_CELLS, **EXTRA_CELLS}.items():
        mark = "  [robustness sweep]" if name in robustness else ""
        print(f"{name:24s} {spec.label}{mark}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.capabilities import plan_run
    from repro.schedulers.registry import make_scheduler
    from repro.sim.gantt import render_gantt
    from repro.sim.metrics import average_utilization
    from repro.workloads.generator import sample_instance, workload_cell

    spec = workload_cell(args.cell)
    scheduler = make_scheduler(args.scheduler)
    engine = plan_run(
        scheduler, preemptive=args.preemptive, energy=args.power is not None
    )
    job, system = sample_instance(spec, np.random.default_rng(args.seed))
    result = engine(
        job, system, scheduler,
        rng=np.random.default_rng(args.seed), record_trace=True,
    )
    print(
        f"{spec.label}: {job.n_tasks} tasks, {job.n_edges} edges on "
        f"{system.counts}"
    )
    print(
        f"{result.scheduler}: makespan {result.makespan:g}, "
        f"ratio {result.completion_time_ratio():.3f} vs L(J) "
        f"{result.lower_bound():g}\n"
    )
    assert result.trace is not None
    print(render_gantt(result.trace, system, width=args.width))
    util = average_utilization(result.trace, system, result.makespan)
    print("\nper-type utilization: "
          + "  ".join(f"t{a}={u:.0%}" for a, u in enumerate(util)))
    if args.power is not None:
        from repro.energy.metrics import energy_breakdown
        from repro.energy.models import power_config

        power = power_config(args.power, system.num_types)
        bd = energy_breakdown(result.trace, system, power, result.makespan)
        busy_floor = bd["busy"]
        norm = f" ({bd['total'] / busy_floor:.3f}x busy floor)" if busy_floor else ""
        print(
            f"\nenergy [{power.name}]: total {bd['total']:.1f}{norm} — "
            f"busy {bd['busy']:.1f}, idle {bd['idle']:.1f}, "
            f"sleep {bd['sleep']:.1f}, wake {bd['wake']:.1f} "
            f"({bd['n_shutdowns']}/{bd['n_gaps']} idle gaps slept)"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.capabilities import plan_run
    from repro.obs.events import EventStream
    from repro.obs.export import (
        render_summary,
        write_chrome_trace,
        write_events_jsonl,
    )
    from repro.obs.telemetry import Telemetry
    from repro.schedulers.registry import make_scheduler
    from repro.workloads.generator import sample_instance, workload_cell

    spec = workload_cell(args.cell)
    scheduler = make_scheduler(args.scheduler)
    engine = plan_run(scheduler, preemptive=args.preemptive)
    job, system = sample_instance(spec, np.random.default_rng(args.seed))
    telemetry = Telemetry(events=EventStream(capacity=args.capacity))
    result = engine(
        job, system, scheduler,
        rng=np.random.default_rng(args.seed), telemetry=telemetry,
    )
    print(
        f"{spec.label}: {job.n_tasks} tasks on {system.counts} — "
        f"{result.scheduler} makespan {result.makespan:g}, "
        f"ratio {result.completion_time_ratio():.3f}\n"
    )
    print(
        render_summary(
            telemetry.snapshot(),
            events=telemetry.events,
            resources=system,
            makespan=result.makespan,
        )
    )
    path = write_chrome_trace(telemetry.events, args.out, resources=system)
    print(
        f"[chrome trace: {path} — open in Perfetto or chrome://tracing]",
        file=sys.stderr,
    )
    if args.jsonl:
        n = write_events_jsonl(telemetry.events, args.jsonl)
        print(f"[{n} events: {args.jsonl}]", file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import native
    from repro.obs.export import render_summary
    from repro.obs.profile import render_profile
    from repro.obs.telemetry import Telemetry

    _apply_no_cache(args)
    _apply_native(args)
    # Load (on a cold cache, compile) the kernel before the timed
    # phases: a process's first KDag would otherwise charge it to
    # phase.sample_instance.
    native.load_kernel()
    telemetry = Telemetry()
    t0 = time.time()
    run_experiment(
        args.experiment,
        n_instances=args.instances,
        seed=args.seed,
        n_workers=args.workers,
        telemetry=telemetry,
    )
    elapsed = time.time() - t0
    snap = telemetry.snapshot()
    print(render_summary(snap) if args.full else render_profile(snap))
    print(f"[{args.experiment} profiled in {elapsed:.1f}s]", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code (2 with ``repro:
    error: <message>`` for a :class:`ConfigurationError`, like argparse)."""
    args = build_parser().parse_args(argv)
    try:
        return _command(args)
    except ConfigurationError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _command(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "cells":
        return _cmd_cells()
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "cache":
        from repro.resultcache.cli import cmd_cache

        return cmd_cache(args)
    if args.command == "serve":
        from repro.service.cli import cmd_serve

        return cmd_serve(args)
    if args.command == "submit":
        from repro.service.cli import cmd_submit

        return cmd_submit(args)
    if args.command == "route":
        from repro.cluster.cli import cmd_route

        return cmd_route(args)
    return _cmd_report(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
