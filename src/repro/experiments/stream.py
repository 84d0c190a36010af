"""Job-stream experiment: the four stream policies under two loads.

The paper's motivating system (Cosmos) serves a *stream* of jobs, not
one job at a time; :mod:`repro.multijob` models that, but until this
experiment it had no registry entry point.  ``repro run stream``
compares every policy in
:data:`~repro.multijob.schedulers.STREAM_POLICIES` on shared sampled
streams — a paired design, like every other sweep here — at a light
and a heavy offered load, reporting mean flow time (the stream
objective) and stream makespan.

Sharding follows the house determinism rule: stream instance ``i``
derives all of its randomness from ``SeedSequence([seed, load_index,
i])``, so each load level is a
:class:`~repro.experiments.parallel.Sweep` and :func:`run_stream` is
bit-for-bit identical for every worker count (asserted by
``tests/experiments/test_stream.py``).  Its sweeps declare no
fingerprint: stream results are not part of the persistent result
cache, whose fingerprint kinds are the single-job ``comparison``,
``robustness``, ``decentral`` and ``energy`` sweeps.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.experiments.parallel import Sweep, run_sweep
from repro.multijob.arrival import poisson_stream
from repro.multijob.engine import simulate_stream
from repro.multijob.schedulers import STREAM_POLICIES, make_stream_scheduler
from repro.obs.telemetry import Telemetry
from repro.workloads.generator import sample_system
from repro.workloads.params import IRParams, WorkloadSpec

__all__ = ["run_stream", "STREAM_SPEC", "STREAM_LOADS"]

#: The workload cell of the stream study: medium layered IR jobs, kept
#: slightly smaller than the paper's cell so the default run is quick.
STREAM_SPEC = WorkloadSpec(
    "ir", "layered", "medium",
    params=IRParams(
        iterations_range=(4, 6), maps_range=(20, 40), reduces_range=(6, 10)
    ),
)

#: (label, mean interarrival gap) of the two offered-load levels.
STREAM_LOADS: tuple[tuple[str, float], ...] = (
    ("light load", 80.0),
    ("heavy load", 20.0),
)

#: Jobs per sampled stream.
STREAM_JOBS = 10

_POLICIES = tuple(STREAM_POLICIES)


def _stream_metrics_chunk(
    spec: WorkloadSpec,
    policies: tuple[str, ...],
    n_jobs: int,
    gap: float,
    seed: int,
    load_index: int,
    start: int,
    stop: int,
    telemetry: Telemetry | None,
) -> np.ndarray:
    """Sweep chunk: ``(2 * n_policies, stop - start)`` metric block.

    Rows are ``[flow_time(p0), makespan(p0), flow_time(p1), ...]``.
    Stream ``i`` (and its sampled system) derive all randomness from
    ``SeedSequence([seed, load_index, i])``, making this the shardable
    unit of the study.
    """
    block = np.empty((2 * len(policies), stop - start), dtype=np.float64)
    for j, i in enumerate(range(start, stop)):
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, load_index, i])
        )
        system = sample_system(spec, rng)
        stream = poisson_stream(spec, n_jobs, gap, rng)
        for p, name in enumerate(policies):
            result = simulate_stream(stream, system, make_stream_scheduler(name))
            block[2 * p, j] = result.mean_flow_time
            block[2 * p + 1, j] = result.makespan
    return block


def run_stream(
    n_instances: int | None = None,
    seed: int = 2018,
    n_workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Stream policies under light/heavy load (mean flow time, makespan).

    ``telemetry`` only times the sweep as a whole (``phase.stream_sweep``)
    — per-round stream-engine instrumentation is available through
    :func:`repro.multijob.engine.simulate_stream` directly.
    """
    n = n_instances or 10
    obs = telemetry if (telemetry is not None and telemetry.enabled) else None
    panels = []
    for load_index, (label, gap) in enumerate(STREAM_LOADS):
        sweep = Sweep(
            None,
            2 * len(_POLICIES),
            n,
            partial(
                _stream_metrics_chunk,
                STREAM_SPEC, _POLICIES, STREAM_JOBS, gap, seed, load_index,
            ),
        )
        if obs is None:
            metrics = run_sweep(sweep, n_workers)
        else:
            with obs.timer("phase.stream_sweep"):
                metrics = run_sweep(sweep, n_workers)
            obs.inc("sweep.streams", n)
        series = []
        for p, name in enumerate(_POLICIES):
            flow = metrics[2 * p]
            mksp = metrics[2 * p + 1]
            std = float(flow.std(ddof=1)) if n > 1 else 0.0
            series.append(
                {
                    "key": name,
                    "mean": float(flow.mean()),   # mean flow time
                    "max": float(mksp.mean()),    # mean stream makespan
                    "std": std,
                    "stderr": std / float(np.sqrt(n)),
                    "n": n,
                }
            )
        panels.append(
            {
                "name": label.replace(" ", "-"),
                "label": f"{label} (gap {gap:g})",
                "series": series,
            }
        )
    return {
        "figure": "stream",
        "title": (
            "Stream policies on Poisson job arrivals "
            "(mean = flow time, max col = stream makespan)"
        ),
        "kind": "bars",
        "metric": "mean+max",
        "panels": panels,
        "config": {
            "n_instances": n,
            "seed": seed,
            "n_jobs": STREAM_JOBS,
            "loads": {label: gap for label, gap in STREAM_LOADS},
        },
    }
