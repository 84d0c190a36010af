"""Robustness experiment: scheduler performance under processor failures.

Sweeps failure rate × workload cell for all six paper schedulers
(KGreedy, LSpan, DType, MaxDP, ShiftBT, MQB) through the fault-aware
engine, measuring how gracefully each policy degrades as per-type
capacity fluctuates — the regime the paper's fixed-``P_alpha``
analysis leaves open.

**Failure intensity** is expressed relative to the instance's lower
bound ``L(J)``: a rate of ``r`` means every processor fails on average
``r`` times per ``L(J)`` of schedule time (exponential MTBF
``L(J)/r``), and repairs take ``mttr_factor * L(J)`` on average.
Normalizing by ``L(J)`` keeps the expected number of failures per run
comparable across small and medium cells, so one sweep grid covers
both.

**Design** mirrors :mod:`repro.experiments.runner`: instance ``i``
derives all of its randomness from ``SeedSequence([seed, i])`` (and
its fault timelines from ``SeedSequence([fault_seed, i, rate_index])``,
shared by every scheduler — a paired design), so the sweep is a
:class:`~repro.experiments.parallel.Sweep` whose results are
bit-for-bit identical for any worker count.  The λ=0 column is the
fault-free run itself: with no fault events the fault-aware engine is
:func:`~repro.sim.engine.simulate`'s own loop, so inflation is exactly
1.0 by construction and the chunk writes it without a second run.

Per (scheduler, rate) the sweep records three metrics, averaged over
instances:

* ``inflation`` — makespan / fault-free makespan of the same
  (job, system, scheduler);
* ``wasted`` — killed work as a fraction of the job's total work
  (0 under the checkpoint policy);
* ``kills`` — segments killed per run.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.capabilities import plan_run
from repro.core.properties import lower_bound
from repro.core.properties import total_work
from repro.errors import ConfigurationError
from repro.experiments.parallel import Sweep, run_sweep
from repro.faults.engine import simulate_with_faults
from repro.faults.models import ExponentialFaults
from repro.obs.telemetry import Telemetry
from repro.resultcache.keys import robustness_fingerprint
from repro.schedulers.registry import PAPER_ALGORITHMS, make_scheduler
from repro.workloads.generator import WORKLOAD_CELLS, sample_instance
from repro.workloads.params import WorkloadSpec

__all__ = ["run_robustness", "run_robustness_comparison", "FAILURE_RATES"]

#: Default sweep grid: expected failures per processor per L(J).
FAILURE_RATES: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0)

#: Default mean repair time, as a fraction of L(J).
DEFAULT_MTTR_FACTOR = 0.25

#: Fault timelines cover [0, horizon_factor * L(J)); runs that outlast
#: the horizon simply see no further failures.
DEFAULT_HORIZON_FACTOR = 12.0

#: Workload cells of the robustness sweep (the paper's layered panels).
ROBUSTNESS_CELLS = [
    ("small-layered-ep", "(a) Small Layered EP"),
    ("medium-layered-tree", "(b) Medium Layered Tree"),
    ("medium-layered-ir", "(c) Medium Layered IR"),
]

_METRICS = ("inflation", "wasted", "kills")


def _robustness_chunk(
    spec: WorkloadSpec,
    algorithms: tuple[str, ...],
    engines: tuple[Callable, ...],
    rates: tuple[float, ...],
    seed: int,
    fault_seed: int,
    mttr_factor: float,
    horizon_factor: float,
    policy: str,
    start: int,
    stop: int,
    telemetry: Telemetry | None,
) -> np.ndarray:
    """Sweep chunk: robustness metrics for instances ``start..stop-1``.

    Returns a ``(n_algorithms * n_rates * 3, stop - start)`` block;
    row layout is ``(a * n_rates + r) * 3 + m`` over the
    ``(inflation, wasted, kills)`` metrics.
    """
    schedulers = [make_scheduler(name) for name in algorithms]
    n_rows = len(algorithms) * len(rates) * len(_METRICS)
    block = np.empty((n_rows, stop - start), dtype=np.float64)
    for j, i in enumerate(range(start, stop)):
        ss = np.random.SeedSequence([seed, i])
        inst_rng, *alg_seeds = ss.spawn(1 + len(algorithms))
        job, system = sample_instance(spec, np.random.default_rng(inst_rng))
        bound = lower_bound(job, system.as_array())
        work = total_work(job)

        fault_free = [
            engines[a](
                job, system, sched, rng=np.random.default_rng(alg_seeds[a]),
                telemetry=telemetry,
            )
            for a, sched in enumerate(schedulers)
        ]
        for ri, rate in enumerate(rates):
            if rate == 0.0:
                # λ=0 control: the fault-aware engine is bit-identical
                # to the fault-free one, so the metrics are exact.
                for a in range(len(algorithms)):
                    base = (a * len(rates) + ri) * 3
                    block[base : base + 3, j] = (1.0, 0.0, 0.0)
                continue
            model = ExponentialFaults(
                mtbf=bound / rate, mttr=mttr_factor * bound
            )
            timeline = model.sample(
                system,
                horizon_factor * bound,
                np.random.default_rng(np.random.SeedSequence([fault_seed, i, ri])),
            )
            for a, sched in enumerate(schedulers):
                res = simulate_with_faults(
                    job,
                    system,
                    sched,
                    timeline,
                    policy=policy,
                    rng=np.random.default_rng(alg_seeds[a]),
                    telemetry=telemetry,
                )
                base = (a * len(rates) + ri) * 3
                block[base, j] = res.makespan / fault_free[a].makespan
                block[base + 1, j] = res.wasted_work / work
                block[base + 2, j] = float(res.kills)
    return block


def run_robustness_comparison(
    spec: WorkloadSpec,
    algorithms: Sequence[str],
    rates: Sequence[float],
    n_instances: int,
    seed: int,
    fault_seed: int | None = None,
    mttr_factor: float = DEFAULT_MTTR_FACTOR,
    horizon_factor: float = DEFAULT_HORIZON_FACTOR,
    policy: str = "restart",
    n_workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> dict[str, dict[str, list[float]]]:
    """Mean robustness metrics for one cell over shared instances.

    Returns ``{metric: {algorithm: [mean per rate]}}`` for the metrics
    ``inflation``, ``wasted`` and ``kills``.  Results are identical for
    every ``n_workers``, with or without ``telemetry``.

    Per-instance metric columns are memoized by
    :mod:`repro.resultcache` under the full sweep fingerprint (cell,
    algorithms, rate grid, both seeds, repair/horizon factors,
    recovery policy), and :func:`~repro.experiments.parallel.run_sweep`
    computes only the misses and persists them as they land, so an
    interrupted robustness sweep resumes instead of starting over.
    Decentralized schedulers are refused before any work.
    """
    for rate in rates:
        if rate < 0 or not math.isfinite(rate):
            raise ConfigurationError(f"failure rates must be finite and >= 0, got {rate}")
    if mttr_factor <= 0:
        raise ConfigurationError(f"mttr_factor must be > 0, got {mttr_factor}")
    if horizon_factor <= 0:
        raise ConfigurationError(f"horizon_factor must be > 0, got {horizon_factor}")

    algorithms = tuple(algorithms)
    engines = tuple(
        plan_run(make_scheduler(name), faults=True) for name in algorithms
    )
    rates = tuple(float(r) for r in rates)
    effective_fault_seed = seed if fault_seed is None else fault_seed
    sweep = Sweep(
        robustness_fingerprint(
            spec, algorithms, rates, seed, effective_fault_seed,
            mttr_factor, horizon_factor, policy,
        ),
        len(algorithms) * len(rates) * len(_METRICS),
        n_instances,
        partial(
            _robustness_chunk, spec, algorithms, engines, rates, seed,
            effective_fault_seed, mttr_factor, horizon_factor, policy,
        ),
    )
    matrix = run_sweep(sweep, n_workers, telemetry)
    means = matrix.mean(axis=1)
    out: dict[str, dict[str, list[float]]] = {m: {} for m in _METRICS}
    for a, name in enumerate(algorithms):
        for m_i, metric in enumerate(_METRICS):
            out[metric][name] = [
                float(means[(a * len(rates) + ri) * 3 + m_i])
                for ri in range(len(rates))
            ]
    return out


def run_robustness(
    n_instances: int | None = None,
    seed: int = 2018,
    n_workers: int | None = None,
    mtbf: float | None = None,
    mttr: float | None = None,
    fault_seed: int | None = None,
    policy: str = "restart",
    telemetry: Telemetry | None = None,
) -> dict:
    """Robustness: makespan inflation under failures, per failure rate.

    ``mtbf``/``mttr`` are expressed in units of the instance lower
    bound ``L(J)``; an explicit ``mtbf`` replaces the default rate grid
    with the single sweep point ``{0, 1/mtbf}`` and ``mttr`` overrides
    the repair-time factor.  ``fault_seed`` decouples the failure
    timelines from the workload sampling seed.
    """
    n = n_instances or 40
    if mtbf is not None:
        if mtbf <= 0:
            raise ConfigurationError(f"mtbf must be > 0, got {mtbf}")
        rates: tuple[float, ...] = (0.0, 1.0 / mtbf)
    else:
        rates = FAILURE_RATES
    mttr_factor = DEFAULT_MTTR_FACTOR if mttr is None else mttr

    panels = []
    for cell, label in ROBUSTNESS_CELLS:
        metrics = run_robustness_comparison(
            WORKLOAD_CELLS[cell],
            PAPER_ALGORITHMS,
            rates,
            n,
            seed,
            fault_seed=fault_seed,
            mttr_factor=mttr_factor,
            policy=policy,
            n_workers=n_workers,
            telemetry=telemetry,
        )
        panels.append(
            {
                "name": cell,
                "label": label,
                "x_label": "failures per processor per L(J)",
                "x": list(rates),
                "series": metrics["inflation"],
                "wasted": metrics["wasted"],
                "kills": metrics["kills"],
            }
        )
    return {
        "figure": "robustness",
        "title": (
            "Makespan inflation under processor failures "
            f"({policy} recovery; mean T_faulty / T_fault-free)"
        ),
        "kind": "lines",
        "metric": "mean",
        "panels": panels,
        "config": {
            "n_instances": n,
            "seed": seed,
            "fault_seed": seed if fault_seed is None else fault_seed,
            "rates": list(rates),
            "mttr_factor": mttr_factor,
            "horizon_factor": DEFAULT_HORIZON_FACTOR,
            "policy": policy,
        },
    }
