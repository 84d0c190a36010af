"""Energy/makespan Pareto experiment (``repro run energy``).

Sweeps the paper's six algorithms plus the energy-aware variants
(``emqb[w=...]`` idle-power-weighted balancing,
``kgreedy-consolidate[r=...]`` per-type concurrency capping) across
the named power configurations of :mod:`repro.energy.models`, and
reports the energy/makespan Pareto front per power config.

Per (instance, algorithm) the sweep records three normalized metrics:

* ``ratio`` — completion-time ratio ``T / L(J)`` (the paper's metric);
* ``energy`` — total energy under the power model divided by the
  *busy floor* ``sum_alpha busy_alpha * busywork_alpha`` (the energy a
  schedule would cost if processors drew nothing while idle; identical
  for every algorithm on one instance, so the number is comparable
  across algorithms and instances and is always ``>= 1`` when idle
  draws are nonzero);
* ``profit`` — the arXiv:1501.05414 objective with per-task values
  equal to work, a global deadline of ``deadline_factor * L(J)``, and
  an energy price of ``energy_price_factor * total_value / busy_floor``
  — normalized by the total value, so ``1`` is "all value captured,
  energy free".

**Sharding and caching** mirror the decentral sweep: instance ``i``
derives all randomness from ``SeedSequence([seed, i])``, so each power
config is a :class:`~repro.experiments.parallel.Sweep`, bit-identical
for any worker count, whose per-instance columns are memoized under
:func:`repro.resultcache.keys.energy_fingerprint` (workload, ordered
algorithm list, seed, every power-model field, and the profit knobs).

Decentralized schedulers are refused when the sweep is built
(:func:`repro.capabilities.plan_run`): their steal costs fall outside
the recorded trace.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.capabilities import plan_run
from repro.energy.metrics import energy_breakdown, schedule_profit
from repro.energy.models import PowerModel, power_config
from repro.errors import ConfigurationError
from repro.experiments.parallel import Sweep, run_sweep
from repro.obs.telemetry import Telemetry
from repro.resultcache.keys import energy_fingerprint
from repro.schedulers.registry import PAPER_ALGORITHMS, make_scheduler
from repro.workloads.generator import WORKLOAD_CELLS, sample_instance
from repro.workloads.params import WorkloadSpec

__all__ = [
    "run_energy",
    "run_energy_comparison",
    "energy_algorithm_names",
    "pareto_front",
    "ENERGY_POWER_SWEEP",
    "ENERGY_METRICS",
    "DEFAULT_DEADLINE_FACTOR",
    "DEFAULT_ENERGY_PRICE_FACTOR",
]

#: Power configs of the default sweep (>= 3 per the acceptance bar).
ENERGY_POWER_SWEEP: tuple[str, ...] = (
    "baseline",
    "idle-heavy",
    "hetero",
    "shutdown",
)

#: Worker block rows per algorithm, in order.
ENERGY_METRICS: tuple[str, ...] = ("ratio", "energy", "profit")

#: Per-task deadline = this factor times the instance lower bound L(J).
DEFAULT_DEADLINE_FACTOR = 1.5

#: Energy price = this factor times total value / busy floor.
DEFAULT_ENERGY_PRICE_FACTOR = 0.1

#: Workload cell of the default sweep.  Layered IR has real dependency
#: stalls, so schedules differ meaningfully in idle time — the regime
#: where consolidation and shutdown windows matter.
ENERGY_CELL = "medium-layered-ir"


def energy_algorithm_names(power_name: str) -> tuple[str, ...]:
    """Ordered algorithm list for one power config.

    The six paper algorithms followed by four energy-aware variants.
    The EMQB entries name the sweep's power config explicitly so the
    scheduler weights against the same model the metrics integrate
    (and so each power config's fingerprint covers the difference).
    """
    return PAPER_ALGORITHMS + (
        f"emqb[w=0.5,power={power_name}]",
        f"emqb[w=1,power={power_name}]",
        "kgreedy-consolidate[r=0.5]",
        "kgreedy-consolidate[r=0.25]",
    )


def _energy_chunk(
    spec: WorkloadSpec,
    algorithms: tuple[str, ...],
    engines: tuple[Callable, ...],
    power: PowerModel,
    seed: int,
    deadline_factor: float,
    energy_price_factor: float,
    start: int,
    stop: int,
    telemetry: Telemetry | None,
) -> np.ndarray:
    """Sweep chunk: the three metrics for instances ``start..stop-1``.

    Returns a ``(3 * len(algorithms), stop - start)`` block: rows
    ``3a..3a+2`` are ratio / normalized energy / normalized profit of
    algorithm ``a`` (see :data:`ENERGY_METRICS`).
    """
    schedulers = [make_scheduler(name) for name in algorithms]
    obs = telemetry if (telemetry is not None and telemetry.enabled) else None
    n_rows = len(ENERGY_METRICS) * len(algorithms)
    block = np.empty((n_rows, stop - start), dtype=np.float64)
    for j, i in enumerate(range(start, stop)):
        ss = np.random.SeedSequence([seed, i])
        inst_rng, *alg_seeds = ss.spawn(1 + len(schedulers))
        job, system = sample_instance(spec, np.random.default_rng(inst_rng))
        values = job.work.astype(np.float64)
        total_value = float(values.sum())
        for a, sched in enumerate(schedulers):
            res = engines[a](
                job, system, sched,
                rng=np.random.default_rng(alg_seeds[a]),
                record_trace=True, telemetry=telemetry,
            )
            bd = energy_breakdown(res.trace, system, power, res.makespan)
            busy_floor = float(bd["busy"])
            denom = busy_floor if busy_floor > 0.0 else 1.0
            lower = res.lower_bound()
            deadlines = np.full(job.n_tasks, deadline_factor * lower)
            price = energy_price_factor * total_value / denom
            profit = schedule_profit(
                res.trace, values, deadlines, bd["total"], price
            )
            block[3 * a + 0, j] = res.makespan / lower
            block[3 * a + 1, j] = bd["total"] / denom
            block[3 * a + 2, j] = profit / total_value if total_value else 0.0
            if obs is not None:
                obs.inc("energy.runs")
                obs.inc("energy.gaps", bd["n_gaps"])
                obs.inc("energy.shutdowns", bd["n_shutdowns"])
    return block


def run_energy_comparison(
    spec: WorkloadSpec,
    power: PowerModel,
    n_instances: int,
    seed: int,
    algorithms: Sequence[str] | None = None,
    n_workers: int | None = None,
    telemetry: Telemetry | None = None,
    deadline_factor: float = DEFAULT_DEADLINE_FACTOR,
    energy_price_factor: float = DEFAULT_ENERGY_PRICE_FACTOR,
) -> dict:
    """One power config's sweep: all algorithms on shared instances.

    Returns ``{name: {"ratio": mean, "energy": mean, "profit": mean}}``
    per algorithm plus ``"n_instances"``.  Results are bit-identical
    for every ``n_workers``; per-instance columns are memoized under
    the full energy fingerprint.
    """
    algorithms = tuple(
        str(a).strip().lower()
        for a in (algorithms if algorithms is not None else energy_algorithm_names(power.name))
    )
    engines = tuple(
        plan_run(make_scheduler(name), energy=True) for name in algorithms
    )
    power.check_types(spec.num_types)
    sweep = Sweep(
        energy_fingerprint(
            spec, algorithms, seed, power.fingerprint(),
            deadline_factor, energy_price_factor,
        ),
        len(ENERGY_METRICS) * len(algorithms),
        n_instances,
        partial(
            _energy_chunk, spec, algorithms, engines, power, seed,
            deadline_factor, energy_price_factor,
        ),
    )
    matrix = run_sweep(sweep, n_workers, telemetry)
    means = matrix.mean(axis=1)
    stats: dict = {
        name: {
            metric: float(means[3 * a + m])
            for m, metric in enumerate(ENERGY_METRICS)
        }
        for a, name in enumerate(algorithms)
    }
    stats["n_instances"] = n_instances
    return stats


def pareto_front(points: dict[str, tuple[float, float]]) -> list[str]:
    """Non-dominated subset under joint minimization of both coordinates.

    A point is dominated if another is <= in both coordinates and < in
    at least one.  Returns the surviving names sorted by the first
    coordinate (ties broken by name for determinism).
    """
    front: list[str] = []
    for name, (x, y) in points.items():
        dominated = any(
            (ox <= x and oy <= y and (ox < x or oy < y))
            for other, (ox, oy) in points.items()
            if other != name
        )
        if not dominated:
            front.append(name)
    return sorted(front, key=lambda n: (points[n][0], n))


def run_energy(
    n_instances: int | None = None,
    seed: int = 2021,
    n_workers: int | None = None,
    telemetry: Telemetry | None = None,
    power_names: Sequence[str] | None = None,
    cell: str = ENERGY_CELL,
    deadline_factor: float = DEFAULT_DEADLINE_FACTOR,
    energy_price_factor: float = DEFAULT_ENERGY_PRICE_FACTOR,
) -> dict:
    """Energy/makespan Pareto fronts across power configurations.

    For each power config (default :data:`ENERGY_POWER_SWEEP`) runs all
    ten algorithms on shared instances of ``cell`` and computes the
    Pareto front over (mean completion-time ratio, mean normalized
    energy).  The table carries all three metrics per (power,
    algorithm) with front membership marked.
    """
    n = n_instances or 12
    if cell not in WORKLOAD_CELLS:
        raise ConfigurationError(
            f"unknown energy cell {cell!r}; known: {sorted(WORKLOAD_CELLS)}"
        )
    spec = WORKLOAD_CELLS[cell]
    names = tuple(power_names if power_names is not None else ENERGY_POWER_SWEEP)
    if not names:
        raise ConfigurationError("energy sweep needs at least one power config")

    rows: list[list] = []
    fronts: dict[str, list[str]] = {}
    per_power: dict[str, dict] = {}
    for power_name in names:
        power = power_config(power_name, spec.num_types)
        algorithms = energy_algorithm_names(power.name)
        stats = run_energy_comparison(
            spec, power, n, seed,
            algorithms=algorithms, n_workers=n_workers, telemetry=telemetry,
            deadline_factor=deadline_factor,
            energy_price_factor=energy_price_factor,
        )
        points = {
            name: (stats[name]["ratio"], stats[name]["energy"])
            for name in algorithms
        }
        front = pareto_front(points)
        fronts[power.name] = front
        per_power[power.name] = {k: v for k, v in stats.items() if k != "n_instances"}
        for name in algorithms:
            s = stats[name]
            rows.append(
                [
                    power.name,
                    name,
                    round(s["ratio"], 4),
                    round(s["energy"], 4),
                    round(s["profit"], 4),
                    "*" if name in front else "",
                ]
            )

    return {
        "figure": "energy",
        "title": (
            "Energy-aware scheduling: energy/makespan Pareto fronts across "
            "power configurations (mean over shared instances)"
        ),
        "kind": "table",
        "columns": [
            "power",
            "algorithm",
            "mean ratio T/L(J)",
            "mean energy / busy floor",
            "mean profit / total value",
            "pareto",
        ],
        "rows": rows,
        "fronts": fronts,
        "stats": per_power,
        "config": {
            "n_instances": n,
            "seed": seed,
            "cell": cell,
            "power_configs": list(names),
            "algorithms": list(energy_algorithm_names("<power>")),
            "deadline_factor": deadline_factor,
            "energy_price_factor": energy_price_factor,
        },
    }
