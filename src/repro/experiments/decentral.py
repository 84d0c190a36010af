"""Decentralized-scheduling overhead experiment (``repro run decentral``).

Empirically reproduces the message of Tchiboukdjian, Gast & Trystram's
"Decentralized List Scheduling" bound: work stealing loses only a
lower-order term over centralized list scheduling — the makespan
overhead ``T_decentralized / T_centralized`` stays a small factor that
*shrinks* as the processor count grows, because the O(log)-ish steal
overhead is amortized over ever more parallel work.

The sweep scales the system to thousands of processors per type:
for each ``P`` in :data:`DECENTRAL_P_GRID` it builds an explicit
``(P,) * K`` system and an EP workload whose width tracks ``P``
(``2 P`` chains of 4-8 unit-to-8 work tasks, random type structure),
then runs the centralized KGreedy/MQB and their decentralized
counterparts DKGreedy/DMQB on the *same* instances with paired
per-algorithm seed streams.  Per (algorithm, P) it records the mean
completion-time ratio ``T / L(J)``; per (pair, P) the mean overhead
``T_dec / T_cen``.

**Sharding and caching** mirror the robustness sweep: instance ``i``
derives all randomness from ``SeedSequence([seed, i])``, so each cell
is a :class:`~repro.experiments.parallel.Sweep`, bit-identical for any
worker count, whose per-instance columns are memoized under
:func:`repro.resultcache.keys.decentral_fingerprint` (workload, ordered
algorithm list, explicit ``P``, seed, and the full steal-policy dict).

**Ragged cells**: very large ``P`` cells are clamped to fewer instances
(:func:`clamp_decentral_instances`) to bound wall time; each cell is
its own sweep, so differing instance counts across cells are safe for
any worker count (the regression test in
``tests/experiments/test_decentral_experiment.py`` pins this).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.capabilities import plan_run
from repro.decentral.policies import StealPolicy
from repro.errors import ConfigurationError
from repro.experiments.parallel import Sweep, run_sweep
from repro.obs.telemetry import Telemetry
from repro.resultcache.keys import decentral_fingerprint
from repro.schedulers.registry import make_scheduler
from repro.system.resources import ResourceConfig
from repro.workloads.generator import sample_job
from repro.workloads.params import EPParams, WorkloadSpec

__all__ = [
    "run_decentral",
    "run_decentral_comparison",
    "decentral_spec",
    "clamp_decentral_instances",
    "DECENTRAL_P_GRID",
]

#: Processors per type of the overhead sweep (the tentpole asks for
#: "P per type up to the thousands").
DECENTRAL_P_GRID: tuple[int, ...] = (4, 16, 64, 256, 1024)

#: Number of functional types.  K=2 keeps the task count at P=1024
#: tractable while still exercising typed victim sets.
DECENTRAL_NUM_TYPES = 2

#: (decentralized, centralized) pairing by position in the algorithm
#: list built by :func:`_algorithm_names`.
_PAIRS: tuple[tuple[int, int], ...] = ((2, 0), (3, 1))


def decentral_spec(p_per_type: int, num_types: int = DECENTRAL_NUM_TYPES) -> WorkloadSpec:
    """EP workload whose width tracks the system size.

    ``2 * P`` chains of 4-8 tasks keep per-type ready width around the
    processor count at every scale, which is the regime where the
    steal protocol (not raw capacity) decides the makespan.  The
    ``system`` field is nominal — the sweep overrides the sampled
    system with an explicit ``(P,) * K``.
    """
    return WorkloadSpec(
        family="ep",
        structure="random",
        system="small",
        num_types=num_types,
        params=EPParams(
            branches_range=(2 * p_per_type, 2 * p_per_type),
            chain_length_range=(4, 8),
            work_range=(1, 8),
        ),
    )


def clamp_decentral_instances(n_instances: int, p_per_type: int) -> int:
    """Instances to actually run at one ``P`` (large cells are clamped).

    A P=1024 instance is ~256x the work of a P=4 instance; dividing the
    instance budget keeps the sweep's wall time roughly flat per cell
    while leaving the small-P statistics at full strength.
    """
    if p_per_type <= 64:
        factor = 1
    elif p_per_type <= 256:
        factor = 2
    else:
        factor = 4
    return max(1, n_instances // factor)


def _algorithm_names(policy: StealPolicy) -> tuple[str, ...]:
    """Ordered algorithm list: centralized pair, then decentralized pair."""
    suffix = policy.suffix()
    return ("kgreedy", "mqb", "dkgreedy" + suffix, "dmqb" + suffix)


def _decentral_chunk(
    spec: WorkloadSpec,
    algorithms: tuple[str, ...],
    engines: tuple[Callable, ...],
    p_per_type: int,
    seed: int,
    start: int,
    stop: int,
    telemetry: Telemetry | None,
) -> np.ndarray:
    """Sweep chunk: ratios + overheads for instances ``start..stop-1``.

    Returns a ``(len(algorithms) + len(_PAIRS), stop - start)`` block:
    rows ``0..A-1`` are completion-time ratios ``T / L(J)`` per
    algorithm, rows ``A..`` are makespan overheads ``T_dec / T_cen``
    per :data:`_PAIRS` entry.
    """
    schedulers = [make_scheduler(name) for name in algorithms]
    system = ResourceConfig((p_per_type,) * spec.num_types)
    n_rows = len(algorithms) + len(_PAIRS)
    block = np.empty((n_rows, stop - start), dtype=np.float64)
    for j, i in enumerate(range(start, stop)):
        ss = np.random.SeedSequence([seed, i])
        inst_rng, *alg_seeds = ss.spawn(1 + len(schedulers))
        job = sample_job(spec, np.random.default_rng(inst_rng))
        makespans = []
        for a, sched in enumerate(schedulers):
            res = engines[a](
                job, system, sched,
                rng=np.random.default_rng(alg_seeds[a]), telemetry=telemetry,
            )
            makespans.append(res.makespan)
            block[a, j] = res.completion_time_ratio()
        for pi, (dec, cen) in enumerate(_PAIRS):
            block[len(schedulers) + pi, j] = makespans[dec] / makespans[cen]
    return block


def run_decentral_comparison(
    p_per_type: int,
    n_instances: int,
    seed: int,
    policy: StealPolicy | None = None,
    num_types: int = DECENTRAL_NUM_TYPES,
    n_workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    """One cell of the overhead sweep: all four algorithms at one ``P``.

    Returns ``{"ratio": {name: mean}, "overhead": {pair_label: mean},
    "n_instances": int}``.  Results are bit-identical for every
    ``n_workers``; per-instance columns are memoized under the full
    sweep fingerprint, so a resumed or re-scaled sweep only computes
    cache misses.
    """
    if p_per_type < 1:
        raise ConfigurationError(f"p_per_type must be >= 1, got {p_per_type}")
    policy = policy if policy is not None else StealPolicy()
    spec = decentral_spec(p_per_type, num_types)
    algorithms = _algorithm_names(policy)
    engines = tuple(plan_run(make_scheduler(name)) for name in algorithms)
    sweep = Sweep(
        decentral_fingerprint(
            spec, algorithms, p_per_type, seed, policy.fingerprint()
        ),
        len(algorithms) + len(_PAIRS),
        n_instances,
        partial(_decentral_chunk, spec, algorithms, engines, p_per_type, seed),
    )
    matrix = run_sweep(sweep, n_workers, telemetry)
    means = matrix.mean(axis=1)
    ratio = {name: float(means[a]) for a, name in enumerate(algorithms)}
    overhead = {
        f"{algorithms[dec]} / {algorithms[cen]}": float(means[len(algorithms) + pi])
        for pi, (dec, cen) in enumerate(_PAIRS)
    }
    return {"ratio": ratio, "overhead": overhead, "n_instances": n_instances}


def run_decentral(
    n_instances: int | None = None,
    seed: int = 2019,
    n_workers: int | None = None,
    policy: StealPolicy | None = None,
    p_grid: Sequence[int] | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Makespan overhead of decentralized scheduling vs processors per type.

    For each ``P`` in ``p_grid`` (default :data:`DECENTRAL_P_GRID`)
    runs centralized KGreedy/MQB against decentralized DKGreedy/DMQB on
    shared instances and plots the mean makespan overhead
    ``T_dec / T_cen`` plus the absolute completion-time ratios.
    ``n_instances`` is the budget at small ``P``; large-``P`` cells are
    clamped (see :func:`clamp_decentral_instances`).
    """
    n = n_instances or 8
    policy = policy if policy is not None else StealPolicy()
    grid = tuple(int(p) for p in (p_grid or DECENTRAL_P_GRID))
    algorithms = _algorithm_names(policy)

    cells = []
    for p in grid:
        n_p = clamp_decentral_instances(n, p)
        cells.append(
            (p, n_p, run_decentral_comparison(
                p, n_p, seed, policy=policy, n_workers=n_workers,
                telemetry=telemetry,
            ))
        )

    pair_labels = [f"{algorithms[d]} / {algorithms[c]}" for d, c in _PAIRS]
    overhead_series = {
        label: [cell[2]["overhead"][label] for cell in cells]
        for label in pair_labels
    }
    ratio_series = {
        name: [cell[2]["ratio"][name] for cell in cells]
        for name in algorithms
    }
    x = [p for p, _, _ in cells]
    return {
        "figure": "decentral",
        "title": (
            "Decentralized work stealing: makespan overhead vs processors "
            "per type (mean T_decentralized / T_centralized)"
        ),
        "kind": "lines",
        "metric": "mean",
        "panels": [
            {
                "name": "overhead",
                "label": "(a) Makespan overhead of decentralization",
                "x_label": "processors per type",
                "x": x,
                "series": overhead_series,
            },
            {
                "name": "ratio",
                "label": "(b) Completion-time ratio T / L(J)",
                "x_label": "processors per type",
                "x": x,
                "series": ratio_series,
            },
        ],
        "config": {
            "n_instances": n,
            "instances_per_p": {str(p): n_p for p, n_p, _ in cells},
            "seed": seed,
            "num_types": DECENTRAL_NUM_TYPES,
            "p_grid": list(grid),
            "steal": policy.fingerprint(),
            "algorithms": list(algorithms),
            "workload": "EP random, 2P chains of 4-8 tasks, work 1-8",
        },
    }
