"""Per-figure experiment definitions (paper Section V).

Every figure of the paper's evaluation has a ``run_figN`` function
returning a JSON-serializable dict; :data:`EXPERIMENTS` maps experiment
ids to them.  The two theory experiments (Lemma 1, Theorem 2) are
included as ``lemma1`` and ``thm2``.

Result dict shapes (consumed by :mod:`repro.experiments.report`):

* ``kind: "bars"`` — ``panels: [{name, label, series: [stats...]}]``
* ``kind: "lines"`` — ``panels: [{name, label, x_label, x: [...],
  series: {key: [mean per x]}}]``
* ``kind: "table"`` — ``columns: [...]``, ``rows: [[...], ...]``

Every sweep-backed figure runs through :func:`run_comparison` (or the
robustness runner) and therefore through the persistent result cache
(:mod:`repro.resultcache`): re-running a figure with the same
configuration is pure cache lookups, interrupting one loses at most
the in-flight chunk, and a larger ``n_instances`` re-uses every
instance the smaller run already computed (instance keys don't depend
on the sweep size).  The theory experiments (``lemma1``, ``thm2``)
are quick closed-form/Monte-Carlo loops and are not cached.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.telemetry import Telemetry
from repro.schedulers.registry import APPROX_INFO_ALGORITHMS, PAPER_ALGORITHMS
from repro.sim.engine import simulate
from repro.schedulers.registry import make_scheduler
from repro.system.resources import ResourceConfig
from repro.theory.bounds import (
    randomized_online_lower_bound,
    randomized_online_lower_bound_finite_m,
)
from repro.theory.lemma1 import (
    expected_draws_closed_form,
    expected_draws_exact,
    simulate_draws,
)
from repro.workloads.adversarial import adversarial_job, adversarial_optimal_makespan
from repro.workloads.generator import WORKLOAD_CELLS
from repro.experiments.decentral import run_decentral
from repro.experiments.energy import run_energy
from repro.experiments.robustness import run_robustness
from repro.experiments.runner import run_comparison
from repro.experiments.stream import run_stream

__all__ = ["EXPERIMENTS", "run_experiment"]

#: Default instance counts per figure; the paper used 5000 per point —
#: pass a larger ``n_instances`` to the CLI to match it exactly.
DEFAULT_INSTANCES = {
    "fig4": 300,
    "fig5": 120,
    "fig6": 300,
    "fig7": 80,
    "fig8": 200,
    "thm2": 60,
    "robustness": 40,
    "stream": 10,
    "decentral": 8,
    "energy": 12,
}

_FIG4_PANELS = [
    ("small-random-ep", "(a) Small Random EP"),
    ("medium-random-tree", "(b) Medium Random Tree"),
    ("medium-random-ir", "(c) Medium Random IR"),
    ("small-layered-ep", "(d) Small Layered EP"),
    ("medium-layered-tree", "(e) Medium Layered Tree"),
    ("medium-layered-ir", "(f) Medium Layered IR"),
]

_LAYERED_PANELS = [
    ("small-layered-ep", "(a) Small Layered EP"),
    ("medium-layered-tree", "(b) Medium Layered Tree"),
    ("medium-layered-ir", "(c) Medium Layered IR"),
]


def run_fig4(
    n_instances: int | None = None,
    seed: int = 2011,
    n_workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Fig. 4: the six algorithms on the six workload cells."""
    n = n_instances or DEFAULT_INSTANCES["fig4"]
    panels = []
    for cell, label in _FIG4_PANELS:
        stats = run_comparison(
            WORKLOAD_CELLS[cell], PAPER_ALGORITHMS, n, seed, n_workers=n_workers,
            telemetry=telemetry,
        )
        panels.append(
            {"name": cell, "label": label, "series": [s.to_dict() for s in stats]}
        )
    return {
        "figure": "fig4",
        "title": "Algorithm performance on various workloads (avg completion time ratio)",
        "kind": "bars",
        "metric": "mean",
        "panels": panels,
        "config": {"n_instances": n, "seed": seed},
    }


def run_fig5(
    n_instances: int | None = None,
    seed: int = 2012,
    n_workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Fig. 5: varying the number of resource types K from 1 to 6."""
    n = n_instances or DEFAULT_INSTANCES["fig5"]
    ks = list(range(1, 7))
    panels = []
    for cell, label in _LAYERED_PANELS:
        series: dict[str, list[float]] = {a: [] for a in PAPER_ALGORITHMS}
        for k in ks:
            spec = WORKLOAD_CELLS[cell].with_num_types(k)
            for s in run_comparison(
                spec, PAPER_ALGORITHMS, n, seed + k, n_workers=n_workers,
                telemetry=telemetry,
            ):
                series[s.key].append(s.mean)
        panels.append(
            {
                "name": cell,
                "label": label,
                "x_label": "K",
                "x": ks,
                "series": series,
            }
        )
    return {
        "figure": "fig5",
        "title": "Performance when varying the total types of resources K from 1 to 6",
        "kind": "lines",
        "metric": "mean",
        "panels": panels,
        "config": {"n_instances": n, "seed": seed},
    }


def run_fig6(
    n_instances: int | None = None,
    seed: int = 2013,
    n_workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Fig. 6: skewed load — type 0's processors cut to one fifth."""
    n = n_instances or DEFAULT_INSTANCES["fig6"]
    panels = []
    for cell, label in [
        ("medium-layered-tree", "(a) Medium Layered Tree"),
        ("medium-layered-ir", "(b) Medium Layered IR"),
    ]:
        spec = WORKLOAD_CELLS[cell].with_skew(5)
        stats = run_comparison(
            spec, PAPER_ALGORITHMS, n, seed, n_workers=n_workers,
            telemetry=telemetry,
        )
        panels.append(
            {"name": cell, "label": label, "series": [s.to_dict() for s in stats]}
        )
    return {
        "figure": "fig6",
        "title": "Impact of scheduling algorithms on jobs with skewed load",
        "kind": "bars",
        "metric": "mean",
        "panels": panels,
        "config": {"n_instances": n, "seed": seed, "skew_factor": 5},
    }


def run_fig7(
    n_instances: int | None = None,
    seed: int = 2014,
    n_workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Fig. 7: non-preemptive vs preemptive scheduling."""
    n = n_instances or DEFAULT_INSTANCES["fig7"]
    panels = []
    for cell, label in _LAYERED_PANELS:
        spec = WORKLOAD_CELLS[cell]
        np_stats = run_comparison(
            spec, PAPER_ALGORITHMS, n, seed, n_workers=n_workers,
            telemetry=telemetry,
        )
        p_stats = run_comparison(
            spec, PAPER_ALGORITHMS, n, seed, preemptive=True, n_workers=n_workers,
            telemetry=telemetry,
        )
        series = [s.to_dict() for s in np_stats] + [s.to_dict() for s in p_stats]
        panels.append({"name": cell, "label": label, "series": series})
    return {
        "figure": "fig7",
        "title": "Comparison of non-preemptive and preemptive scheduling",
        "kind": "bars",
        "metric": "mean",
        "panels": panels,
        "config": {"n_instances": n, "seed": seed},
    }


def run_fig8(
    n_instances: int | None = None,
    seed: int = 2015,
    n_workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Fig. 8: MQB with partial / imprecise descendant information."""
    n = n_instances or DEFAULT_INSTANCES["fig8"]
    panels = []
    for cell, label in _LAYERED_PANELS:
        stats = run_comparison(
            WORKLOAD_CELLS[cell], APPROX_INFO_ALGORITHMS, n, seed,
            n_workers=n_workers, telemetry=telemetry,
        )
        panels.append(
            {"name": cell, "label": label, "series": [s.to_dict() for s in stats]}
        )
    return {
        "figure": "fig8",
        "title": "KGreedy vs MQB with approximated information (avg and max ratio)",
        "kind": "bars",
        "metric": "mean+max",
        "panels": panels,
        "config": {"n_instances": n, "seed": seed},
    }


def run_lemma1(
    n_instances: int | None = None, seed: int = 2016, n_workers: int | None = None
) -> dict:
    """Lemma 1: closed form vs exact distribution vs Monte Carlo.

    ``n_workers`` is accepted for interface uniformity and ignored —
    the Monte Carlo draw is one vectorized numpy call, not an
    instance-sharded comparison.
    """
    trials = n_instances or 20000
    rng = np.random.default_rng(seed)
    rows = []
    for n, r in [(10, 2), (20, 5), (50, 5), (100, 10), (200, 3), (500, 25)]:
        closed = expected_draws_closed_form(n, r)
        exact = expected_draws_exact(n, r)
        mc = float(simulate_draws(n, r, trials, rng).mean())
        rows.append([n, r, round(closed, 4), round(exact, 4), round(mc, 4)])
    return {
        "figure": "lemma1",
        "title": "Lemma 1: expected draws to collect all r red balls of n",
        "kind": "table",
        "columns": ["n", "r", "closed form r/(r+1)(n+1)", "exact sum", "monte carlo"],
        "rows": rows,
        "config": {"trials": trials, "seed": seed},
    }


def run_thm2(
    n_instances: int | None = None, seed: int = 2017, n_workers: int | None = None
) -> dict:
    """Theorem 2: KGreedy on the adversarial family vs the lower bound.

    The empirical ratio uses the *known* offline optimum of the
    construction, ``T* = K - 1 + m P_K``; the bound column is the
    proof-form lower bound, which the empirical ratio should approach
    from above as m grows (KGreedy's FIFO draw matches the uniform-
    random draw of Lemma 1 because active tasks are placed uniformly).
    """
    n = n_instances or DEFAULT_INSTANCES["thm2"]
    rows = []
    for procs, m in [
        ((2, 2), 8),
        ((2, 2, 2), 8),
        ((3, 3, 3), 6),
        ((2, 3, 4), 6),
        ((2, 2, 2, 2), 6),
    ]:
        bound_inf = randomized_online_lower_bound(procs)
        bound_m = randomized_online_lower_bound_finite_m(procs, m)
        opt = adversarial_optimal_makespan(procs, m)
        ratios = []
        for i in range(n):
            rng = np.random.default_rng(np.random.SeedSequence([seed, len(rows), i]))
            job = adversarial_job(procs, m, rng)
            res = simulate(job, ResourceConfig(tuple(procs)), make_scheduler("kgreedy"))
            ratios.append(res.makespan / opt)
        rows.append(
            [
                str(procs),
                m,
                round(float(np.mean(ratios)), 3),
                round(bound_m, 3),
                round(bound_inf, 3),
                round(len(procs) + 1, 3),
            ]
        )
    return {
        "figure": "thm2",
        "title": "Theorem 2: KGreedy on the adversarial family (ratio vs T*)",
        "kind": "table",
        "columns": [
            "P",
            "m",
            "empirical KGreedy ratio",
            "bound at this m",
            "bound (m->inf)",
            "K+1 (KGreedy guarantee)",
        ],
        "rows": rows,
        "config": {"n_instances": n, "seed": seed},
    }


EXPERIMENTS: dict[str, Callable[..., dict]] = {
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "lemma1": run_lemma1,
    "thm2": run_thm2,
    "robustness": run_robustness,
    "stream": run_stream,
    "decentral": run_decentral,
    "energy": run_energy,
}


def run_experiment(
    name: str,
    n_instances: int | None = None,
    seed: int | None = None,
    n_workers: int | None = None,
    mtbf: float | None = None,
    mttr: float | None = None,
    fault_seed: int | None = None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Run one experiment by id (``fig4`` ... ``robustness``).

    The fault parameters (``mtbf``, ``mttr``, ``fault_seed``) only make
    sense for experiments that inject failures; passing one to any
    other experiment is a configuration error.  Likewise ``telemetry``
    (profiling) only applies to simulation sweeps — the theory
    experiments (``lemma1``, ``thm2``) reject it.
    """
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    kwargs: dict = {}
    if n_instances is not None:
        kwargs["n_instances"] = n_instances
    if seed is not None:
        kwargs["seed"] = seed
    if n_workers is not None:
        kwargs["n_workers"] = n_workers
    if mtbf is not None:
        kwargs["mtbf"] = mtbf
    if mttr is not None:
        kwargs["mttr"] = mttr
    if fault_seed is not None:
        kwargs["fault_seed"] = fault_seed
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    try:
        return fn(**kwargs)
    except TypeError as exc:
        if "unexpected keyword argument" not in str(exc):
            raise
        if "telemetry" in str(exc):
            raise ConfigurationError(
                f"experiment {name!r} does not support profiling"
            ) from None
        raise ConfigurationError(
            f"experiment {name!r} does not accept fault parameters "
            f"(--mtbf/--mttr/--fault-seed): {exc}"
        ) from None
