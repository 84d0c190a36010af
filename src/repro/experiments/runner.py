"""Generic paired-comparison executor for the experiment harness.

:func:`run_comparison` is the primitive every figure builds on: sample
``n_instances`` (job, system) pairs from a workload cell and run a list
of algorithms on *the same* instances, returning per-algorithm summary
statistics of the completion-time ratio ``T(J) / L(J)``.

Seeding: instance ``i`` of a comparison draws its job/system from
``SeedSequence([seed, i])`` and hands schedulers an independent
generator from the same sequence, so

* re-running with the same seed reproduces results bit-for-bit, and
* algorithms are compared on identical instances (paired design),
  which shrinks the variance of between-algorithm differences far
  below the paper's 5000-instance unpaired design at a fraction of
  the compute.

Because each instance's randomness is derived solely from ``(seed,
i)``, the comparison is a :class:`~repro.experiments.parallel.Sweep`
(:func:`comparison_sweep`) with one ratio row per algorithm, run by
:func:`~repro.experiments.parallel.run_sweep`: cached, resumable, and
bit-for-bit identical for every worker count.

Scheduler instances are constructed once per chunk and reused across
its instances — :meth:`~repro.schedulers.base.Scheduler.prepare`
fully resets per-run state (guaranteed by
``tests/experiments/test_runner.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.capabilities import plan_run
from repro.experiments.parallel import Sweep, resolve_workers, run_sweep
from repro.obs.telemetry import Telemetry
from repro.resultcache.keys import comparison_fingerprint
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import make_scheduler
from repro.workloads.generator import sample_instance
from repro.workloads.params import WorkloadSpec

__all__ = ["SeriesStats", "comparison_sweep", "run_comparison"]


def resolve_engine() -> str:
    """The engine sweeps run on: always ``"scalar"``.

    The per-instance event loop, with its native whole-run mirror, is
    the only one; ``perfbench/run.py`` records this name in its report.
    """
    return "scalar"


@dataclass(frozen=True)
class SeriesStats:
    """Summary of one algorithm's completion-time ratios over a cell."""

    key: str
    mean: float
    maximum: float
    std: float
    stderr: float
    n: int

    def to_dict(self) -> dict:
        """Plain-dict form for JSON persistence."""
        return {
            "key": self.key,
            "mean": self.mean,
            "max": self.maximum,
            "std": self.std,
            "stderr": self.stderr,
            "n": self.n,
        }


def _instance_ratios(
    spec: WorkloadSpec,
    schedulers: Sequence[Scheduler],
    engines: Sequence[Callable],
    i: int,
    seed: int,
    out: np.ndarray,
    telemetry: Telemetry | None = None,
) -> None:
    """Run all algorithms on instance ``i``; write ratios into ``out``.

    All randomness derives from ``SeedSequence([seed, i])``, making
    this the shardable unit of a comparison: any partition of the
    instance range over any number of processes reproduces the exact
    serial results.  ``telemetry`` rides along into the engines and
    never influences them; results are identical with or without it.
    """
    ss = np.random.SeedSequence([seed, i])
    inst_rng, *alg_seeds = ss.spawn(1 + len(schedulers))
    if telemetry is None or not telemetry.enabled:
        job, system = sample_instance(spec, np.random.default_rng(inst_rng))
    else:
        with telemetry.timer("phase.sample_instance"):
            job, system = sample_instance(spec, np.random.default_rng(inst_rng))
        telemetry.inc("sweep.instances")
    for a, scheduler in enumerate(schedulers):
        result = engines[a](
            job, system, scheduler, rng=np.random.default_rng(alg_seeds[a]),
            telemetry=telemetry,
        )
        out[a] = result.completion_time_ratio()


def _ratio_chunk(
    spec: WorkloadSpec,
    algorithms: tuple[str, ...],
    engines: tuple[Callable, ...],
    seed: int,
    start: int,
    stop: int,
    telemetry: Telemetry | None,
) -> np.ndarray:
    """Comparison chunk: the ratio block of instances ``start..stop-1``.

    Constructs its own schedulers (scheduler instances are reusable
    across instances but not picklable in general).
    """
    schedulers = [make_scheduler(name) for name in algorithms]
    block = np.empty((len(algorithms), stop - start), dtype=np.float64)
    for j, i in enumerate(range(start, stop)):
        _instance_ratios(
            spec, schedulers, engines, i, seed, block[:, j],
            telemetry=telemetry,
        )
    return block


def comparison_sweep(
    spec: WorkloadSpec,
    algorithms: Sequence[str],
    n_instances: int,
    seed: int,
    preemptive: bool = False,
    quantum: float = 1.0,
) -> Sweep:
    """The paired comparison as a :class:`~repro.experiments.parallel.Sweep`.

    One completion-time-ratio row per algorithm, each planned here
    (:func:`~repro.capabilities.plan_run`), before any work.
    """
    algorithms = tuple(algorithms)
    engines = tuple(
        plan_run(make_scheduler(name), preemptive=preemptive)
        for name in algorithms
    )
    if preemptive:
        engines = tuple(partial(engine, quantum=quantum) for engine in engines)
    return Sweep(
        comparison_fingerprint(spec, algorithms, seed, preemptive, quantum),
        len(algorithms),
        n_instances,
        partial(_ratio_chunk, spec, algorithms, engines, seed),
    )


def _stats_from_ratios(
    algorithms: Sequence[str], ratios: np.ndarray, preemptive: bool
) -> list[SeriesStats]:
    """Collapse the ``(n_algorithms, n_instances)`` ratio matrix."""
    n_instances = ratios.shape[1]
    out: list[SeriesStats] = []
    suffix = " (P)" if preemptive else ""
    for a, name in enumerate(algorithms):
        row = ratios[a]
        std = float(row.std(ddof=1)) if n_instances > 1 else 0.0
        out.append(
            SeriesStats(
                key=f"{name}{suffix}",
                mean=float(row.mean()),
                maximum=float(row.max()),
                std=std,
                stderr=std / float(np.sqrt(n_instances)),
                n=n_instances,
            )
        )
    return out


def run_comparison(
    spec: WorkloadSpec,
    algorithms: Sequence[str],
    n_instances: int,
    seed: int,
    preemptive: bool = False,
    quantum: float = 1.0,
    n_workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> list[SeriesStats]:
    """Run ``algorithms`` over ``n_instances`` shared instances of ``spec``.

    Returns one :class:`SeriesStats` per algorithm, in input order.
    ``preemptive`` selects the preemptive event engine; keys are
    suffixed with ``" (P)"`` in that case so mixed comparisons stay
    unambiguous.

    ``n_workers`` selects how many worker processes shard the instance
    loop (``None`` defers to ``REPRO_WORKERS``, defaulting to serial).
    Results are identical for every worker count.

    ``telemetry`` enables profiling (:mod:`repro.obs`): engine phase
    timers, per-scheduler decision costs and sweep counters accumulate
    into it.  Sharded sweeps profile per worker chunk and merge the
    snapshots, so counter totals are identical for every worker count
    (timer totals are wall-clock facts of the actual run).  Events are
    only collected in-process: a parallel sweep records aggregates,
    not per-event streams.

    Instance results are memoized persistently by
    :mod:`repro.resultcache` (disable with ``REPRO_CACHE=0``): hits
    are filled first, and each fresh instance is persisted as its
    chunk lands — per instance for one worker — so a re-run is pure
    lookups and an interrupted sweep resumes where it stopped.  Cached
    columns are bit-identical to recomputed ones, so results — cached,
    fresh, or mixed — are the same for every worker count and cache
    state.
    """
    workers = resolve_workers(n_workers)
    sweep = comparison_sweep(
        spec, algorithms, n_instances, seed, preemptive, quantum
    )
    ratios = run_sweep(sweep, workers, telemetry)
    return _stats_from_ratios(algorithms, ratios, preemptive)
