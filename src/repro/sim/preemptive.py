"""Quantum-stepped preemptive simulation of a K-DAG on an FHS.

The paper's preemptive mode (Section IV, last paragraph; Section V-F):
"a preemptive scheduler makes decisions for each processor at the
beginning of every scheduling quantum, and a task can be preempted at
one processor and reallocated to another", with reallocation overhead
ignored.

Implementation: at every quantum boundary each running task is returned
to the scheduler's ready pool carrying its *remaining* work, and the
scheduler reassigns all ``P_alpha`` processors of every type from the
merged pool.  A task whose remaining work is below one quantum
completes mid-quantum; its processor stays idle until the next boundary
(with the default integer work and quantum 1 this never loses time).

Because selections repeat every quantum the cost per run is
``O((makespan / quantum) * selection_cost)`` — fine for the paper's
job sizes, and the honest price of modeling preemption faithfully.

The same loop exists once more, in C
(:meth:`repro.native.MQBKernel.run_preemptive`), behind
:func:`repro.sim.engine.simulate`'s gate: a static-priority or MQB
scheduler with a row kind, a loaded kernel and no event stream.  It
mirrors this loop's orders statement for statement and reports the
same counters and timers; this loop, in Python, stays the reference
and the path for every other scheduler.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.kdag import KDag
from repro.errors import SchedulingError
from repro.obs.events import SLICE
from repro.obs.telemetry import Telemetry
from repro.schedulers.base import Scheduler
from repro.sim.engine import _native_plan, _native_trace, _note_native_run, _prepare
from repro.sim.result import ScheduleResult
from repro.sim.trace import ScheduleTrace
from repro.system.resources import ResourceConfig

__all__ = ["simulate_preemptive"]

#: Safety valve: quanta per run before declaring the scheduler stuck.
_MAX_QUANTA_FACTOR = 64


def simulate_preemptive(
    job: KDag,
    resources: ResourceConfig,
    scheduler: Scheduler,
    rng: np.random.Generator | None = None,
    quantum: float = 1.0,
    record_trace: bool = False,
    telemetry: Telemetry | None = None,
) -> ScheduleResult:
    """Run ``scheduler`` on ``job`` with quantum-based preemption.

    See the module docstring for semantics; parameters mirror
    :func:`repro.sim.engine.simulate` plus ``quantum``.
    """
    if quantum <= 0 or not np.isfinite(quantum):
        raise SchedulingError(f"quantum must be positive and finite, got {quantum}")
    obs = _prepare(job, resources, scheduler, rng, telemetry)
    k = job.num_types
    n = job.n_tasks
    types = job.types
    # Upper bound on quanta: serializing all work on one processor per
    # type is at most total_work / quantum rounds; multiply for slack.
    budget = int(_MAX_QUANTA_FACTOR * (float(job.work.sum()) / quantum + n + 1))

    plan = _native_plan(job, scheduler, obs)
    if plan is not None:
        kernel, kind, state = plan
        _t_loop = perf_counter() if obs is not None else 0.0
        run = kernel.run_preemptive(
            kind, job, resources.counts, quantum, budget,
            record_trace=record_trace, timing=obs is not None, **state,
        )
        if run.failed is not None:
            raise _failure(scheduler.name, *run.failed)
        if obs is not None:
            _note_native_run(
                obs, scheduler.name, kind, n, run, run.dispatched, _t_loop
            )
        return ScheduleResult(
            makespan=run.makespan,
            scheduler=scheduler.name,
            job=job,
            resources=resources,
            preemptive=True,
            trace=_native_trace(job, run.trace),
            decisions=run.decisions,
        )

    indeg = job.in_degrees()
    remaining = job.work.copy()
    state = np.zeros(n, dtype=np.int8)  # 0 pending, 1 queued, 3 done
    trace = ScheduleTrace() if record_trace else None

    completed = 0
    decisions = 0
    now = 0.0
    makespan = 0.0

    for v in job.sources():
        vi = int(v)
        state[vi] = 1
        scheduler.task_ready(vi, now, float(remaining[vi]))

    assign = scheduler.assign if obs is None else scheduler.on_decision
    _t_loop = perf_counter() if obs is not None else 0.0

    free_template = list(resources.counts)
    while completed < n:
        if budget <= 0:
            raise _failure(scheduler.name, "budget", now, n - completed)
        budget -= 1

        if not any(scheduler.pending(a) for a in range(k)):
            raise _failure(scheduler.name, "stalled", now, n - completed)

        decisions += 1
        chosen = assign(list(free_template), now)
        if not chosen:
            raise _failure(scheduler.name, "idle", now, n - completed)
        counts = [0] * k
        newly_done: list[int] = []
        seen_round: set[int] = set()
        for task in chosen:
            if task in seen_round:
                raise SchedulingError(
                    f"{scheduler.name} started task {task} twice in one round"
                )
            seen_round.add(task)
            if state[task] != 1:
                raise SchedulingError(
                    f"{scheduler.name} started task {task} in state "
                    f"{int(state[task])} (not queued)"
                )
            alpha = int(types[task])
            proc = counts[alpha]
            counts[alpha] += 1
            if counts[alpha] > resources.counts[alpha]:
                raise SchedulingError(
                    f"{scheduler.name} oversubscribed type {alpha} in "
                    f"preemptive round at t={now}"
                )
            run = min(quantum, float(remaining[task]))
            if trace is not None:
                trace.add(task, alpha, proc, now, now + run)
            if obs is not None:
                obs.emit(SLICE, now, task=task, alpha=alpha, proc=proc,
                         end=now + run)
            remaining[task] -= run
            if remaining[task] <= 1e-12:
                state[task] = 3
                newly_done.append(task)
                if now + run > makespan:
                    makespan = now + run
            else:
                # Stays queued; re-announce with updated remaining work so
                # queue-length-tracking schedulers (MQB) stay accurate.
                scheduler.task_ready(task, now + run, float(remaining[task]))

        now += quantum
        for task in newly_done:
            completed += 1
            scheduler.task_finished(task, now)
            for c in job.children(task):
                ci = int(c)
                indeg[ci] -= 1
                if indeg[ci] == 0:
                    state[ci] = 1
                    scheduler.task_ready(ci, now, float(remaining[ci]))

    if obs is not None:
        obs.add_time("phase.engine_loop", perf_counter() - _t_loop)
        obs.inc("engine.runs")
        obs.inc("engine.tasks", n)
        obs.inc("engine.decisions", decisions)

    return ScheduleResult(
        makespan=makespan,
        scheduler=scheduler.name,
        job=job,
        resources=resources,
        preemptive=True,
        trace=trace,
        decisions=decisions,
    )


def _failure(name: str, kind: str, now: float, unfinished: int) -> SchedulingError:
    """The error of a run that overran its budget (``"budget"``), found
    every queue empty (``"stalled"``) or chose nothing (``"idle"``)."""
    if kind == "budget":
        return SchedulingError(
            f"{name} exceeded the quantum budget — scheduler is not work conserving"
        )
    if kind == "stalled":
        return SchedulingError(
            f"{name} stalled at t={now}: {unfinished} unfinished, empty queues"
        )
    return SchedulingError(f"{name} assigned nothing at t={now} with work pending")
