"""Non-preemptive event-driven simulation of a K-DAG on an FHS.

Semantics (paper Section V-A, non-preemptive default):

* All processors run at unit speed; an ``alpha``-task with work ``w``
  occupies one ``alpha``-processor for exactly ``w`` time units.
* A task becomes ready the instant its last parent completes; sources
  are ready at time 0.
* Scheduling decisions happen whenever at least one processor is idle
  and at least one matching task is ready (i.e. at time 0 and at every
  completion instant).  Once started, a task runs to completion.
* Decision, dispatch and completion handling are free (no overhead),
  as in the paper's simulator.

The engine is event driven rather than tick driven: it advances
directly to the next completion instant, so the cost per run is
``O(n log n + n * selection_cost)`` independent of work magnitudes.

This is the repository's one non-preemptive list-scheduling loop.
:func:`simulate` runs it bare.  :func:`repro.faults.simulate_with_faults`
runs it with a *seam* that feeds processor failures and repairs
through it.  The degenerate work-stealing policy is :func:`simulate`
itself, with its steal accounting read off the trace afterwards.

The same loop exists once more, in C (:meth:`repro.native.MQBKernel.run`).
:func:`simulate` hands it the whole run when ``REPRO_NATIVE`` allows
the kernel and it loads, the scheduler has a row kind
(:func:`repro.capabilities.row_kind`: a static-priority or MQB
scheduler whose protocol is its family's own) and no event stream
watches the run.  The C loop reads the prepared key vector or
descendant matrix instead of calling the protocol, mirrors the Python
loop's orders statement for statement, and reports the same counters
and timers.  This loop, in Python, stays the reference and the only
path for seams, event streams and overridden protocols.

The seam is resolved once before the loop, like ``obs`` and
``assign``; a fault-free run passes ``None`` and executes the bare
loop's statements.  A seam object provides:

* ``bind(state, work, free, free_procs, events, trace, obs)`` — called
  once, after the sources are ready and before the first decision
  round.  The seam may change the loop's lists in place (take
  processors down, shrink remaining ``work``) and push heap entries
  ``(time, key, a, b)`` whose ``key`` is above every dispatch's
  sequence number, so at one instant completions pop first.
* ``started(task, alpha, proc, now, seq)`` — after each dispatch.  The
  dispatch's trace segment (if recorded) has index ``seq``.
* ``popped(key, a, b, now)`` — for every popped heap entry.  It
  returns -1 for a live completion, which the loop then finishes;
  otherwise the entry was the seam's own (or a completion it
  cancelled), and it returns how many tasks it put back in the ready
  pool.
* ``up`` (per-type up counts, for SAMPLE events) and ``stall_note()``
  (appended to the stall error).

With a seam, SLICE events are the seam's to emit when an interval
closes, since a failure may yet cut it short.
"""

from __future__ import annotations

import heapq
from time import perf_counter

import numpy as np

from repro import native as _native
from repro.capabilities import row_kind
from repro.core.kdag import KDag
from repro.errors import SchedulingError
from repro.obs.events import COMPLETE, DECISION, SAMPLE, SLICE
from repro.obs.telemetry import Telemetry
from repro.schedulers.base import Scheduler
from repro.sim.result import ScheduleResult
from repro.sim.trace import ScheduleTrace, Segment
from repro.system.resources import ResourceConfig

__all__ = ["simulate"]


def simulate(
    job: KDag,
    resources: ResourceConfig,
    scheduler: Scheduler,
    rng: np.random.Generator | None = None,
    record_trace: bool = False,
    telemetry: Telemetry | None = None,
) -> ScheduleResult:
    """Run ``scheduler`` on ``job`` non-preemptively; return the result.

    Parameters
    ----------
    job, resources:
        The K-DAG and the processor counts (must agree on K).
    scheduler:
        Any :class:`~repro.schedulers.base.Scheduler`; it is
        ``prepare()``-d here, so instances may be reused across runs.
    rng:
        Passed to ``scheduler.prepare`` for stochastic information
        models (MQB+Exp / MQB+Noise).  Deterministic schedulers ignore it.
    record_trace:
        When true, the result carries a full :class:`ScheduleTrace`
        (one segment per task).
    telemetry:
        Observability context (:mod:`repro.obs`).  ``None`` or a
        disabled context keeps the run bit-identical to an
        uninstrumented engine; an enabled one records phase timers,
        decision costs, heap stats and — when it carries an event
        stream — slice/decision/sample events.

    Raises
    ------
    SchedulingError
        If the scheduler starts an unready/duplicate task or stalls
        (no running tasks, pending work, but no assignment) — all six
        library schedulers are work conserving and never trigger this.
    """
    obs = _prepare(job, resources, scheduler, rng, telemetry)
    plan = _native_plan(job, scheduler, obs)
    if plan is not None:
        return _native_run(job, resources, scheduler, record_trace, obs, *plan)
    return _list_schedule(job, resources, scheduler, record_trace, obs, None)


def _prepare(
    job: KDag,
    resources: ResourceConfig,
    scheduler: Scheduler,
    rng: np.random.Generator | None,
    telemetry: Telemetry | None,
) -> Telemetry | None:
    """Resolve observability once, attach it and prepare ``scheduler``.

    Returns the enabled telemetry or ``None``; the loops below never
    re-check it.  The prepare time counts under ``phase.prepare`` and
    under ``prepare.<scheduler>``, which names the offline passes'
    owner in ``repro profile``.
    """
    obs = telemetry if (telemetry is not None and telemetry.enabled) else None
    scheduler.attach_telemetry(obs)
    if obs is None:
        scheduler.prepare(job, resources, rng)
    else:
        _t0 = perf_counter()
        scheduler.prepare(job, resources, rng)
        elapsed = perf_counter() - _t0
        obs.add_time("phase.prepare", elapsed)
        obs.add_time("prepare." + scheduler.name, elapsed)
    return obs


def _native_plan(
    job: KDag, scheduler: Scheduler, obs: Telemetry | None
) -> tuple | None:
    """``(kernel, kind, state)`` for a whole run in the native kernel, or
    ``None`` for the Python loop.

    The gate of :func:`simulate` and
    :func:`repro.sim.preemptive.simulate_preemptive`: ``REPRO_NATIVE``
    allows the kernel, no event stream watches the run, the prepared
    scheduler has a row kind (:func:`repro.capabilities.row_kind`), the
    kernel loads and, for MQB, supports its balance mode at this K.  A
    kernel that cannot load counts one ``native.fallbacks`` per run:
    here for static rows, in ``MQB.prepare`` for MQB rows.  ``state``
    holds the keyword arguments the kernel's run methods take for
    ``kind``.
    """
    if (obs is not None and obs.events is not None) or not _native.requested():
        return None
    kind = row_kind(scheduler)
    if kind is None:
        return None
    # The row kind vouches for the prepared state read below.
    state = vars(scheduler)
    if kind == "mqb":
        mode = state["_balance_mode"]
        if not _native.supported(mode, job.num_types):
            return None
        kernel = _native.load_kernel()
        state = {"d": state["_d"], "mode": mode, "carry": state["_carry"]}
    else:
        kernel = _native.load_kernel()
        if kernel is None:
            _native.note_fallback(obs)
        state = {"keys": state["keys"]}
    if kernel is None:
        return None
    return kernel, kind, state


def _native_trace(job: KDag, arrays: tuple | None) -> ScheduleTrace | None:
    """A native run's ``(task, proc, start, end)`` arrays as a trace."""
    if arrays is None:
        return None
    tasks, procs, starts, ends = (a.tolist() for a in arrays)
    alphas = job.types[arrays[0]].tolist()
    return ScheduleTrace(
        segments=list(map(Segment, tasks, alphas, procs, starts, ends))
    )


def _note_native_run(
    obs: Telemetry, name: str, n: int, run, dispatched: int, t_loop: float
) -> None:
    """The Python loop's counters and timers for a native run (which
    reports ``decisions``, ``decision_s`` and ``picks``), plus
    ``native.runs``."""
    obs.add_time("phase.engine_loop", perf_counter() - t_loop)
    if run.decisions:
        obs.add_time("decision." + name, run.decision_s, run.decisions)
        obs.inc("decisions." + name, run.decisions)
        obs.inc("dispatched." + name, dispatched)
    if run.picks:
        obs.inc("native.calls", run.picks)
    obs.inc("native.runs")
    obs.inc("engine.runs")
    obs.inc("engine.tasks", n)
    obs.inc("engine.decisions", run.decisions)


def _native_run(
    job: KDag,
    resources: ResourceConfig,
    scheduler: Scheduler,
    record_trace: bool,
    obs: Telemetry | None,
    kernel,
    kind: str,
    state: dict,
) -> ScheduleResult:
    """The whole run in the native kernel, as :func:`_native_plan`
    planned it; reports the counters and timers of the Python loop
    (DESIGN.md, "Native whole-run loop")."""
    _t_loop = perf_counter() if obs is not None else 0.0
    run = kernel.run(
        kind, job, resources.counts, record_trace=record_trace,
        timing=obs is not None, **state,
    )
    if run.stalled is not None:
        now, n_ready, unfinished = run.stalled
        raise SchedulingError(
            f"{scheduler.name} stalled at t={now}: {n_ready} ready, "
            f"{unfinished} unfinished, nothing running"
        )
    if obs is not None:
        _note_native_run(obs, scheduler.name, job.n_tasks, run, job.n_tasks, _t_loop)
        obs.inc("engine.events_pushed", run.events_pushed)
        obs.observe("engine.heap_peak", run.heap_peak)
    return ScheduleResult(
        makespan=run.makespan,
        scheduler=scheduler.name,
        job=job,
        resources=resources,
        preemptive=False,
        trace=_native_trace(job, run.trace),
        decisions=run.decisions,
    )


def _list_schedule(
    job: KDag,
    resources: ResourceConfig,
    scheduler: Scheduler,
    record_trace: bool,
    obs: Telemetry | None,
    seam,
) -> ScheduleResult:
    """The Python loop behind :func:`simulate` (``seam=None``) and the
    fault-aware engine, for a scheduler :func:`_prepare` has prepared;
    the seam protocol is in the module docstring."""
    k = job.num_types
    n = job.n_tasks
    # The decision/completion loop is pure Python; bind the per-task
    # attributes as flat lists (and the child adjacency as flat CSR
    # lists) once, so the inner loops do list indexing instead of numpy
    # scalar extraction and per-node slice objects.
    types = job.types.tolist()
    work = job.work.tolist()
    child_ptr = job.child_ptr.tolist()
    child_idx = job.child_idx.tolist()

    indeg = job.in_degrees().tolist()
    state = [0] * n  # 0 pending, 1 ready, 2 running, 3 done
    free = list(resources.counts)
    free_procs: list[list[int]] = [list(range(c - 1, -1, -1)) for c in resources.counts]
    trace = ScheduleTrace() if record_trace else None

    # Completion events: (finish_time, seq, task, proc). seq keeps heap
    # comparisons away from task-id ties and makes pop order stable.
    events: list[tuple[float, int, int, int]] = []
    seq = 0
    n_ready = 0
    completed = 0
    decisions = 0
    now = 0.0
    makespan = 0.0

    for v in job.sources():
        vi = int(v)
        state[vi] = 1
        n_ready += 1
        scheduler.task_ready(vi, now, work[vi])

    # A seam run leaves SLICE events to the seam.
    slices = obs
    if seam is not None:
        seam.bind(state, work, free, free_procs, events, trace, obs)
        slices = None

    # With observability on, decisions route through the timing wrapper
    # (chosen per run, not per round) and the loop tracks heap depth.
    assign = scheduler.assign if obs is None else scheduler.on_decision
    heap_peak = 0
    _t_loop = perf_counter() if obs is not None else 0.0

    heappush, heappop = heapq.heappush, heapq.heappop
    while completed < n:
        # ---- decision round at time `now` ----
        if n_ready and any(
            free[a] and scheduler.pending(a) for a in range(k)
        ):
            decisions += 1
            chosen = assign(free, now)
            counts_this_round = [0] * k
            for task in chosen:
                if state[task] != 1:
                    raise SchedulingError(
                        f"{scheduler.name} started task {task} in state "
                        f"{state[task]} (not ready)"
                    )
                alpha = types[task]
                counts_this_round[alpha] += 1
                if counts_this_round[alpha] > free[alpha]:
                    raise SchedulingError(
                        f"{scheduler.name} oversubscribed type {alpha} "
                        f"({counts_this_round[alpha]} > {free[alpha]} free)"
                    )
                state[task] = 2
                n_ready -= 1
                proc = free_procs[alpha].pop()
                finish = now + work[task]
                heappush(events, (finish, seq, task, proc))
                if seam is not None:
                    seam.started(task, alpha, proc, now, seq)
                seq += 1
                if trace is not None:
                    trace.add(task, alpha, proc, now, finish)
                if slices is not None:
                    slices.emit(SLICE, now, task=task, alpha=alpha, proc=proc,
                                end=finish)
            for alpha, c in enumerate(counts_this_round):
                free[alpha] -= c
            if obs is not None:
                obs.emit(DECISION, now, n=len(chosen))
                if len(events) > heap_peak:
                    heap_peak = len(events)

        if obs is not None:
            ready = [scheduler.pending(a) for a in range(k)]
            if seam is None:
                obs.emit(SAMPLE, now, ready=ready, free=list(free))
            else:
                obs.emit(SAMPLE, now, ready=ready, free=list(free),
                         up=list(seam.up))

        # `completed < n` guarantees unfinished work, so an empty event
        # heap here means the scheduler left ready tasks unassigned (or
        # a seam holds capable processors down with no repair left).
        if not events:
            raise SchedulingError(
                f"{scheduler.name} stalled at t={now}: {n_ready} ready, "
                f"{n - completed} unfinished, nothing running"
                + ("" if seam is None else seam.stall_note())
            )

        # ---- advance to the next event instant ----
        now = events[0][0]
        while events and events[0][0] == now:
            _, key, task, proc = heappop(events)
            if seam is not None:
                readied = seam.popped(key, task, proc, now)
                if readied >= 0:
                    n_ready += readied
                    continue
            state[task] = 3
            completed += 1
            alpha = types[task]
            free[alpha] += 1
            free_procs[alpha].append(proc)
            makespan = now
            if obs is not None:
                obs.emit(COMPLETE, now, task=task, alpha=alpha, proc=proc)
            scheduler.task_finished(task, now)
            for ei in range(child_ptr[task], child_ptr[task + 1]):
                ci = child_idx[ei]
                left = indeg[ci] - 1
                indeg[ci] = left
                if left == 0:
                    state[ci] = 1
                    n_ready += 1
                    scheduler.task_ready(ci, now, work[ci])

    if obs is not None:
        obs.add_time("phase.engine_loop", perf_counter() - _t_loop)
        obs.inc("engine.runs")
        obs.inc("engine.tasks", n)
        obs.inc("engine.decisions", decisions)
        obs.inc("engine.events_pushed", seq)
        obs.observe("engine.heap_peak", heap_peak)

    return ScheduleResult(
        makespan=makespan,
        scheduler=scheduler.name,
        job=job,
        resources=resources,
        preemptive=False,
        trace=trace,
        decisions=decisions,
    )
