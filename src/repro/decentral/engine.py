"""Decentralized work-stealing execution engine.

Each processor owns a local deque of ready tasks of its own functional
type.  A processor that completes a task immediately starts the best
task in its own deque (per the scheduler's :meth:`pick_local` policy);
an idle processor with an empty deque makes one steal attempt per
decision instant against a uniformly random *other* processor of its
type.  Placement of newly ready tasks is local too: a child of the same
type as its completing parent lands in the completing processor's deque
(chain locality); cross-type children and sources are spread
round-robin over the target type's processors.

Two policies share this module:

* **Degenerate limit** (``StealPolicy(victims="global", cost=0)``): all
  same-type deques merge into one shared pool, which is exactly the
  centralized model — so the run *is* :func:`~repro.sim.engine.simulate`,
  driving the scheduler through the standard ``assign`` protocol.  For
  DKGreedy that protocol is KGreedy's and for DMQB it is MQB's, so the
  degenerate limit is bit-identical (makespan, trace, decision counts)
  to the centralized engine by construction.  Steal accounting runs
  afterwards, under enabled telemetry only, from the run's trace:
  starting a task on a processor other than the deque it would have
  occupied counts as a zero-cost steal from the shared pool.
* **Stealing loop** (``victims="random"``): true per-processor deques,
  in a loop of its own (each processor pulls from its own deque through
  ``pick_local``; there is no ``assign`` round).
  The event heap holds completion events and — when ``cost > 0`` —
  steal-resolution events; a globally unique push sequence keeps heap
  order deterministic.  All victim randomness comes from the single
  ``rng`` argument, so the experiment harness's paired per-algorithm
  seed streams already make runs reproducible and cache keys sound.

Determinism: identical (job, resources, scheduler, rng state) produce
identical results, traces and steal-event sequences, with telemetry
enabled or disabled — victim draws never branch on observability.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from time import perf_counter

import numpy as np

from repro.core.kdag import KDag
from repro.decentral.schedulers import DecentralScheduler
from repro.errors import ConfigurationError, SchedulingError
from repro.obs.events import COMPLETE, DECISION, SAMPLE, SLICE, STEAL
from repro.obs.telemetry import Telemetry
from repro.schedulers.base import Scheduler
from repro.sim.engine import simulate
from repro.sim.result import ScheduleResult
from repro.sim.trace import ScheduleTrace
from repro.system.resources import ResourceConfig

__all__ = ["simulate_decentralized"]

# Event-kind tags inside the heap tuples of the stealing loop.
_EV_COMPLETE = 0
_EV_STEAL = 1


def simulate_decentralized(
    job: KDag,
    resources: ResourceConfig,
    scheduler: Scheduler,
    rng: np.random.Generator | None = None,
    record_trace: bool = False,
    telemetry: Telemetry | None = None,
) -> ScheduleResult:
    """Run a decentralized scheduler over per-processor deques.

    Parameters mirror :func:`~repro.sim.engine.simulate`; ``rng``
    additionally drives victim selection, so it is required for
    reproducible steal sequences (``None`` falls back to a fixed seed).

    Raises
    ------
    ConfigurationError
        If ``scheduler`` is not a :class:`DecentralScheduler`.
    SchedulingError
        On protocol violations or a stalled run (same contract as the
        centralized engine).
    """
    if not isinstance(scheduler, DecentralScheduler):
        raise ConfigurationError(
            "simulate_decentralized needs a decentralized scheduler "
            f"(dkgreedy/dmqb family), got {getattr(scheduler, 'name', scheduler)!r}"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    obs = telemetry if (telemetry is not None and telemetry.enabled) else None
    if scheduler.steal_policy.is_degenerate:
        res = simulate(
            job, resources, scheduler, rng=rng,
            record_trace=record_trace or obs is not None, telemetry=telemetry,
        )
        if obs is None:
            return res
        _degenerate_steals(job, resources, res, obs)
        return res if record_trace else replace(res, trace=None)
    scheduler.attach_telemetry(obs)
    if obs is None:
        scheduler.prepare(job, resources, rng)
    else:
        _t0 = perf_counter()
        scheduler.prepare(job, resources, rng)
        obs.add_time("phase.prepare", perf_counter() - _t0)
    return _run_stealing(job, resources, scheduler, rng, record_trace, obs)


def _finish_obs(obs, busy, makespan):
    """Telemetry both policies add to the engine's own."""
    obs.inc("decentral.runs")
    for per_type in busy:
        for b in per_type:
            obs.observe("decentral.proc_idle", makespan - b)


def _degenerate_steals(job, resources, result, obs):
    """Steal accounting of a shared-pool run, replayed from its trace.

    ``home[v]`` is the deque task ``v`` would occupy under the
    decentralized placement rule: sources and cross-type children
    spread round-robin over their type's processors, and a same-type
    child stays on its parent's processor.  ``simulate()`` readies the
    sources in order, then each completing task's children in child
    order, with completions popping in (finish, dispatch) order; trace
    segments are in dispatch order.
    """
    types = job.types.tolist()
    work = job.work.tolist()
    child_ptr = job.child_ptr.tolist()
    child_idx = job.child_idx.tolist()
    indeg = job.in_degrees().tolist()
    counts = resources.counts
    segments = result.trace.segments
    home = [0] * job.n_tasks
    spread = [0] * job.num_types
    for v in job.sources().tolist():
        alpha = types[v]
        home[v] = spread[alpha] % counts[alpha]
        spread[alpha] += 1
    for i in sorted(range(len(segments)), key=lambda i: (segments[i].end, i)):
        seg = segments[i]
        for ei in range(child_ptr[seg.task], child_ptr[seg.task + 1]):
            ci = child_idx[ei]
            indeg[ci] -= 1
            if indeg[ci] == 0:
                ca = types[ci]
                if ca == seg.alpha:
                    home[ci] = seg.proc
                else:
                    home[ci] = spread[ca] % counts[ca]
                    spread[ca] += 1

    busy = [[0.0] * c for c in counts]
    steals = 0
    for seg in segments:
        busy[seg.alpha][seg.proc] += work[seg.task]
        if home[seg.task] != seg.proc:
            steals += 1
            obs.emit(STEAL, seg.start, alpha=seg.alpha, thief=seg.proc,
                     victim=home[seg.task], n=1, ok=True)
    if steals:
        obs.inc("steal.attempts", steals)
        obs.inc("steal.successes", steals)
        obs.inc("steal.tasks_moved", steals)
    _finish_obs(obs, busy, result.makespan)


def _run_stealing(job, resources, scheduler, rng, record_trace, obs):
    """True decentralized loop: per-processor deques, random-victim steals.

    Heap tuples are ``(time, seq, _EV_COMPLETE, task, proc)`` or
    ``(time, seq, _EV_STEAL, alpha, thief, victim)``; ``seq`` is
    globally unique so comparisons never reach the payload and pop
    order is deterministic.  A "decision" is any event instant at which
    at least one task starts (the decentralized analogue of the
    centralized decision round).
    """
    policy = scheduler.steal_policy
    cost = policy.cost
    steal_half = policy.amount == "half"
    k = job.num_types
    n = job.n_tasks
    types = job.types.tolist()
    work = job.work.tolist()
    child_ptr = job.child_ptr.tolist()
    child_idx = job.child_idx.tolist()

    indeg = job.in_degrees().tolist()
    state = [0] * n  # 0 pending, 1 ready, 2 running, 3 done
    counts = list(resources.counts)
    free_procs: list[list[int]] = [list(range(c - 1, -1, -1)) for c in counts]
    # deques[alpha][p]: FIFO-ordered (ready_seq, task) entries owned by
    # processor p of type alpha.  Steals preserve entry order.
    deques: list[list[list[tuple[int, int]]]] = [
        [[] for _ in range(c)] for c in counts
    ]
    queued = [0] * k  # total deque occupancy per type (gates stealing)
    spread = [0] * k  # round-robin cursor for cross-type/source placement
    trace = ScheduleTrace() if record_trace else None
    busy = [[0.0] * c for c in counts] if obs is not None else None

    events: list = []
    seq = 0
    ready_seq = 0
    completed = 0
    decisions = 0
    heap_peak = 0
    now = 0.0
    makespan = 0.0
    heappush, heappop = heapq.heappush, heapq.heappop
    integers = rng.integers
    pick_local = scheduler.pick_local

    def place(v: int, t: float, from_alpha: int, from_proc: int) -> None:
        nonlocal ready_seq
        alpha = types[v]
        state[v] = 1
        scheduler.task_ready(v, t, work[v])
        if alpha == from_alpha:
            p = from_proc  # chain locality: same-type child stays home
        else:
            p = spread[alpha] % counts[alpha]
            spread[alpha] += 1
        deques[alpha][p].append((ready_seq, v))
        ready_seq += 1
        queued[alpha] += 1

    def transfer(alpha: int, thief: int, victim: int, t: float) -> bool:
        """Move work from victim's deque to thief's; emit accounting."""
        vdq = deques[alpha][victim]
        if vdq:
            moved = (len(vdq) + 1) // 2 if steal_half else 1
            deques[alpha][thief].extend(vdq[:moved])
            del vdq[:moved]
            if obs is not None:
                obs.inc("steal.successes")
                obs.inc("steal.tasks_moved", moved)
                obs.emit(STEAL, t, alpha=alpha, thief=thief, victim=victim,
                         n=moved, ok=True)
            return True
        if obs is not None:
            obs.inc("steal.failed_empty")
            obs.emit(STEAL, t, alpha=alpha, thief=thief, victim=victim,
                     n=0, ok=False)
        return False

    for v in job.sources():
        place(int(v), 0.0, -1, -1)

    _t_loop = perf_counter() if obs is not None else 0.0

    while True:
        # ---- decision phase at `now`: every free processor acts ----
        _t_dec = perf_counter() if obs is not None else 0.0
        started = 0
        for alpha in range(k):
            stack = free_procs[alpha]
            if not stack:
                continue
            dq_a = deques[alpha]
            pa = counts[alpha]
            still_idle: list[int] = []
            while stack:
                p = stack.pop()
                dq = dq_a[p]
                if not dq and queued[alpha] and pa > 1:
                    # One steal attempt per idle processor per instant,
                    # uniformly random other same-type victim.  The draw
                    # happens regardless of observability, keeping runs
                    # bit-identical with telemetry on or off.
                    victim = int(integers(pa - 1))
                    if victim >= p:
                        victim += 1
                    if obs is not None:
                        obs.inc("steal.attempts")
                    if cost > 0.0:
                        # Thief is busy stealing until now + cost; the
                        # outcome resolves against the victim's deque at
                        # that instant.
                        heappush(events, (now + cost, seq, _EV_STEAL,
                                          alpha, p, victim))
                        seq += 1
                        if len(events) > heap_peak:
                            heap_peak = len(events)
                        continue
                    if not transfer(alpha, p, victim, now):
                        still_idle.append(p)
                        continue
                if dq:
                    i = 0 if len(dq) == 1 else pick_local(alpha, dq, now)
                    task = dq.pop(i)[1]
                    queued[alpha] -= 1
                    if state[task] != 1:
                        raise SchedulingError(
                            f"{scheduler.name} started task {task} in state "
                            f"{state[task]} (not ready)"
                        )
                    state[task] = 2
                    scheduler.task_started(task, now)
                    finish = now + work[task]
                    heappush(events, (finish, seq, _EV_COMPLETE, task, p))
                    seq += 1
                    started += 1
                    if len(events) > heap_peak:
                        heap_peak = len(events)
                    if trace is not None:
                        trace.add(task, alpha, p, now, finish)
                    if obs is not None:
                        busy[alpha][p] += work[task]
                        obs.emit(SLICE, now, task=task, alpha=alpha, proc=p,
                                 end=finish)
                else:
                    still_idle.append(p)
            # Reversed re-push keeps the stack's pop order stable across
            # instants (lowest processor id pops first, like the
            # centralized engine's free lists).
            stack.extend(reversed(still_idle))
        if started:
            decisions += 1
            if obs is not None:
                obs.emit(DECISION, now, n=started)
                obs.inc("decisions." + scheduler.name)
                obs.inc("dispatched." + scheduler.name, started)
        if obs is not None:
            obs.add_time("decision." + scheduler.name, perf_counter() - _t_dec)
            obs.emit(SAMPLE, now, ready=list(queued),
                     free=[len(s) for s in free_procs])

        if completed >= n:
            break
        if not events:
            raise SchedulingError(
                f"{scheduler.name} stalled at t={now}: {sum(queued)} queued, "
                f"{n - completed} unfinished, nothing running"
            )

        # ---- advance to the next event instant ----
        now = events[0][0]
        while events and events[0][0] == now:
            ev = heappop(events)
            if ev[2] == _EV_COMPLETE:
                task, p = ev[3], ev[4]
                state[task] = 3
                completed += 1
                alpha = types[task]
                free_procs[alpha].append(p)
                makespan = now
                if obs is not None:
                    obs.emit(COMPLETE, now, task=task, alpha=alpha, proc=p)
                scheduler.task_finished(task, now)
                for ei in range(child_ptr[task], child_ptr[task + 1]):
                    ci = child_idx[ei]
                    left = indeg[ci] - 1
                    indeg[ci] = left
                    if left == 0:
                        place(ci, now, alpha, p)
            else:  # steal resolution
                alpha, thief, victim = ev[3], ev[4], ev[5]
                transfer(alpha, thief, victim, now)
                free_procs[alpha].append(thief)

    if obs is not None:
        obs.add_time("phase.engine_loop", perf_counter() - _t_loop)
        obs.inc("engine.runs")
        obs.inc("engine.tasks", n)
        obs.inc("engine.decisions", decisions)
        obs.inc("engine.events_pushed", seq)
        obs.observe("engine.heap_peak", heap_peak)
        _finish_obs(obs, busy, makespan)

    return ScheduleResult(
        makespan=makespan,
        scheduler=scheduler.name,
        job=job,
        resources=resources,
        preemptive=False,
        trace=trace,
        decisions=decisions,
    )
