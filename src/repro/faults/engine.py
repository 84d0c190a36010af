"""Fault-aware non-preemptive simulation: FAIL/REPAIR events.

Two event kinds, driven by a
:class:`~repro.faults.models.FaultTimeline`, join the completions of
the list-scheduling loop:

* **FAIL(alpha, proc)** — the processor goes down.  If it was running
  a segment, the segment is *killed*: it is recorded in the trace with
  ``killed=True`` and the victim task re-enters the ready pool at the
  failure instant.  Under the default fail-stop ``"restart"`` policy
  the victim restarts from scratch (the killed interval is wasted
  work); under ``"checkpoint"`` it resumes with only its remaining
  work (lost-in-flight state is assumed checkpointed).
* **REPAIR(alpha, proc)** — the processor comes back and immediately
  rejoins the free pool.

Schedulers observe failures two ways: the free counts passed to
:meth:`~repro.schedulers.base.Scheduler.assign` only ever include *up*
processors, and every FAIL/REPAIR triggers the
:meth:`~repro.schedulers.base.Scheduler.capacity_changed` hook with
the type's new up-count.  Event ordering at one instant is completions
first, then repairs, then failures — a task finishing exactly when its
processor dies has completed, and back-to-back outages net out before
the next decision round.

The run is :func:`repro.sim.engine.simulate`'s loop with a fault seam
(:class:`_FaultSeam`, protocol in :mod:`repro.sim.engine`), not a loop
of its own.  The seam puts the timeline's FAIL/REPAIR entries into the
loop's heap under keys above every dispatch's sequence number, in
:meth:`~repro.faults.models.FaultTimeline.events` order (repairs before
failures at one time), which yields the order above.  It remembers
which dispatch each processor is running, so a completion of a killed
segment pops as stale and is skipped.  Trace segments are recorded at
dispatch, as in every run of the loop; a kill cuts its segment short
in place (:meth:`~repro.sim.trace.ScheduleTrace.cut`).

**λ=0 guarantee**: with an empty (or ``None``) timeline the seam puts
nothing in the heap and only tracks dispatches, so the run makes the
same scheduler calls, float operations and heap pops as
:func:`repro.sim.engine.simulate` by construction; makespan, decisions
and the ordered trace are identical
(``tests/faults/test_engine_equivalence.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.kdag import KDag
from repro.errors import ConfigurationError, SchedulingError
from repro.faults.models import FaultTimeline
from repro.obs.events import FAIL, KILL, REPAIR, SLICE
from repro.obs.telemetry import Telemetry
from repro.schedulers.base import Scheduler
from repro.sim.engine import _list_schedule
from repro.sim.result import ScheduleResult
from repro.system.resources import ResourceConfig

__all__ = ["FaultScheduleResult", "simulate_with_faults", "POLICIES"]

#: Recovery policies for killed tasks.
POLICIES = ("restart", "checkpoint")

_IDLE = (-1, -1, 0.0)


@dataclass(frozen=True)
class FaultScheduleResult(ScheduleResult):
    """A :class:`~repro.sim.result.ScheduleResult` plus fault accounting.

    Attributes
    ----------
    timeline:
        The injected failure timeline the run executed against.
    policy:
        ``"restart"`` or ``"checkpoint"``.
    kills:
        Number of segments killed by failures.
    wasted_work:
        Total work destroyed by kills (0 under ``"checkpoint"``).
    """

    timeline: FaultTimeline | None = None
    policy: str = "restart"
    kills: int = 0
    wasted_work: float = 0.0


def simulate_with_faults(
    job: KDag,
    resources: ResourceConfig,
    scheduler: Scheduler,
    timeline: FaultTimeline | None = None,
    policy: str = "restart",
    rng: np.random.Generator | None = None,
    record_trace: bool = False,
    max_kills: int | None = None,
    telemetry: Telemetry | None = None,
) -> FaultScheduleResult:
    """Run ``scheduler`` on ``job`` under injected processor failures.

    Parameters
    ----------
    timeline:
        Down intervals per processor (``None`` or empty: fault-free,
        bit-identical to :func:`repro.sim.engine.simulate`).
    policy:
        ``"restart"`` (fail-stop re-execution, the default) or
        ``"checkpoint"`` (resume with remaining work).
    max_kills:
        Livelock guard: abort with :class:`SchedulingError` after this
        many kills (default ``10 * n_tasks + 1000``) — deterministic
        maintenance windows shorter than a task's work would otherwise
        restart it forever.
    telemetry:
        Observability context (:mod:`repro.obs`); ``None`` or disabled
        keeps the run bit-identical to an uninstrumented engine.
        Enabled runs additionally record FAIL/REPAIR/KILL events and
        kill/wasted-work counters.

    Raises
    ------
    SchedulingError
        On scheduler protocol violations (as the fault-free engine),
        on permanent starvation (tasks pending, every capable
        processor down forever), or when ``max_kills`` is exceeded.
    """
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown fault policy {policy!r}; known: {list(POLICIES)}"
        )
    if timeline is None:
        timeline = FaultTimeline()
    timeline.check_procs(resources)
    kill_budget = max_kills if max_kills is not None else 10 * job.n_tasks + 1000
    seam = _FaultSeam(job, resources, scheduler, timeline, policy, kill_budget)
    res = _list_schedule(
        job, resources, scheduler, rng, record_trace, telemetry, seam
    )
    if telemetry is not None and telemetry.enabled:
        # The loop counts the dispatches it pushed; the timeline's
        # entries count as pushed events too.
        telemetry.inc("engine.events_pushed", len(seam.timeline_events))
        telemetry.inc("engine.kills", seam.kills)
        telemetry.observe("engine.wasted_work", seam.wasted)

    return FaultScheduleResult(
        **vars(res), timeline=timeline, policy=policy, kills=seam.kills,
        wasted_work=seam.wasted,
    )


class _FaultSeam:
    """FAIL/REPAIR events, kills and stale completions inside the loop."""

    def __init__(self, job, resources, scheduler, timeline, policy, kill_budget):
        self.scheduler = scheduler
        self.types = job.types.tolist()
        self.checkpoint = policy == "checkpoint"
        self.kill_budget = kill_budget
        self.counts = resources.counts
        self.up = list(resources.counts)
        self.timeline_events = timeline.events()
        self.is_fail = [kind == "fail" for _, kind, _, _ in self.timeline_events]
        # Timeline entries' heap keys start above every dispatch's
        # sequence number: a run makes at most n + kill_budget dispatches.
        self.base = job.n_tasks + kill_budget
        # The dispatch each processor is running: (sequence number,
        # task, start), _IDLE when none.  A completion whose number is
        # not its processor's current one belongs to a killed segment.
        self.running = [[_IDLE] * c for c in resources.counts]
        self.kills = 0
        self.wasted = 0.0

    def bind(self, state, work, free, free_procs, events, trace, obs):
        self.state = state
        self.remaining = work  # shrinks on checkpointed kills
        self.free = free
        self.free_procs = free_procs
        self.trace = trace
        self.obs = obs
        for i, (time, _, alpha, proc) in enumerate(self.timeline_events):
            if time == 0.0:
                # Outages from t=0 take their (idle) processors down
                # before the first decision round.
                self.popped(self.base + i, alpha, proc, 0.0)
            else:
                events.append((time, self.base + i, alpha, proc))
        heapq.heapify(events)

    def started(self, task, alpha, proc, now, seq):
        self.running[alpha][proc] = (seq, task, now)

    def popped(self, key, a, b, now):
        if key < self.base:  # completion of task a on processor b
            alpha = self.types[a]
            running = self.running[alpha]
            if running[b][0] != key:
                return 0  # its segment was killed
            if self.obs is not None:
                self.obs.emit(SLICE, running[b][2], task=a, alpha=alpha,
                              proc=b, end=now)
            running[b] = _IDLE
            return -1
        alpha, proc = a, b
        readied = 0
        if self.is_fail[key - self.base]:
            readied = self._fail(alpha, proc, now)
        else:
            self.up[alpha] += 1
            self.free[alpha] += 1
            self.free_procs[alpha].append(proc)
            if self.obs is not None:
                self.obs.emit(REPAIR, now, alpha=alpha, proc=proc)
        self.scheduler.capacity_changed(alpha, self.up[alpha], now)
        return readied

    def _fail(self, alpha, proc, now):
        """Take a processor down; kill and re-ready what it was running."""
        self.up[alpha] -= 1
        obs = self.obs
        if obs is not None:
            obs.emit(FAIL, now, alpha=alpha, proc=proc)
        seq, victim, start = self.running[alpha][proc]
        if victim < 0:
            self.free_procs[alpha].remove(proc)
            self.free[alpha] -= 1
            return 0
        self.running[alpha][proc] = _IDLE
        self.kills += 1
        if self.kills > self.kill_budget:
            raise SchedulingError(
                f"{self.scheduler.name}: {self.kills} kills exceed the "
                f"livelock guard ({self.kill_budget}); the fault "
                f"timeline likely never leaves task {victim} "
                f"a window long enough to finish"
            )
        # Entries at a dispatch instant pop before its decision round,
        # so a failure lands strictly after the start it cuts short.
        if self.trace is not None:
            self.trace.cut(seq, now)
        remaining = self.remaining
        if obs is not None:
            obs.emit(SLICE, start, task=victim, alpha=alpha, proc=proc,
                     end=now, killed=True)
            obs.emit(KILL, now, task=victim, alpha=alpha, proc=proc,
                     start=start,
                     lost=0.0 if self.checkpoint else now - start)
        if self.checkpoint:
            # finish - now of the killed dispatch:
            remaining[victim] = (start + remaining[victim]) - now
        else:
            self.wasted += now - start
        self.state[victim] = 1
        self.scheduler.task_ready(victim, now, remaining[victim])
        return 1

    def stall_note(self):
        down = [c - u for c, u in zip(self.counts, self.up)]
        return f" (down processors per type: {down})"
