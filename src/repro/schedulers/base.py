"""Scheduler interface shared by the simulation engines.

The engines (:mod:`repro.sim.engine`, :mod:`repro.sim.preemptive`)
drive schedulers through a small event protocol:

1. :meth:`Scheduler.prepare` once per run — offline algorithms read the
   whole :class:`~repro.core.kdag.KDag` here; online algorithms must
   restrict themselves to ``job.num_types`` and the resource counts
   (this is the paper's online information model, enforced by
   convention and checked in the test suite by scrambling hidden
   fields).
2. :meth:`Scheduler.task_ready` whenever a task's last parent finishes
   (or at time 0 for sources); in preemptive mode also when a running
   task is returned to the pool at a quantum boundary, with its
   *remaining* work.
3. :meth:`Scheduler.assign` at each decision point with the free
   processor counts; the scheduler returns which queued tasks to start.
4. :meth:`Scheduler.task_finished` on completions.

The default :meth:`assign` treats the K queues independently (one
:meth:`select` per type), which matches KGreedy and all single-queue
priority heuristics.  MQB overrides :meth:`assign` to interleave the
per-type picks, because each pick changes the balance that scores the
next one.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.kdag import KDag
    from repro.obs.telemetry import Telemetry
    from repro.system.resources import ResourceConfig

__all__ = ["Scheduler", "QueueScheduler"]


class Scheduler(ABC):
    """Abstract scheduling policy for one K-DAG job on one system."""

    #: Registry name; subclasses override.
    name: str = "abstract"

    #: Whether :meth:`prepare` reads the job structure beyond K (offline).
    requires_offline: bool = True

    #: Whether runs need per-processor deques (the work-stealing
    #: engine); :func:`repro.capabilities.plan_run` reads it.
    decentral: bool = False

    #: The row kind (``"static"`` or ``"mqb"``) the native whole-run
    #: loop may run this family as, or ``None`` for the Python loop;
    #: :func:`repro.capabilities.row_kind` reads it, together with the
    #: protocol methods it stands for.
    lockstep: str | None = None

    def __init__(self) -> None:
        self._job: "KDag | None" = None
        self._resources: "ResourceConfig | None" = None
        self._telemetry: "Telemetry | None" = None

    # -- lifecycle ------------------------------------------------------
    def prepare(
        self,
        job: "KDag",
        resources: "ResourceConfig",
        rng: np.random.Generator | None = None,
    ) -> None:
        """Reset state for a fresh run; offline precomputation goes here.

        ``rng`` feeds stochastic information models (MQB+Exp/Noise);
        deterministic schedulers ignore it.
        """
        if job.num_types != resources.num_types:
            raise SchedulingError(
                f"job has K={job.num_types} but system has "
                f"K={resources.num_types} resource types"
            )
        self._job = job
        self._resources = resources

    @property
    def job(self) -> "KDag":
        """The job of the current run (after :meth:`prepare`)."""
        if self._job is None:
            raise SchedulingError("scheduler used before prepare()")
        return self._job

    @property
    def resources(self) -> "ResourceConfig":
        """The system of the current run (after :meth:`prepare`)."""
        if self._resources is None:
            raise SchedulingError("scheduler used before prepare()")
        return self._resources

    # -- event protocol ---------------------------------------------------
    @abstractmethod
    def task_ready(self, task: int, time: float, work: float) -> None:
        """A task entered the ready pool.

        ``work`` is the amount still to execute — equal to the task's
        full work in non-preemptive mode, possibly less when a
        preemptive engine returns a partially executed task.
        """

    @abstractmethod
    def pending(self, alpha: int) -> int:
        """Number of queued ready ``alpha``-tasks."""

    @abstractmethod
    def select(self, alpha: int, n_slots: int, time: float) -> list[int]:
        """Pop up to ``n_slots`` ready ``alpha``-tasks to start now.

        Must return between 1 and ``n_slots`` tasks whenever
        ``pending(alpha) > 0`` (a greedy/work-conserving policy —
        all six paper algorithms are work conserving).
        """

    def assign(self, free: list[int], time: float) -> list[int]:
        """One decision round: choose tasks to start on the free processors.

        ``free[alpha]`` is the number of idle ``alpha``-processors.
        Returns the chosen task ids (their types determine which pool
        they draw from).  The base implementation runs the K queues
        independently.
        """
        chosen: list[int] = []
        for alpha, slots in enumerate(free):
            if slots <= 0 or self.pending(alpha) == 0:
                continue
            picked = self.select(alpha, slots, time)
            if not picked:
                raise SchedulingError(
                    f"{self.name}: select({alpha}) returned no task while "
                    f"{self.pending(alpha)} were pending"
                )
            if len(picked) > slots:
                raise SchedulingError(
                    f"{self.name}: select({alpha}) returned {len(picked)} "
                    f"tasks for {slots} slots"
                )
            chosen.extend(picked)
        return chosen

    def attach_telemetry(self, telemetry: "Telemetry | None") -> None:
        """Point the decision-timing wrapper at a telemetry context.

        Engines call this once per run, before the event loop, with the
        resolved telemetry (``None`` when observability is disabled).
        Because :meth:`on_decision` is the *only* consumer, schedulers
        need no per-algorithm changes to be covered by decision timing
        — overriding :meth:`assign` (as MQB does) is enough.
        """
        self._telemetry = telemetry

    def on_decision(self, free: list[int], time: float) -> list[int]:
        """:meth:`assign` wrapped with decision-cost telemetry.

        Engines with observability enabled route decision rounds
        through this wrapper instead of calling :meth:`assign`
        directly; the substitution happens once per run, so the
        disabled path carries no extra branch in its inner loop.
        Records the wall time under ``decision.<name>`` and bumps the
        ``decisions.<name>`` / ``dispatched.<name>`` counters.
        """
        tel = self._telemetry
        if tel is None:
            return self.assign(free, time)
        t0 = perf_counter()
        chosen = self.assign(free, time)
        tel.add_time("decision." + self.name, perf_counter() - t0)
        tel.inc("decisions." + self.name)
        tel.inc("dispatched." + self.name, len(chosen))
        return chosen

    def task_finished(self, task: int, time: float) -> None:
        """A task completed (hook; default no-op)."""

    def capacity_changed(self, alpha: int, up: int, time: float) -> None:
        """The number of usable ``alpha``-processors changed (hook).

        The fault-aware engine (:mod:`repro.faults.engine`) calls this
        on every FAIL/REPAIR event with the new count of *up*
        processors of the type (free or busy).  The fault-free engines
        never call it.  Schedulers that reason about per-type capacity
        (e.g. balance heuristics) may override; the free counts passed
        to :meth:`assign` already reflect failures, so the default
        no-op is always safe.
        """


class QueueScheduler(Scheduler):
    """Base for static-priority schedulers: K min-heaps keyed offline.

    Subclasses implement :meth:`priorities` returning one scalar key per
    task; at run time each type's ready pool is a binary heap ordered by
    ``(key, ready sequence)`` so ties resolve in FIFO arrival order and
    runs are fully deterministic.  The prepared vector is public as
    :attr:`keys`: the native whole-run loop reads it instead of calling
    the protocol per task.
    """

    lockstep = "static"

    def __init__(self) -> None:
        super().__init__()
        self._heaps: list[list[tuple[float, int, int]]] = []
        #: Per-task priority keys (float64) of the prepared run.
        self.keys: np.ndarray | None = None
        # The Python loop's heaps read plain floats and ints per task.
        self._key_list: list[float] = []
        self._types: list[int] = []
        self._seq = 0
        self._first_seq: dict[int, int] = {}

    @abstractmethod
    def priorities(self, job: "KDag") -> np.ndarray:
        """Per-task priority keys (lower key pops first)."""

    def prepare(
        self,
        job: "KDag",
        resources: "ResourceConfig",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().prepare(job, resources, rng)
        keys = np.asarray(self.priorities(job), dtype=np.float64)
        if keys.shape != (job.n_tasks,):
            raise SchedulingError(
                f"{self.name}: priorities() returned shape {keys.shape}, "
                f"expected ({job.n_tasks},)"
            )
        self.keys = keys
        self._key_list = keys.tolist()
        self._types = job.types.tolist()
        self._heaps = [[] for _ in range(job.num_types)]
        self._seq = 0
        self._first_seq = {}

    def task_ready(self, task: int, time: float, work: float) -> None:
        alpha = self._types[task]
        # Ties break on the FIRST time a task became ready, and the
        # order is sticky across preemptive re-announcements — a task
        # returned to the pool at a quantum boundary keeps its place
        # rather than dropping behind later arrivals (which would turn
        # FIFO policies into round-robin processor sharing).
        seq = self._first_seq.setdefault(task, self._seq)
        if seq == self._seq:
            self._seq += 1
        heapq.heappush(self._heaps[alpha], (self._key_list[task], seq, task))

    def pending(self, alpha: int) -> int:
        return len(self._heaps[alpha])

    def select(self, alpha: int, n_slots: int, time: float) -> list[int]:
        heap = self._heaps[alpha]
        out: list[int] = []
        while heap and len(out) < n_slots:
            out.append(heapq.heappop(heap)[2])
        return out
