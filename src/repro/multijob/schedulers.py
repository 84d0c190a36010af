"""Scheduling policies for job streams.

All four policies are work conserving; they differ in how they order
the union of all arrived jobs' ready tasks within each type's pool:

* :class:`GlobalKGreedy` — job-blind FIFO, the stream analogue of
  KGreedy and the natural "online" baseline.
* :class:`JobFCFS` — strict job seniority: every ready task of an
  earlier-arrived job precedes any task of a later one.  Classic
  cluster behaviour; minimizes interleaving between jobs.
* :class:`SmallestRemainingFirst` — SRPT-flavoured: tasks of the job
  with the least *remaining total work* first; the standard mean-flow-
  time heuristic, here generalized to typed DAG jobs.
* :class:`GlobalMQB` — the paper's utilization balancing applied to
  the union of ready queues: per-job typed descendant values are
  computed at arrival, and each pick maximizes the lexicographic
  x-utilization balance exactly as in single-job MQB.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro import native as _native
from repro.core.descendants import descendant_values
from repro.core.kdag import KDag
from repro.errors import ConfigurationError, SchedulingError
from repro.multijob.arrival import JobStream
from repro.schedulers.mqb import best_slot
from repro.system.resources import ResourceConfig

__all__ = [
    "StreamScheduler",
    "GlobalKGreedy",
    "JobFCFS",
    "SmallestRemainingFirst",
    "GlobalMQB",
    "STREAM_POLICIES",
    "make_stream_scheduler",
    "available_stream_policies",
]


class StreamScheduler(ABC):
    """Policy interface for :func:`repro.multijob.engine.simulate_stream`."""

    name: str = "stream-abstract"

    def __init__(self) -> None:
        self._stream: JobStream | None = None
        self._resources: ResourceConfig | None = None

    def prepare(
        self,
        stream: JobStream,
        resources: ResourceConfig,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Reset state for a fresh run."""
        if stream.num_types != resources.num_types:
            raise SchedulingError("stream and system disagree on K")
        self._stream = stream
        self._resources = resources

    @property
    def stream(self) -> JobStream:
        if self._stream is None:
            raise SchedulingError("scheduler used before prepare()")
        return self._stream

    def job_arrived(self, jid: int, job: KDag, time: float) -> None:
        """A new job entered the system (hook; default no-op)."""

    @abstractmethod
    def task_ready(self, jid: int, task: int, time: float) -> None:
        """A task of job ``jid`` became ready."""

    @abstractmethod
    def pending(self, alpha: int) -> int:
        """Queued ready tasks of type ``alpha`` across all jobs."""

    @abstractmethod
    def select(self, alpha: int, n_slots: int, time: float) -> list[tuple[int, int]]:
        """Pop up to ``n_slots`` ``(jid, task)`` pairs of type ``alpha``."""

    def task_finished(self, jid: int, task: int, time: float) -> None:
        """Completion hook (default no-op)."""

    def job_finished(self, jid: int, time: float) -> None:
        """Whole-job completion hook (default no-op)."""


class _HeapPolicy(StreamScheduler):
    """Shared machinery: one heap per type, subclass supplies the key."""

    def prepare(self, stream, resources, rng=None) -> None:
        super().prepare(stream, resources, rng)
        self._heaps: list[list[tuple]] = [[] for _ in range(stream.num_types)]
        self._seq = 0

    @abstractmethod
    def _key(self, jid: int, task: int, time: float) -> tuple:
        """Heap key; lower pops first (seq appended automatically)."""

    def task_ready(self, jid: int, task: int, time: float) -> None:
        alpha = int(self.stream.jobs[jid].types[task])
        heapq.heappush(
            self._heaps[alpha],
            (*self._key(jid, task, time), self._seq, jid, task),
        )
        self._seq += 1

    def pending(self, alpha: int) -> int:
        return len(self._heaps[alpha])

    def select(self, alpha, n_slots, time):
        heap = self._heaps[alpha]
        out = []
        while heap and len(out) < n_slots:
            *_, jid, task = heapq.heappop(heap)
            out.append((jid, task))
        return out


class GlobalKGreedy(_HeapPolicy):
    """Job-blind FIFO across the union of ready tasks."""

    name = "global-kgreedy"

    def _key(self, jid, task, time):
        return ()


class JobFCFS(_HeapPolicy):
    """Strict job seniority (jobs are numbered in arrival order)."""

    name = "job-fcfs"

    def _key(self, jid, task, time):
        return (jid,)


class SmallestRemainingFirst(StreamScheduler):
    """Tasks of the job with the least remaining total work first.

    Remaining work is tracked exactly (decremented at completions), so
    the priority is evaluated live at selection time rather than frozen
    at enqueue.
    """

    name = "srpt"

    def prepare(self, stream, resources, rng=None) -> None:
        super().prepare(stream, resources, rng)
        self._pools: list[dict[tuple[int, int], int]] = [
            {} for _ in range(stream.num_types)
        ]
        self._remaining = [float(j.work.sum()) for j in stream.jobs]
        self._seq = 0

    def task_ready(self, jid, task, time):
        alpha = int(self.stream.jobs[jid].types[task])
        self._pools[alpha][(jid, task)] = self._seq
        self._seq += 1

    def pending(self, alpha):
        return len(self._pools[alpha])

    def select(self, alpha, n_slots, time):
        pool = self._pools[alpha]
        out = []
        while pool and len(out) < n_slots:
            key = min(
                pool, key=lambda jt: (self._remaining[jt[0]], pool[jt])
            )
            del pool[key]
            out.append(key)
        return out

    def task_finished(self, jid, task, time):
        self._remaining[jid] -= float(self.stream.jobs[jid].work[task])


class GlobalMQB(StreamScheduler):
    """MQB balancing over all arrived jobs' ready queues.

    Descendant values are per job (computed once at arrival) — a task's
    descendants live in its own job — while the queue-work vector and
    the balance comparison span the whole system, exactly the
    single-job MQB rule applied to the union.

    The ready pools are :class:`~repro.schedulers.mqb.MQB`'s: per type,
    the candidates' descendant rows, works and ready seqs in array
    buffers, swap-removed on pop.  A pick is one native ``pick_pop``
    call when the kernel loads and MQB's lexsort
    (:func:`~repro.schedulers.mqb.best_slot`) otherwise; both score
    ``(l + extra) + d``, less the task's own work on its queue, over
    ``P``, compare the sorted vectors lexicographically and give ties
    to the smallest ready seq.
    """

    name = "global-mqb"

    def prepare(self, stream, resources, rng=None) -> None:
        super().prepare(stream, resources, rng)
        k = stream.num_types
        self._l = np.zeros(k)
        self._extra = np.zeros(k)
        self._parr = resources.as_array().astype(np.float64)
        self._d: dict[int, np.ndarray] = {}
        self._seq = 0
        self._tasks: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        self._dpool = [np.empty((8, k)) for _ in range(k)]
        self._wpool = [np.empty(8) for _ in range(k)]
        self._spool = [np.empty(8, dtype=np.int64) for _ in range(k)]
        self._kpick = None
        if _native.requested() and _native.supported("lex", k):
            kernel = _native.load_kernel()
            if kernel is None:
                _native.note_fallback()
            else:
                self._kpick = kernel.pick_pop
                # The per-pick call passes these addresses as plain ints.
                self._ptrs = (
                    self._l.ctypes.data, self._extra.ctypes.data,
                    self._parr.ctypes.data,
                )
                self._pp = [self._pointers(a) for a in range(k)]

    def _pointers(self, alpha: int) -> tuple[int, int, int]:
        return (
            self._dpool[alpha].ctypes.data, self._wpool[alpha].ctypes.data,
            self._spool[alpha].ctypes.data,
        )

    def job_arrived(self, jid, job, time):
        self._d[jid] = descendant_values(job)

    def task_ready(self, jid, task, time):
        job = self.stream.jobs[jid]
        alpha = int(job.types[task])
        work = float(job.work[task])
        tasks = self._tasks[alpha]
        row = len(tasks)
        if row == self._wpool[alpha].shape[0]:
            for pool in (self._dpool, self._wpool, self._spool):
                pool[alpha] = np.concatenate([pool[alpha], np.empty_like(pool[alpha])])
            if self._kpick is not None:
                self._pp[alpha] = self._pointers(alpha)
        tasks.append((jid, task))
        self._dpool[alpha][row] = self._d[jid][task]
        self._wpool[alpha][row] = work
        self._spool[alpha][row] = self._seq
        self._seq += 1
        self._l[alpha] += work

    def pending(self, alpha):
        return len(self._tasks[alpha])

    def select(self, alpha, n_slots, time):
        tasks = self._tasks[alpha]
        out: list[tuple[int, int]] = []
        self._extra[:] = 0.0
        while tasks and len(out) < n_slots:
            m = len(tasks)
            if m <= n_slots - len(out):
                # Take all, in ready order: seqs rise with every
                # announcement, so they are the pool's insertion order.
                seqs = self._spool[alpha][:m].tolist()
                works = self._wpool[alpha][:m].tolist()
                for row in sorted(range(m), key=seqs.__getitem__):
                    self._l[alpha] -= works[row]
                    out.append(tasks[row])
                tasks.clear()
                break
            out.append(self._pick(alpha, m))
        return out

    def _pick(self, alpha: int, m: int) -> tuple[int, int]:
        """Pop the best of the ``m`` ready alpha-tasks, take its work off
        ``l`` and project its descendant row into ``extra``."""
        if self._kpick is not None:
            dptr, wptr, sptr = self._pp[alpha]
            l_ptr, extra_ptr, parr_ptr = self._ptrs
            slot = self._kpick(
                dptr, wptr, sptr, m, len(self._l), alpha, l_ptr, extra_ptr,
                parr_ptr, _native.MODE_CODES["lex"], 1,
            )
        else:
            dpool, wpool, spool = (
                pool[alpha] for pool in (self._dpool, self._wpool, self._spool)
            )
            slot = best_slot(
                dpool, wpool, spool, m, self._l + self._extra, alpha, self._parr, "lex"
            )
            self._l[alpha] -= wpool[slot]
            self._extra += dpool[slot]
            last = m - 1
            dpool[slot], wpool[slot], spool[slot] = dpool[last], wpool[last], spool[last]
        tasks = self._tasks[alpha]
        picked = tasks[slot]
        tasks[slot] = tasks[-1]
        tasks.pop()
        return picked


#: Registry of stream policies by name, in the study's plotting order —
#: the stream analogue of :data:`repro.schedulers.registry.PAPER_ALGORITHMS`.
STREAM_POLICIES: dict[str, Callable[[], StreamScheduler]] = {
    GlobalKGreedy.name: GlobalKGreedy,
    JobFCFS.name: JobFCFS,
    SmallestRemainingFirst.name: SmallestRemainingFirst,
    GlobalMQB.name: GlobalMQB,
}


def make_stream_scheduler(name: str) -> StreamScheduler:
    """Construct a fresh stream policy from its registry name."""
    key = name.strip().lower()
    try:
        return STREAM_POLICIES[key]()
    except KeyError:
        raise ConfigurationError(
            f"unknown stream policy {name!r}; known: {sorted(STREAM_POLICIES)}"
        ) from None


def available_stream_policies() -> list[str]:
    """All registry names accepted by :func:`make_stream_scheduler`."""
    return sorted(STREAM_POLICIES)
