"""Execution traces: who ran what, where, and when.

A trace is a list of :class:`Segment` records.  Non-preemptive runs
produce exactly one segment per task; preemptive runs may split a task
into several segments (possibly on different processors of its type —
the paper allows free reallocation).  Fault-aware runs
(:mod:`repro.faults.engine`) additionally record *killed* segments:
intervals a task occupied a processor before a failure cut it short.

Per-task lookups (:meth:`ScheduleTrace.segments_of`,
:meth:`~ScheduleTrace.first_start`, :meth:`~ScheduleTrace.last_end`)
and the columnar accessors used by the vectorized metrics are served
from lazily built caches that are invalidated on every :meth:`add`, so
building a trace stays O(1) per segment while analysis passes stop
re-scanning the whole segment list per task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import ValidationError

__all__ = ["Segment", "ScheduleTrace"]


@dataclass(frozen=True, slots=True)
class Segment:
    """One contiguous execution interval of a task on a processor.

    Attributes
    ----------
    task:
        Task id.
    alpha:
        Resource type the segment ran on.
    proc:
        Processor index within the type's pool, ``0 <= proc < P_alpha``.
    start, end:
        Interval ``[start, end)`` with ``end > start``.
    killed:
        True when a processor failure terminated the segment before the
        task completed (fault-aware engine only).  Under the fail-stop
        *restart* policy a killed segment is wasted work; under the
        *checkpoint* policy its progress survives.
    """

    task: int
    alpha: int
    proc: int
    start: float
    end: float
    killed: bool = False

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValidationError(
                f"segment for task {self.task} has non-positive duration "
                f"[{self.start}, {self.end})"
            )

    @property
    def duration(self) -> float:
        """Length of the interval."""
        return self.end - self.start


@dataclass
class ScheduleTrace:
    """An ordered collection of execution segments for one run."""

    segments: list[Segment] = field(default_factory=list)
    #: Lazy per-task index (task -> segments sorted by start); None when stale.
    _by_task: dict[int, list[Segment]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Lazy columnar view (task/alpha/proc/start/end/killed arrays).
    _columns: dict[str, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(
        self,
        task: int,
        alpha: int,
        proc: int,
        start: float,
        end: float,
        killed: bool = False,
    ) -> None:
        """Append one segment (invalidates the lazy caches)."""
        self.segments.append(Segment(task, alpha, proc, start, end, killed))
        self._by_task = None
        self._columns = None

    def cut(self, index: int, end: float) -> None:
        """Cut segment ``index`` short at ``end`` and mark it killed.

        The fault-aware engine records a segment when it is dispatched
        and cuts it here when a processor failure kills it.
        """
        s = self.segments[index]
        self.segments[index] = Segment(s.task, s.alpha, s.proc, s.start, end, True)
        self._by_task = None
        self._columns = None

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    # -- lazy caches ----------------------------------------------------
    def _task_index(self) -> dict[int, list[Segment]]:
        """Per-task segment lists sorted by (start, end), built once."""
        if self._by_task is None:
            index: dict[int, list[Segment]] = {}
            for s in self.segments:
                index.setdefault(s.task, []).append(s)
            for segs in index.values():
                segs.sort(key=lambda s: (s.start, s.end))
            self._by_task = index
        return self._by_task

    def as_columns(self) -> dict[str, np.ndarray]:
        """Columnar view of the trace, cached until the next :meth:`add`.

        Returns arrays ``task`` (int64), ``alpha`` (int64), ``proc``
        (int64), ``start``/``end`` (float64) and ``killed`` (bool), all
        of length ``len(self)`` in segment insertion order.
        """
        if self._columns is None:
            segs = self.segments
            self._columns = {
                "task": np.fromiter(
                    (s.task for s in segs), dtype=np.int64, count=len(segs)
                ),
                "alpha": np.fromiter(
                    (s.alpha for s in segs), dtype=np.int64, count=len(segs)
                ),
                "proc": np.fromiter(
                    (s.proc for s in segs), dtype=np.int64, count=len(segs)
                ),
                "start": np.fromiter(
                    (s.start for s in segs), dtype=np.float64, count=len(segs)
                ),
                "end": np.fromiter(
                    (s.end for s in segs), dtype=np.float64, count=len(segs)
                ),
                "killed": np.fromiter(
                    (s.killed for s in segs), dtype=bool, count=len(segs)
                ),
            }
        return self._columns

    # -- queries --------------------------------------------------------
    def makespan(self) -> float:
        """Latest segment end (0.0 for an empty trace)."""
        return max((s.end for s in self.segments), default=0.0)

    def segments_of(self, task: int) -> list[Segment]:
        """All segments of one task, sorted by start time."""
        return list(self._task_index().get(task, []))

    def killed_segments(self) -> list[Segment]:
        """All segments terminated by a processor failure."""
        return [s for s in self.segments if s.killed]

    def executed_work(self, n_tasks: int) -> np.ndarray:
        """Total executed duration per task, shape ``(n_tasks,)``.

        Counts every segment, killed or not — under the checkpoint
        fault policy killed progress is real work; for fail-stop
        accounting use :meth:`surviving_work`.
        """
        cols = self.as_columns()
        task = cols["task"]
        bad = (task < 0) | (task >= n_tasks)
        if bad.any():
            offender = int(task[np.argmax(bad)])
            raise ValidationError(f"trace references unknown task {offender}")
        out = np.zeros(n_tasks, dtype=np.float64)
        np.add.at(out, task, cols["end"] - cols["start"])
        return out

    def surviving_work(self, n_tasks: int) -> np.ndarray:
        """Per-task executed duration of non-killed segments only."""
        cols = self.as_columns()
        task = cols["task"]
        bad = (task < 0) | (task >= n_tasks)
        if bad.any():
            offender = int(task[np.argmax(bad)])
            raise ValidationError(f"trace references unknown task {offender}")
        alive = ~cols["killed"]
        out = np.zeros(n_tasks, dtype=np.float64)
        np.add.at(out, task[alive], cols["end"][alive] - cols["start"][alive])
        return out

    def first_start(self, task: int) -> float:
        """Earliest start of ``task`` (raises if it never ran)."""
        segs = self._task_index().get(task)
        if not segs:
            raise ValidationError(f"task {task} never executed")
        return segs[0].start

    def last_end(self, task: int) -> float:
        """Latest end of ``task`` (raises if it never ran)."""
        segs = self._task_index().get(task)
        if not segs:
            raise ValidationError(f"task {task} never executed")
        return max(s.end for s in segs)
