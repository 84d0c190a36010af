"""Telemetry context: counters, timers and histograms for one run.

The observability layer follows one rule everywhere: **pay only when
enabled**.  Engines resolve the telemetry argument once, before their
event loop::

    obs = telemetry if (telemetry is not None and telemetry.enabled) else None

and every instrumented site is either selected up front (e.g. the
decision-timing wrapper :meth:`repro.schedulers.base.Scheduler.on_decision`
replaces ``assign`` only when ``obs`` is not ``None``) or guarded by a
single ``obs is not None`` check, so the disabled path performs the
exact same arithmetic, scheduler calls and heap operations as an
uninstrumented engine — results are bit-identical and the wall-clock
cost is within noise (asserted by ``tests/obs/test_overhead.py``).

Three aggregate families, all mergeable across processes:

* **counters** — monotonically increasing integers (``inc``); merges
  by summation, so totals are independent of how a sweep was sharded.
* **timers** — accumulated wall seconds plus a call count
  (``add_time`` / the ``timer`` context manager); keyed by convention
  as ``phase.<name>`` for engine phases and ``decision.<scheduler>``
  for per-scheduler decision costs.
* **histograms** — running ``(count, sum, min, max)`` summaries of a
  sampled value (``observe``), e.g. the event-heap peak size.

:meth:`Telemetry.snapshot` freezes the aggregates into a picklable
:class:`TelemetrySnapshot`; snapshots merge associatively, which is
what lets :mod:`repro.experiments.parallel` profile a sharded sweep —
each worker chunk returns its own snapshot and the parent folds them
in instance order.  Counter merges are exact for any worker count;
timer totals are float sums whose last bits may depend on chunking
(documented, not asserted).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.events import EventStream

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "TelemetrySnapshot",
    "merge_snapshots",
]


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Frozen, picklable aggregate state of one :class:`Telemetry`.

    Attributes
    ----------
    counters:
        ``name -> int`` monotone counts.
    timers:
        ``name -> (total_seconds, calls)``.
    histograms:
        ``name -> (count, sum, min, max)`` of the observed values.
    """

    counters: dict[str, int] = field(default_factory=dict)
    timers: dict[str, tuple[float, int]] = field(default_factory=dict)
    histograms: dict[str, tuple[int, float, float, float]] = field(
        default_factory=dict
    )

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Combine two snapshots (associative, identity = empty snapshot)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        timers = dict(self.timers)
        for name, (total, calls) in other.timers.items():
            t, c = timers.get(name, (0.0, 0))
            timers[name] = (t + total, c + calls)
        hists = dict(self.histograms)
        for name, (count, total, lo, hi) in other.histograms.items():
            if name in hists:
                c0, t0, lo0, hi0 = hists[name]
                hists[name] = (c0 + count, t0 + total, min(lo0, lo), max(hi0, hi))
            else:
                hists[name] = (count, total, lo, hi)
        return TelemetrySnapshot(counters, timers, hists)

    def to_dict(self) -> dict:
        """Plain-dict form for JSON persistence."""
        return {
            "counters": dict(self.counters),
            "timers": {k: list(v) for k, v in self.timers.items()},
            "histograms": {k: list(v) for k, v in self.histograms.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetrySnapshot":
        """Inverse of :meth:`to_dict`."""
        return cls(
            counters={k: int(v) for k, v in data.get("counters", {}).items()},
            timers={
                k: (float(v[0]), int(v[1]))
                for k, v in data.get("timers", {}).items()
            },
            histograms={
                k: (int(v[0]), float(v[1]), float(v[2]), float(v[3]))
                for k, v in data.get("histograms", {}).items()
            },
        )


def merge_snapshots(snapshots: Iterable[TelemetrySnapshot]) -> TelemetrySnapshot:
    """Fold any number of snapshots into one (empty input → empty snapshot)."""
    out = TelemetrySnapshot()
    for snap in snapshots:
        out = out.merge(snap)
    return out


class Telemetry:
    """Mutable observability context for one (or many merged) runs.

    Optionally carries an :class:`~repro.obs.events.EventStream`;
    :meth:`emit` forwards to it and is a no-op without one, so engines
    can always emit through the telemetry object they were handed.
    """

    #: Engines skip all instrumentation when this is False.
    enabled: bool = True

    __slots__ = ("counters", "timers", "histograms", "events")

    def __init__(self, events: "EventStream | None" = None) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, list] = {}  # name -> [total_seconds, calls]
        self.histograms: dict[str, list] = {}  # name -> [count, sum, min, max]
        self.events = events

    # -- aggregates -----------------------------------------------------
    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def add_time(self, name: str, seconds: float, calls: int = 1) -> None:
        """Accumulate ``calls`` timed intervals totalling ``seconds``."""
        t = self.timers.get(name)
        if t is None:
            self.timers[name] = [seconds, calls]
        else:
            t[0] += seconds
            t[1] += calls

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """``with telemetry.timer("phase.x"):`` — wall-time the block."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - t0)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        h = self.histograms.get(name)
        if h is None:
            self.histograms[name] = [1, value, value, value]
        else:
            h[0] += 1
            h[1] += value
            if value < h[2]:
                h[2] = value
            if value > h[3]:
                h[3] = value

    # -- events ---------------------------------------------------------
    def emit(self, kind: str, ts: float, **data) -> None:
        """Forward a structured event to the attached stream, if any."""
        if self.events is not None:
            self.events.emit(kind, ts, **data)

    # -- snapshots ------------------------------------------------------
    def snapshot(self) -> TelemetrySnapshot:
        """Freeze the current aggregates (events are *not* included)."""
        return TelemetrySnapshot(
            counters=dict(self.counters),
            timers={k: (v[0], v[1]) for k, v in self.timers.items()},
            histograms={
                k: (v[0], v[1], v[2], v[3]) for k, v in self.histograms.items()
            },
        )

    def merge_snapshot(self, snap: TelemetrySnapshot | dict) -> None:
        """Fold a worker snapshot (or its dict form) into this context."""
        if isinstance(snap, dict):
            snap = TelemetrySnapshot.from_dict(snap)
        for name, value in snap.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, (total, calls) in snap.timers.items():
            t = self.timers.get(name)
            if t is None:
                self.timers[name] = [total, calls]
            else:
                t[0] += total
                t[1] += calls
        for name, (count, total, lo, hi) in snap.histograms.items():
            h = self.histograms.get(name)
            if h is None:
                self.histograms[name] = [count, total, lo, hi]
            else:
                h[0] += count
                h[1] += total
                if lo < h[2]:
                    h[2] = lo
                if hi > h[3]:
                    h[3] = hi


class NullTelemetry(Telemetry):
    """Disabled telemetry: every hook is a no-op.

    Engines treat it exactly like ``telemetry=None`` (the ``enabled``
    flag is resolved once, before the event loop), so passing it
    changes neither results nor — beyond one attribute check — running
    time.  A process-wide singleton is exported as
    :data:`NULL_TELEMETRY`.
    """

    enabled = False

    def inc(self, name: str, value: int = 1) -> None:  # pragma: no cover
        pass

    def add_time(
        self, name: str, seconds: float, calls: int = 1
    ) -> None:  # pragma: no cover
        pass

    def observe(self, name: str, value: float) -> None:  # pragma: no cover
        pass

    def emit(self, kind: str, ts: float, **data) -> None:  # pragma: no cover
        pass


#: Shared no-op instance — safe default anywhere a Telemetry is expected.
NULL_TELEMETRY = NullTelemetry()
