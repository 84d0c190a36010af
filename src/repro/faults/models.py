"""Failure/repair timeline generation for fault injection.

A :class:`FaultTimeline` is the ground truth the fault-aware engine
executes against: per processor ``(alpha, proc)``, a sorted list of
disjoint *down intervals* ``[start, end)`` during which the processor
can run nothing.  Timelines are produced by :class:`FaultModel`
implementations from a seeded ``np.random.Generator``, so fault runs
are exactly reproducible and shard across worker processes like every
other sweep in this repository:

* :class:`NoFaults` — the empty timeline (the λ=0 control).  The fault
  engine is :func:`repro.sim.engine.simulate`'s loop with a seam that
  never fires on it, so the run is bit-identical by construction.
* :class:`ExponentialFaults` — the classic MTBF/MTTR renewal process:
  per processor, exponential up-times (mean ``mtbf``) alternate with
  exponential down-times (mean ``mttr``) until the horizon.
* :class:`MaintenanceWindows` — deterministic periodic windows
  (staggered per processor), modelling planned maintenance.
* :class:`CorrelatedRackFaults` — processors are grouped into "racks"
  of consecutive global indices; each rack fails as a unit, modelling
  shared power/network domains.  This is the stress case for
  utilization balancing: a rack outage can wipe out most of one type's
  capacity at once.

Machine availability as a first-class scheduling concern follows the
busy-time literature on heterogeneous machines (arXiv:2105.06287) and
the robustness motivation of decentralized list scheduling
(arXiv:1107.3734).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ConfigurationError, ValidationError
from repro.system.resources import ResourceConfig

__all__ = [
    "Outage",
    "FaultTimeline",
    "FaultModel",
    "NoFaults",
    "ExponentialFaults",
    "MaintenanceWindows",
    "CorrelatedRackFaults",
    "FAULT_MODELS",
    "make_fault_model",
]


@dataclass(frozen=True, slots=True)
class Outage:
    """One down interval ``[start, end)`` of one processor."""

    alpha: int
    proc: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValidationError(
                f"outage starts at negative time {self.start}"
            )
        if self.end <= self.start:
            raise ValidationError(
                f"outage for ({self.alpha}, {self.proc}) has non-positive "
                f"duration [{self.start}, {self.end})"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


class FaultTimeline:
    """Sorted, disjoint down intervals per processor.

    Overlapping or touching intervals of the same processor are merged
    at construction, so consumers can rely on a strictly increasing
    ``... end_i < start_{i+1} ...`` sequence per processor.
    """

    def __init__(self, outages: Iterable[Outage] = ()) -> None:
        by_proc: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for o in outages:
            by_proc.setdefault((o.alpha, o.proc), []).append((o.start, o.end))
        merged: dict[tuple[int, int], list[tuple[float, float]]] = {}
        for key, intervals in by_proc.items():
            intervals.sort()
            out: list[tuple[float, float]] = []
            for s, e in intervals:
                if out and s <= out[-1][1]:
                    out[-1] = (out[-1][0], max(out[-1][1], e))
                else:
                    out.append((s, e))
            merged[key] = out
        self._by_proc = merged

    # -- queries --------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self._by_proc

    @property
    def n_outages(self) -> int:
        return sum(len(v) for v in self._by_proc.values())

    def down_intervals(self, alpha: int, proc: int) -> list[tuple[float, float]]:
        """Sorted disjoint down intervals of one processor."""
        return list(self._by_proc.get((alpha, proc), ()))

    def __iter__(self) -> Iterator[Outage]:
        for (alpha, proc), intervals in sorted(self._by_proc.items()):
            for s, e in intervals:
                yield Outage(alpha, proc, s, e)

    def events(self) -> list[tuple[float, str, int, int]]:
        """All ``(time, "fail"|"repair", alpha, proc)`` events, sorted."""
        out: list[tuple[float, str, int, int]] = []
        for (alpha, proc), intervals in self._by_proc.items():
            for s, e in intervals:
                out.append((s, "fail", alpha, proc))
                out.append((e, "repair", alpha, proc))
        out.sort(key=lambda t: (t[0], t[1] != "repair", t[2], t[3]))
        return out

    def total_downtime(self, alpha: int | None = None) -> float:
        """Summed down-interval length (optionally for one type)."""
        return sum(
            e - s
            for (a, _), intervals in self._by_proc.items()
            if alpha is None or a == alpha
            for s, e in intervals
        )

    def is_down(self, alpha: int, proc: int, time: float) -> bool:
        """Whether the processor is down at ``time``."""
        return any(
            s <= time < e for s, e in self._by_proc.get((alpha, proc), ())
        )

    def check_procs(self, resources: ResourceConfig) -> None:
        """Raise unless every referenced processor exists in ``resources``."""
        for alpha, proc in self._by_proc:
            if not 0 <= alpha < resources.num_types:
                raise ValidationError(
                    f"timeline references type {alpha} but K={resources.num_types}"
                )
            if not 0 <= proc < resources.counts[alpha]:
                raise ValidationError(
                    f"timeline references processor ({alpha}, {proc}) but "
                    f"type {alpha} has only {resources.counts[alpha]} processors"
                )


class FaultModel(ABC):
    """A distribution over failure/repair timelines."""

    @abstractmethod
    def sample(
        self,
        resources: ResourceConfig,
        horizon: float,
        rng: np.random.Generator,
    ) -> FaultTimeline:
        """Draw one timeline covering ``[0, horizon)``.

        No *new* failures start at or after ``horizon``; a repair may
        extend past it.  Sampling iterates processors in type-major
        order with a single generator, so one seed fully determines the
        timeline.
        """


def _check_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")


def _renewal_outages(
    alpha: int,
    proc: int,
    mtbf: float,
    mttr: float,
    horizon: float,
    rng: np.random.Generator,
) -> list[Outage]:
    """Alternating exponential up/down intervals for one processor."""
    out: list[Outage] = []
    if not math.isfinite(mtbf):
        return out
    t = 0.0
    while True:
        t += float(rng.exponential(mtbf))
        if t >= horizon:
            return out
        down = float(rng.exponential(mttr))
        if down > 0.0:
            out.append(Outage(alpha, proc, t, t + down))
        t += down


@dataclass(frozen=True)
class NoFaults(FaultModel):
    """The empty timeline — the λ=0 control.

    On it the fault engine's seam puts nothing in the heap, so the run
    is :func:`repro.sim.engine.simulate`'s, bit for bit.
    """

    def sample(
        self,
        resources: ResourceConfig,
        horizon: float,
        rng: np.random.Generator,
    ) -> FaultTimeline:
        return FaultTimeline()


@dataclass(frozen=True)
class ExponentialFaults(FaultModel):
    """Independent per-processor MTBF/MTTR renewal processes.

    ``mtbf`` is the mean up-time between a repair and the next failure
    (``math.inf`` disables failures entirely); ``mttr`` the mean repair
    time.  Both in the same time unit as task work.
    """

    mtbf: float
    mttr: float

    def __post_init__(self) -> None:
        if not self.mtbf > 0:
            raise ConfigurationError(f"mtbf must be > 0, got {self.mtbf}")
        _check_positive("mttr", self.mttr)

    def sample(
        self,
        resources: ResourceConfig,
        horizon: float,
        rng: np.random.Generator,
    ) -> FaultTimeline:
        _check_positive("horizon", horizon)
        outages: list[Outage] = []
        for alpha in range(resources.num_types):
            for proc in range(resources.counts[alpha]):
                outages.extend(
                    _renewal_outages(
                        alpha, proc, self.mtbf, self.mttr, horizon, rng
                    )
                )
        return FaultTimeline(outages)


@dataclass(frozen=True)
class MaintenanceWindows(FaultModel):
    """Deterministic periodic maintenance windows.

    Every processor goes down for ``duration`` every ``period`` time
    units, its first window starting at ``offset + stagger * g`` where
    ``g`` is the processor's global (type-major) index.  ``stagger > 0``
    staggers windows so capacity never drops to zero at once;
    ``stagger = 0`` models a synchronized full-system maintenance.
    The sampled timeline ignores ``rng`` — it is deterministic.
    """

    period: float
    duration: float
    offset: float = 0.0
    stagger: float = 0.0

    def __post_init__(self) -> None:
        _check_positive("period", self.period)
        _check_positive("duration", self.duration)
        if self.duration >= self.period:
            raise ConfigurationError(
                f"duration {self.duration} must be < period {self.period}"
            )
        if self.offset < 0 or self.stagger < 0:
            raise ConfigurationError("offset and stagger must be >= 0")

    def sample(
        self,
        resources: ResourceConfig,
        horizon: float,
        rng: np.random.Generator,
    ) -> FaultTimeline:
        _check_positive("horizon", horizon)
        outages: list[Outage] = []
        g = 0
        for alpha in range(resources.num_types):
            for proc in range(resources.counts[alpha]):
                first = self.offset + self.stagger * g
                start = first
                while start < horizon:
                    if start + self.duration > 0:
                        outages.append(
                            Outage(
                                alpha, proc, max(start, 0.0),
                                start + self.duration,
                            )
                        )
                    start += self.period
                g += 1
        return FaultTimeline(outages)


@dataclass(frozen=True)
class CorrelatedRackFaults(FaultModel):
    """Rack-level outages: groups of processors fail together.

    Processors are numbered globally in type-major order and grouped
    into racks of ``rack_size`` consecutive indices (so a rack can span
    a type boundary, as physical racks mix machine roles).  Each rack
    follows one MTBF/MTTR renewal process; all of its processors share
    the rack's down intervals.
    """

    rack_size: int
    mtbf: float
    mttr: float

    def __post_init__(self) -> None:
        if self.rack_size < 1:
            raise ConfigurationError(
                f"rack_size must be >= 1, got {self.rack_size}"
            )
        if not self.mtbf > 0:
            raise ConfigurationError(f"mtbf must be > 0, got {self.mtbf}")
        _check_positive("mttr", self.mttr)

    def sample(
        self,
        resources: ResourceConfig,
        horizon: float,
        rng: np.random.Generator,
    ) -> FaultTimeline:
        _check_positive("horizon", horizon)
        procs = [
            (alpha, proc)
            for alpha in range(resources.num_types)
            for proc in range(resources.counts[alpha])
        ]
        outages: list[Outage] = []
        for lo in range(0, len(procs), self.rack_size):
            rack = procs[lo : lo + self.rack_size]
            rack_outages = _renewal_outages(
                0, 0, self.mtbf, self.mttr, horizon, rng
            )
            for o in rack_outages:
                for alpha, proc in rack:
                    outages.append(Outage(alpha, proc, o.start, o.end))
        return FaultTimeline(outages)


#: Registry names for CLI/experiment construction.
FAULT_MODELS = ("none", "exponential", "maintenance", "rack")


def make_fault_model(name: str, **kwargs) -> FaultModel:
    """Construct a fault model from its registry name."""
    key = name.strip().lower()
    if key == "none":
        return NoFaults()
    if key == "exponential":
        return ExponentialFaults(**kwargs)
    if key == "maintenance":
        return MaintenanceWindows(**kwargs)
    if key == "rack":
        return CorrelatedRackFaults(**kwargs)
    raise ConfigurationError(
        f"unknown fault model {name!r}; known: {sorted(FAULT_MODELS)}"
    )
