"""Lightweight named-phase wall-clock profiler.

:class:`PhaseProfiler` wraps a :class:`~repro.obs.telemetry.Telemetry`
and records ``perf_counter`` intervals under ``phase.<name>`` timer
keys — the same convention the engines use for ``prepare``, the
decision loop and the event loop, so profiler output and engine
telemetry aggregate into one table.  Snapshots are mergeable
(:meth:`~repro.obs.telemetry.TelemetrySnapshot.merge`), which is how
sharded sweeps in :mod:`repro.experiments.parallel` combine per-worker
profiles into one report regardless of the worker count.

:func:`render_profile` is the compact text table used by
``repro profile``; for the full report (decision costs, counters,
per-type breakdown) see :func:`repro.obs.export.render_summary`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs.telemetry import Telemetry, TelemetrySnapshot

__all__ = [
    "PhaseProfiler",
    "render_cache_line",
    "render_steal_line",
    "render_energy_line",
    "render_native_line",
    "render_profile",
]


class PhaseProfiler:
    """Accumulate wall time per named phase into a telemetry context."""

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self.telemetry = telemetry if telemetry is not None else Telemetry()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """``with profiler.phase("select"):`` — time the block."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.telemetry.add_time(f"phase.{name}", time.perf_counter() - t0)

    def time(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside :meth:`phase`."""
        with self.phase(name):
            return fn(*args, **kwargs)

    def snapshot(self) -> TelemetrySnapshot:
        """Mergeable frozen view of everything recorded so far."""
        return self.telemetry.snapshot()


def render_cache_line(snapshot: TelemetrySnapshot) -> str | None:
    """One-line result-cache summary, or ``None`` if no cache traffic.

    Reads the ``cache.*`` counters :mod:`repro.resultcache` maintains
    during sweeps — hits, misses (recomputed), invalidated (corrupt
    record replaced) and writes — so ``repro profile`` shows how much
    of a sweep was served from the persistent store.
    """
    hits = snapshot.counters.get("cache.hits", 0)
    misses = snapshot.counters.get("cache.misses", 0)
    invalid = snapshot.counters.get("cache.invalidated", 0)
    lookups = hits + misses + invalid
    if lookups == 0:
        return None
    return (
        f"result cache: {hits}/{lookups} hits ({hits / lookups:.0%}), "
        f"{misses} misses, {invalid} invalidated, "
        f"{snapshot.counters.get('cache.writes', 0)} written"
    )


def render_batch_line(snapshot: TelemetrySnapshot) -> str | None:
    """One-line batch-engine summary, or ``None`` if it never ran.

    Reads the ``batch.*`` counters :mod:`repro.sim.batch` maintains —
    rows simulated in lockstep, vectorized event rounds, and rows that
    fell back to the scalar engine — so ``repro profile`` shows how
    much of a sweep the batch engine actually carried.
    """
    instances = snapshot.counters.get("batch.instances", 0)
    fallback = snapshot.counters.get("batch.fallback", 0)
    if instances + fallback == 0:
        return None
    return (
        f"batch engine: {instances} rows in lockstep, "
        f"{snapshot.counters.get('batch.rounds', 0)} rounds, "
        f"{fallback} scalar fallbacks"
    )


def render_steal_line(snapshot: TelemetrySnapshot) -> str | None:
    """One-line work-stealing summary, or ``None`` without steal traffic.

    Reads the ``steal.*`` counters the decentralized engine
    (:mod:`repro.decentral.engine`) maintains — attempts, successful
    steals, empty-victim misses and tasks moved — so
    ``repro profile decentral`` surfaces the steal protocol's hit rate
    without needing the full ``--full`` report.
    """
    attempts = snapshot.counters.get("steal.attempts", 0)
    if attempts == 0:
        return None
    hits = snapshot.counters.get("steal.successes", 0)
    return (
        f"work stealing: {hits}/{attempts} steals hit "
        f"({hits / attempts:.0%}), "
        f"{snapshot.counters.get('steal.failed_empty', 0)} empty victims, "
        f"{snapshot.counters.get('steal.tasks_moved', 0)} tasks moved"
    )


def render_energy_line(snapshot: TelemetrySnapshot) -> str | None:
    """One-line energy-accounting summary, or ``None`` without traffic.

    Reads the ``energy.*`` counters the energy sweep
    (:mod:`repro.experiments.energy`) maintains — traced runs
    accounted, idle gaps decomposed, and gaps long enough to engage a
    shutdown window — so ``repro profile energy`` surfaces how much
    shutdown actually happened without the full ``--full`` report.
    """
    runs = snapshot.counters.get("energy.runs", 0)
    if runs == 0:
        return None
    gaps = snapshot.counters.get("energy.gaps", 0)
    slept = snapshot.counters.get("energy.shutdowns", 0)
    frac = f" ({slept / gaps:.0%} slept)" if gaps else ""
    return (
        f"energy accounting: {runs} runs, {gaps} idle gaps, "
        f"{slept} shutdowns{frac}"
    )


def render_native_line(snapshot: TelemetrySnapshot) -> str | None:
    """One-line native-kernel summary, or ``None`` without native traffic.

    Reads the ``native.*`` counters the engines and the MQB schedulers
    maintain — whole runs the C loop carried, selection picks committed
    by the compiled kernel (:mod:`repro.native`) and runs that requested
    the kernel but fell back to the Python path — so ``repro profile``
    shows which backend actually carried the work.
    """
    runs = snapshot.counters.get("native.runs", 0)
    calls = snapshot.counters.get("native.calls", 0)
    fallbacks = snapshot.counters.get("native.fallbacks", 0)
    if runs + calls + fallbacks == 0:
        return None
    line = f"native kernel: {calls} picks in C"
    if runs:
        line = f"native kernel: {runs} whole runs and {calls} picks in C"
    if fallbacks:
        line += f", {fallbacks} numpy fallbacks"
    return line


def render_profile(snapshot: TelemetrySnapshot, top_n: int = 20) -> str:
    """Text table of all timers in ``snapshot``, sorted by total time."""
    rows = sorted(
        ((name, total, calls) for name, (total, calls) in snapshot.timers.items()),
        key=lambda row: -row[1],
    )
    cache_line = render_cache_line(snapshot)
    for extra in (
        render_batch_line(snapshot),
        render_native_line(snapshot),
        render_steal_line(snapshot),
        render_energy_line(snapshot),
    ):
        if extra:
            cache_line = f"{cache_line}\n{extra}" if cache_line else extra
    if not rows:
        return cache_line if cache_line else "(no timers recorded)"
    lines = [f"{'timer':<32s} {'calls':>10s} {'total':>12s} {'mean':>12s}"]
    for name, total, calls in rows[:top_n]:
        mean = total / max(1, calls)
        if total >= 1.0:
            total_s, mean_s = f"{total:10.3f} s", f"{mean * 1e6:9.1f} us"
        else:
            total_s, mean_s = f"{total * 1e3:9.3f} ms", f"{mean * 1e6:9.1f} us"
        lines.append(f"{name:<32s} {calls:>10d} {total_s:>12s} {mean_s:>12s}")
    if len(rows) > top_n:
        lines.append(f"... and {len(rows) - top_n} more timers")
    if cache_line:
        lines.append(cache_line)
    return "\n".join(lines)
