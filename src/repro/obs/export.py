"""Exporters: Chrome trace-event JSON, JSON lines, and text summaries.

Three consumers of the observability data:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``chrome://tracing`` / Perfetto trace-event format.  Each resource
  type becomes a *process* (pid = type index) and each processor of
  the type a *thread* (tid = processor index), so the trace opens as a
  Gantt chart with one lane per processor; execution intervals are
  complete ``"X"`` events, decisions are instant events on a synthetic
  "scheduler" process, and the per-type ready/free samples become
  counter tracks.
* :func:`write_events_jsonl` / :func:`read_events_jsonl` — one event
  per line, round-trippable (asserted by ``tests/obs/test_export.py``).
* :func:`render_summary` — a text report: engine phase times, top-N
  per-scheduler prepare and decision costs, remaining counters,
  event-heap stats, and (when the event stream and resources are
  supplied) a per-type busy/idle/blocked wall-clock breakdown, where
  *blocked* is idle capacity that had matching ready work — the
  utilization-balancing failure mode the paper is about.

Simulation time is unitless; Chrome traces use microsecond ``ts``
fields, so one simulated time unit is exported as ``scale``
microseconds (default 1000, i.e. 1 unit = 1 ms on screen).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.events import (
    ARRIVAL,
    COMPLETE,
    DECISION,
    Event,
    EventStream,
    FAIL,
    JOB_DONE,
    KILL,
    REPAIR,
    SAMPLE,
    SLICE,
    STEAL,
)
from repro.obs.telemetry import TelemetrySnapshot

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
    "read_events_jsonl",
    "render_summary",
]


# --------------------------------------------------------------------------
# JSON lines
# --------------------------------------------------------------------------


def write_events_jsonl(events: Iterable[Event], path: str | Path) -> int:
    """Write one event per line; returns the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def read_events_jsonl(path: str | Path) -> list[Event]:
    """Read a JSON-lines event file back into :class:`Event` records."""
    out: list[Event] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(Event.from_dict(json.loads(line)))
    return out


# --------------------------------------------------------------------------
# Chrome trace-event format
# --------------------------------------------------------------------------


def _slice_lane(data: dict) -> int:
    """Thread id for a slice: the processor, or the job for stream runs."""
    proc = int(data.get("proc", 0))
    return proc if proc >= 0 else int(data.get("jid", 0))


def chrome_trace(
    events: Iterable[Event],
    resources=None,
    scale: float = 1000.0,
) -> dict:
    """Convert an event stream to a Chrome trace-event document.

    ``resources`` (a :class:`~repro.system.resources.ResourceConfig`)
    labels the process/thread metadata with per-type processor counts;
    without it the lane structure is inferred from the slices.
    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms"}``.
    """
    events = list(events)
    slices = [e for e in events if e.kind == SLICE]

    # Lane inventory: pid = resource type, tid = processor (or job lane).
    lanes: dict[int, set[int]] = {}
    for e in slices:
        alpha = int(e.data["alpha"])
        lanes.setdefault(alpha, set()).add(_slice_lane(e.data))
    if resources is not None:
        for alpha, count in enumerate(resources.counts):
            lanes.setdefault(alpha, set()).update(range(count))
    sched_pid = (
        resources.num_types if resources is not None
        else (max(lanes) + 1 if lanes else 0)
    )

    meta: list[dict] = []
    for alpha in sorted(lanes):
        label = f"type {alpha}"
        if resources is not None:
            label += f" (P={resources.counts[alpha]})"
        meta.append(
            {"ph": "M", "name": "process_name", "pid": alpha, "tid": 0,
             "args": {"name": label}}
        )
        meta.append(
            {"ph": "M", "name": "process_sort_index", "pid": alpha, "tid": 0,
             "args": {"sort_index": alpha}}
        )
        for tid in sorted(lanes[alpha]):
            meta.append(
                {"ph": "M", "name": "thread_name", "pid": alpha, "tid": tid,
                 "args": {"name": f"proc {tid}"}}
            )
    meta.append(
        {"ph": "M", "name": "process_name", "pid": sched_pid, "tid": 0,
         "args": {"name": "scheduler"}}
    )
    meta.append(
        {"ph": "M", "name": "process_sort_index", "pid": sched_pid, "tid": 0,
         "args": {"sort_index": sched_pid}}
    )

    body: list[dict] = []
    for e in events:
        ts = e.ts * scale
        data = e.data
        if e.kind == SLICE:
            name = f"task {data['task']}"
            if "jid" in data:
                name = f"J{data['jid']} {name}"
            body.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": "killed" if data.get("killed") else "task",
                    "ts": ts,
                    "dur": (float(data["end"]) - e.ts) * scale,
                    "pid": int(data["alpha"]),
                    "tid": _slice_lane(data),
                    "args": dict(data),
                }
            )
        elif e.kind == DECISION:
            body.append(
                {
                    "ph": "i",
                    "s": "p",
                    "name": f"decision (+{data.get('n', 0)})",
                    "cat": "decision",
                    "ts": ts,
                    "pid": sched_pid,
                    "tid": 0,
                    "args": dict(data),
                }
            )
        elif e.kind == SAMPLE:
            ready = data.get("ready", ())
            free = data.get("free", ())
            body.append(
                {
                    "ph": "C",
                    "name": "ready",
                    "ts": ts,
                    "pid": sched_pid,
                    "args": {f"type{a}": int(r) for a, r in enumerate(ready)},
                }
            )
            body.append(
                {
                    "ph": "C",
                    "name": "free",
                    "ts": ts,
                    "pid": sched_pid,
                    "args": {f"type{a}": int(f) for a, f in enumerate(free)},
                }
            )
        elif e.kind in (FAIL, REPAIR, KILL):
            body.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": e.kind.upper(),
                    "cat": "fault",
                    "ts": ts,
                    "pid": int(data["alpha"]),
                    "tid": _slice_lane(data),
                    "args": dict(data),
                }
            )
        elif e.kind == STEAL:
            # An instant on the thief's lane: a steal storm shows up as
            # a burst of marks across a type's processors.
            hit = data.get("ok", bool(data.get("n", 0)))
            body.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": (
                        f"steal +{data.get('n', 0)} from p{data.get('victim', '?')}"
                        if hit else f"steal miss p{data.get('victim', '?')}"
                    ),
                    "cat": "steal",
                    "ts": ts,
                    "pid": int(data["alpha"]),
                    "tid": int(data.get("thief", 0)),
                    "args": dict(data),
                }
            )
        elif e.kind in (ARRIVAL, JOB_DONE, COMPLETE):
            # Lightweight instants; completions already end an X slice,
            # so only job-level events get their own marks.
            if e.kind == COMPLETE:
                continue
            body.append(
                {
                    "ph": "i",
                    "s": "g",
                    "name": f"{e.kind} J{data.get('jid', '?')}",
                    "cat": "job",
                    "ts": ts,
                    "pid": sched_pid,
                    "tid": 0,
                    "args": dict(data),
                }
            )
        # Unknown kinds (forward compatibility) are skipped silently.

    body.sort(key=lambda ev: ev["ts"])
    return {"traceEvents": meta + body, "displayTimeUnit": "ms"}


def write_chrome_trace(
    events: Iterable[Event],
    path: str | Path,
    resources=None,
    scale: float = 1000.0,
) -> Path:
    """Write :func:`chrome_trace` output to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(events, resources, scale)))
    return path


# --------------------------------------------------------------------------
# Text summary
# --------------------------------------------------------------------------


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f} s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f} ms"
    return f"{seconds * 1e6:8.1f} us"


def _busy_idle_blocked(events: list[Event], resources, makespan: float):
    """Per-type (busy, idle, blocked) seconds from slices and samples.

    ``blocked`` integrates ``min(free, ready)`` over the piecewise-
    constant sample timeline: capacity that sat idle while matching
    work was queued.  Work-conserving schedulers keep it at zero in
    fault-free runs; capacity drops and type mismatches make it
    visible.
    """
    k = resources.num_types
    busy = [0.0] * k
    for e in events:
        if e.kind == SLICE:
            busy[int(e.data["alpha"])] += float(e.data["end"]) - e.ts
    blocked = [0.0] * k
    samples = [e for e in events if e.kind == SAMPLE]
    for i, e in enumerate(samples):
        t_next = samples[i + 1].ts if i + 1 < len(samples) else makespan
        dt = max(0.0, t_next - e.ts)
        ready = e.data.get("ready", ())
        free = e.data.get("free", ())
        for a in range(min(k, len(ready), len(free))):
            blocked[a] += dt * min(int(free[a]), int(ready[a]))
    idle = [
        max(0.0, resources.counts[a] * makespan - busy[a] - blocked[a])
        for a in range(k)
    ]
    return busy, idle, blocked


def render_summary(
    snapshot: TelemetrySnapshot,
    events: "EventStream | list[Event] | None" = None,
    resources=None,
    makespan: float | None = None,
    top_n: int = 10,
) -> str:
    """Human-readable observability report (see the module docstring)."""
    lines: list[str] = []

    phases = sorted(
        (name, total, calls)
        for name, (total, calls) in snapshot.timers.items()
        if name.startswith("phase.")
    )
    if phases:
        lines.append("engine phases:")
        lines.append(f"  {'phase':<24s} {'calls':>8s} {'total':>11s} {'mean':>11s}")
        for name, total, calls in phases:
            lines.append(
                f"  {name[len('phase.'):]:<24s} {calls:>8d}"
                f" {_fmt_s(total):>11s} {_fmt_s(total / max(1, calls)):>11s}"
            )

    prepares = sorted(
        (
            (name[len("prepare."):], total, calls)
            for name, (total, calls) in snapshot.timers.items()
            if name.startswith("prepare.")
        ),
        key=lambda row: -row[1],
    )
    if prepares:
        if lines:
            lines.append("")
        lines.append("scheduler prepare costs (offline passes):")
        lines.append(
            f"  {'scheduler':<16s} {'runs':>8s} {'total':>11s} {'mean/run':>11s}"
        )
        for name, total, calls in prepares[:top_n]:
            lines.append(
                f"  {name:<16s} {calls:>8d}"
                f" {_fmt_s(total):>11s} {_fmt_s(total / max(1, calls)):>11s}"
            )

    decisions = sorted(
        (
            (name[len("decision."):], total, calls)
            for name, (total, calls) in snapshot.timers.items()
            if name.startswith("decision.")
        ),
        key=lambda row: -row[1],
    )
    if decisions:
        if lines:
            lines.append("")
        lines.append(f"scheduler decision costs (top {min(top_n, len(decisions))}):")
        lines.append(
            f"  {'scheduler':<16s} {'rounds':>8s} {'started':>8s}"
            f" {'total':>11s} {'mean/round':>11s}"
        )
        for name, total, calls in decisions[:top_n]:
            started = snapshot.counters.get(f"dispatched.{name}", 0)
            lines.append(
                f"  {name:<16s} {calls:>8d} {started:>8d}"
                f" {_fmt_s(total):>11s} {_fmt_s(total / max(1, calls)):>11s}"
            )

    if events is not None and resources is not None:
        event_list = list(events)
        if makespan is None:
            makespan = max(
                (float(e.data["end"]) for e in event_list if e.kind == SLICE),
                default=0.0,
            )
        if makespan > 0:
            busy, idle, blocked = _busy_idle_blocked(
                event_list, resources, makespan
            )
            if lines:
                lines.append("")
            lines.append(
                f"per-type utilization over [0, {makespan:g}] "
                "(schedule-time units):"
            )
            lines.append(
                f"  {'type':<6s} {'procs':>5s} {'busy':>12s} {'idle':>12s}"
                f" {'blocked':>12s} {'util':>7s}"
            )
            for a in range(resources.num_types):
                cap = resources.counts[a] * makespan
                util = busy[a] / cap if cap > 0 else 0.0
                lines.append(
                    f"  t{a:<5d} {resources.counts[a]:>5d} {busy[a]:>12.2f}"
                    f" {idle[a]:>12.2f} {blocked[a]:>12.2f} {util:>6.1%}"
                )
        if isinstance(events, EventStream) and events.dropped:
            lines.append(
                f"  (ring buffer dropped {events.dropped} of "
                f"{events.emitted} events; interval stats are partial)"
            )

    heap_hists = sorted(
        (name, vals)
        for name, vals in snapshot.histograms.items()
        if name.startswith("engine.")
    )
    if heap_hists:
        if lines:
            lines.append("")
        lines.append("event-loop stats:")
        for name, (count, total, lo, hi) in heap_hists:
            mean = total / max(1, count)
            lines.append(
                f"  {name:<24s} n={count:<6d} min={lo:<8g} "
                f"mean={mean:<10.2f} max={hi:g}"
            )

    counters = sorted(
        (name, value)
        for name, value in snapshot.counters.items()
        if not name.startswith(("decisions.", "dispatched."))
    )
    if counters:
        if lines:
            lines.append("")
        lines.append("counters:")
        for name, value in counters:
            lines.append(f"  {name:<32s} {value}")

    return "\n".join(lines) if lines else "(no telemetry recorded)"
