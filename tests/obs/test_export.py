"""Exporter tests: Chrome trace-event structure and JSONL round-trips.

The Chrome trace checks encode what Perfetto / ``chrome://tracing``
actually require to load a file: a ``traceEvents`` list, monotonically
non-decreasing ``ts`` over the event body, complete (``"X"``) events
with non-negative durations, and a consistent pid/tid mapping (pid =
resource type, tid = processor lane).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs.events import EventStream, SLICE
from repro.obs.export import (
    chrome_trace,
    read_events_jsonl,
    render_summary,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.obs.telemetry import Telemetry
from repro.schedulers.registry import make_scheduler
from repro.sim.engine import simulate
from repro.workloads.generator import WORKLOAD_CELLS, sample_instance


@pytest.fixture(scope="module")
def traced_run():
    """One traced KGreedy run on the small EP cell."""
    job, system = sample_instance(
        WORKLOAD_CELLS["small-layered-ep"], np.random.default_rng(11)
    )
    telemetry = Telemetry(events=EventStream())
    result = simulate(
        job, system, make_scheduler("kgreedy"),
        rng=np.random.default_rng(11), telemetry=telemetry,
    )
    return job, system, telemetry, result


class TestChromeTrace:
    def test_document_shape(self, traced_run):
        _, system, telemetry, _ = traced_run
        doc = chrome_trace(telemetry.events, resources=system)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["traceEvents"]

    def test_body_sorted_by_ts(self, traced_run):
        _, system, telemetry, _ = traced_run
        doc = chrome_trace(telemetry.events, resources=system)
        body = [ev for ev in doc["traceEvents"] if ev["ph"] != "M"]
        ts = [ev["ts"] for ev in body]
        assert ts == sorted(ts)

    def test_x_events_cover_every_task_once(self, traced_run):
        job, system, telemetry, _ = traced_run
        doc = chrome_trace(telemetry.events, resources=system)
        xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        # Non-preemptive engine: exactly one complete event per task.
        assert len(xs) == job.n_tasks
        assert all(ev["dur"] >= 0 for ev in xs)

    def test_pid_tid_map_to_type_and_proc(self, traced_run):
        job, system, telemetry, _ = traced_run
        doc = chrome_trace(telemetry.events, resources=system)
        for ev in doc["traceEvents"]:
            if ev["ph"] != "X":
                continue
            alpha, proc = ev["pid"], ev["tid"]
            assert 0 <= alpha < system.num_types
            assert 0 <= proc < system.counts[alpha]
            assert int(job.types[ev["args"]["task"]]) == alpha

    def test_scale_converts_sim_time(self, traced_run):
        _, system, telemetry, result = traced_run
        doc = chrome_trace(telemetry.events, resources=system, scale=10.0)
        xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert max(ev["ts"] + ev["dur"] for ev in xs) == pytest.approx(
            result.makespan * 10.0
        )

    def test_metadata_names_every_lane(self, traced_run):
        _, system, telemetry, _ = traced_run
        doc = chrome_trace(telemetry.events, resources=system)
        meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        procs = {
            ev["pid"]
            for ev in meta
            if ev["name"] == "process_name" and "type" in ev["args"]["name"]
        }
        assert procs == set(range(system.num_types))

    def test_write_is_valid_json(self, traced_run, tmp_path):
        _, system, telemetry, _ = traced_run
        path = write_chrome_trace(
            telemetry.events, tmp_path / "t.json", resources=system
        )
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_stream_slices_lane_by_job(self):
        s = EventStream()
        s.emit(SLICE, 0.0, jid=4, task=1, alpha=0, proc=-1, end=2.0)
        doc = chrome_trace(s)
        xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert xs[0]["tid"] == 4
        assert xs[0]["name"] == "J4 task 1"


class TestJsonl:
    def test_round_trip(self, traced_run, tmp_path):
        _, _, telemetry, _ = traced_run
        path = tmp_path / "events.jsonl"
        n = write_events_jsonl(telemetry.events, path)
        events = read_events_jsonl(path)
        assert n == len(events) == len(telemetry.events)
        assert events == list(telemetry.events)

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_events_jsonl(EventStream(), path) == 0
        assert read_events_jsonl(path) == []


class TestSummary:
    def test_reports_decision_costs_and_utilization(self, traced_run):
        _, system, telemetry, result = traced_run
        text = render_summary(
            telemetry.snapshot(),
            events=telemetry.events,
            resources=system,
            makespan=result.makespan,
        )
        assert "kgreedy" in text
        assert "scheduler prepare costs" in text
        assert "per-type utilization" in text
        for a in range(system.num_types):
            assert f"t{a}" in text

    def test_busy_matches_total_work(self, traced_run):
        job, system, telemetry, result = traced_run
        text = render_summary(
            telemetry.snapshot(),
            events=telemetry.events,
            resources=system,
            makespan=result.makespan,
        )
        # Per-type busy columns must sum to the job's total work.
        busy = 0.0
        for line in text.splitlines():
            parts = line.split()
            if parts and parts[0].startswith("t") and parts[0][1:].isdigit():
                busy += float(parts[2])
        assert busy == pytest.approx(float(job.work.sum()))

    def test_warns_about_dropped_events(self):
        job, system = sample_instance(
            WORKLOAD_CELLS["small-layered-ep"], np.random.default_rng(3)
        )
        telemetry = Telemetry(events=EventStream(capacity=8))
        simulate(
            job, system, make_scheduler("lspan"),
            rng=np.random.default_rng(3), telemetry=telemetry,
        )
        text = render_summary(
            telemetry.snapshot(), events=telemetry.events, resources=system
        )
        assert "ring buffer dropped" in text

    def test_empty_snapshot(self):
        from repro.obs.telemetry import TelemetrySnapshot

        assert render_summary(TelemetrySnapshot()) == "(no telemetry recorded)"
