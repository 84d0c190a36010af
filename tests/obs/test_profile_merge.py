"""Profiler tests: phase timing and worker-count-independent merging.

The contract under test: profiling a sharded sweep merges per-chunk
telemetry snapshots, so every **counter** total is identical for any
worker count (timers are wall-clock facts of the actual run and are
only checked for presence).
"""

from __future__ import annotations

import pytest

from repro.experiments.robustness import run_robustness_comparison
from repro.experiments.runner import run_comparison
from repro.obs.profile import PhaseProfiler, render_profile
from repro.obs.telemetry import Telemetry
from repro.workloads.generator import WORKLOAD_CELLS

ALGOS = ("kgreedy", "mqb")
SPEC = WORKLOAD_CELLS["small-layered-ep"]


class TestPhaseProfiler:
    def test_phase_accumulates_under_convention_key(self):
        prof = PhaseProfiler()
        with prof.phase("select"):
            pass
        with prof.phase("select"):
            pass
        snap = prof.snapshot()
        assert snap.timers["phase.select"][1] == 2

    def test_time_returns_value(self):
        prof = PhaseProfiler()
        assert prof.time("add", lambda a, b: a + b, 2, 3) == 5
        assert "phase.add" in prof.snapshot().timers

    def test_wraps_existing_telemetry(self):
        telemetry = Telemetry()
        prof = PhaseProfiler(telemetry)
        with prof.phase("x"):
            pass
        assert "phase.x" in telemetry.timers

    def test_render_profile(self):
        prof = PhaseProfiler()
        with prof.phase("x"):
            pass
        text = render_profile(prof.snapshot())
        assert "phase.x" in text
        assert render_profile(Telemetry().snapshot()) == "(no timers recorded)"


class TestMergedSweepProfiles:
    @pytest.mark.parametrize("preemptive", [False, True])
    def test_comparison_counters_match_across_worker_counts(self, preemptive):
        counters = {}
        for workers in (1, 4):
            telemetry = Telemetry()
            run_comparison(
                SPEC, ALGOS, 12, 99, preemptive=preemptive,
                n_workers=workers, telemetry=telemetry,
            )
            counters[workers] = dict(telemetry.counters)
        assert counters[1] == counters[4]
        assert counters[1]["sweep.instances"] == 12
        assert counters[1]["engine.runs"] == 12 * len(ALGOS)

    def test_comparison_timers_present_for_any_worker_count(self):
        for workers in (1, 4):
            telemetry = Telemetry()
            run_comparison(SPEC, ALGOS, 8, 99, n_workers=workers,
                           telemetry=telemetry)
            assert {"phase.prepare", "phase.engine_loop",
                    "phase.sample_instance"} <= set(telemetry.timers)
            for name in ALGOS:
                assert f"decision.{name}" in telemetry.timers
                # Each scheduler's share of phase.prepare, one per run.
                assert telemetry.timers[f"prepare.{name}"][1] == 8
            assert telemetry.timers["phase.prepare"][1] == 8 * len(ALGOS)

    def test_robustness_counters_match_across_worker_counts(self):
        counters = {}
        for workers in (1, 4):
            telemetry = Telemetry()
            run_robustness_comparison(
                SPEC, ALGOS, (0.0, 0.5), 6, 99,
                n_workers=workers, telemetry=telemetry,
            )
            counters[workers] = dict(telemetry.counters)
        assert counters[1] == counters[4]
        assert counters[1]["engine.kills"] >= 0

    def test_results_unchanged_by_profiling(self):
        plain = run_comparison(SPEC, ALGOS, 10, 7, n_workers=4)
        profiled = run_comparison(
            SPEC, ALGOS, 10, 7, n_workers=4, telemetry=Telemetry()
        )
        assert [s.to_dict() for s in plain] == [s.to_dict() for s in profiled]
