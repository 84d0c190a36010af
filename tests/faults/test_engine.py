"""Unit tests for the fault-aware simulation engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro import KDag, ResourceConfig, make_scheduler
from repro.errors import ConfigurationError, SchedulingError
from repro.faults.engine import simulate_with_faults
from repro.faults.models import FaultTimeline, MaintenanceWindows, Outage
from repro.faults.validate import validate_fault_schedule
from repro.schedulers.kgreedy import KGreedy


def one_task_job(work: float = 4.0) -> KDag:
    return KDag(types=[0], work=[work], num_types=1)


class TestKillAndRecover:
    """One task of work 4 on one processor that dies during [2, 3)."""

    TIMELINE = FaultTimeline([Outage(0, 0, 2.0, 3.0)])

    def test_restart_reexecutes_from_scratch(self):
        res = simulate_with_faults(
            one_task_job(), ResourceConfig((1,)), make_scheduler("kgreedy"),
            self.TIMELINE, policy="restart", record_trace=True,
        )
        # Killed at 2 (2 units wasted), processor back at 3, full rerun.
        assert res.makespan == 7.0
        assert res.kills == 1
        assert res.wasted_work == 2.0
        killed = [s for s in res.trace if s.killed]
        assert [(s.start, s.end) for s in killed] == [(0.0, 2.0)]
        survivors = [s for s in res.trace if not s.killed]
        assert [(s.start, s.end) for s in survivors] == [(3.0, 7.0)]

    def test_checkpoint_resumes_remaining_work(self):
        res = simulate_with_faults(
            one_task_job(), ResourceConfig((1,)), make_scheduler("kgreedy"),
            self.TIMELINE, policy="checkpoint", record_trace=True,
        )
        # 2 of 4 units survive the kill; only 2 remain after repair.
        assert res.makespan == 5.0
        assert res.kills == 1
        assert res.wasted_work == 0.0
        survivors = [s for s in res.trace if not s.killed]
        assert [(s.start, s.end) for s in survivors] == [(3.0, 5.0)]

    def test_checkpoint_resumes_exactly_finish_minus_kill(self):
        # The resumed task keeps finish - now of the killed dispatch,
        # with finish = start + work as the heap held it: 0.1 + 0.7 is
        # 0.7999999999999999, so the run ends at 0.8999999999999999,
        # not at the 0.9 that work - (now - start) would give.
        job = KDag(types=[0, 0], work=[0.1, 0.7], edges=[(0, 1)], num_types=1)
        res = simulate_with_faults(
            job, ResourceConfig((1,)), make_scheduler("kgreedy"),
            FaultTimeline([Outage(0, 0, 0.3, 0.4)]), policy="checkpoint",
        )
        assert res.kills == 1
        assert res.makespan == 0.4 + ((0.1 + 0.7) - 0.3)

    @pytest.mark.parametrize("policy", ["restart", "checkpoint"])
    def test_traces_validate(self, policy):
        res = simulate_with_faults(
            one_task_job(), ResourceConfig((1,)), make_scheduler("kgreedy"),
            self.TIMELINE, policy=policy, record_trace=True,
        )
        validate_fault_schedule(
            one_task_job(), ResourceConfig((1,)), res.trace,
            self.TIMELINE, makespan=res.makespan, policy=policy,
        )


class TestEventOrdering:
    def test_completion_at_failure_instant_wins(self):
        # Task finishes at exactly t=2, the failure instant: completions
        # resolve before failures, so nothing is killed.
        timeline = FaultTimeline([Outage(0, 0, 2.0, 3.0)])
        res = simulate_with_faults(
            one_task_job(work=2.0), ResourceConfig((1,)),
            make_scheduler("kgreedy"), timeline,
        )
        assert res.makespan == 2.0
        assert res.kills == 0

    def test_outage_at_time_zero_delays_start(self):
        timeline = FaultTimeline([Outage(0, 0, 0.0, 1.0)])
        res = simulate_with_faults(
            one_task_job(work=1.0), ResourceConfig((1,)),
            make_scheduler("kgreedy"), timeline,
        )
        assert res.makespan == 2.0
        assert res.kills == 0

    def test_idle_processor_failure_kills_nothing(self):
        timeline = FaultTimeline([Outage(0, 1, 0.5, 1.5)])
        res = simulate_with_faults(
            one_task_job(work=4.0), ResourceConfig((2,)),
            make_scheduler("kgreedy"), timeline,
        )
        # The engine dispatches to proc 0 first; proc 1's outage is moot.
        assert res.makespan == 4.0
        assert res.kills == 0

    def test_back_to_back_outage_only_kills_once(self):
        # Adjacent outages merge into one down interval at construction.
        timeline = FaultTimeline(
            [Outage(0, 0, 1.0, 2.0), Outage(0, 0, 2.0, 3.0)]
        )
        res = simulate_with_faults(
            one_task_job(work=2.0), ResourceConfig((1,)),
            make_scheduler("kgreedy"), timeline, policy="checkpoint",
        )
        assert res.kills == 1
        assert res.makespan == 4.0  # 1 done, down [1,3), 1 remaining


class TestSchedulerInteraction:
    def test_capacity_changed_hook_sees_up_counts(self):
        calls: list[tuple[int, int, float]] = []

        class Spy(KGreedy):
            def capacity_changed(self, alpha, up, time):
                calls.append((alpha, up, time))

        timeline = FaultTimeline([Outage(0, 1, 0.5, 1.5)])
        simulate_with_faults(
            one_task_job(work=4.0), ResourceConfig((2,)), Spy(), timeline
        )
        assert calls == [(0, 1, 0.5), (0, 2, 1.5)]

    def test_victim_reenters_ready_pool_and_runs_elsewhere(self):
        # Two procs; proc 0 dies mid-task and never comes back within
        # the run, so the victim must restart on proc 1.
        job = KDag(types=[0], work=[4.0], num_types=1)
        timeline = FaultTimeline([Outage(0, 0, 2.0, 100.0)])
        res = simulate_with_faults(
            job, ResourceConfig((2,)), make_scheduler("kgreedy"),
            timeline, record_trace=True,
        )
        assert res.makespan == 6.0
        survivor = next(s for s in res.trace if not s.killed)
        assert survivor.proc == 1


class TestGuards:
    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="unknown fault policy"):
            simulate_with_faults(
                one_task_job(), ResourceConfig((1,)),
                make_scheduler("kgreedy"), policy="pray",
            )

    def test_timeline_procs_checked(self):
        timeline = FaultTimeline([Outage(0, 7, 1.0, 2.0)])
        with pytest.raises(Exception, match="only 1 processors"):
            simulate_with_faults(
                one_task_job(), ResourceConfig((1,)),
                make_scheduler("kgreedy"), timeline,
            )

    def test_livelock_guard_trips(self):
        # Up-windows of 0.5 can never fit a task of work 2.
        model = MaintenanceWindows(period=1.0, duration=0.5, offset=0.5)
        timeline = model.sample(
            ResourceConfig((1,)), 10_000.0, np.random.default_rng(0)
        )
        with pytest.raises(SchedulingError, match="livelock guard"):
            simulate_with_faults(
                one_task_job(work=2.0), ResourceConfig((1,)),
                make_scheduler("kgreedy"), timeline, max_kills=25,
            )

    def test_stall_reports_down_processors(self):
        # A scheduler that refuses to dispatch with nothing running and
        # no future events left: the stall error names the down counts.
        class Refuser(KGreedy):
            def pending(self, alpha):
                return False

        with pytest.raises(SchedulingError, match="down processors per type"):
            simulate_with_faults(
                one_task_job(), ResourceConfig((1,)), Refuser()
            )


class TestResultShape:
    def test_fault_result_extends_schedule_result(self):
        timeline = FaultTimeline([Outage(0, 0, 2.0, 3.0)])
        res = simulate_with_faults(
            one_task_job(), ResourceConfig((1,)), make_scheduler("kgreedy"),
            timeline, policy="checkpoint",
        )
        assert res.scheduler == "kgreedy"
        assert res.policy == "checkpoint"
        assert res.timeline is timeline
        assert res.completion_time_ratio() >= 1.0

    def test_none_timeline_normalized_to_empty(self):
        res = simulate_with_faults(
            one_task_job(), ResourceConfig((1,)), make_scheduler("kgreedy")
        )
        assert res.timeline.is_empty
        assert res.kills == 0
        assert res.wasted_work == 0.0
