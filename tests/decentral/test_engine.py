"""Work-stealing engine: identity anchor, dispatch, telemetry, events.

The load-bearing check is the **degenerate limit**: with
``StealPolicy(victims="global", cost=0)`` the per-processor deques
collapse into one shared pool per type and the decentralized engine
runs :func:`repro.sim.engine.simulate` itself.  ``TestDegenerateIdentity``
checks that over 3 cells x 3 instances x telemetry off and on, plus
everything around it — routing, rejection of non-decentral schedulers,
steal telemetry and the STEAL event stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capabilities import plan_run
from repro.decentral import (
    DKGreedy,
    DMQB,
    StealPolicy,
    make_decentral_scheduler,
    simulate_decentralized,
)
from repro.errors import ConfigurationError
from repro.obs.events import STEAL, EventStream
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.schedulers.registry import available_schedulers, make_scheduler
from repro.sim.engine import simulate
from repro.sim.validate import validate_schedule
from repro.system.resources import ResourceConfig
from repro.workloads.generator import WORKLOAD_CELLS, sample_job

PAIRS = (("dkgreedy[global]", "kgreedy"), ("dmqb[global]", "mqb"))
STEALING_NAMES = (
    "dkgreedy", "dmqb", "dkgreedy[half]", "dmqb[cost=0.25]",
    "dkgreedy[half,cost=0.5]",
)


def _instance(cell: str = "small-random-ep", p: int = 3, seed: int = 0):
    spec = WORKLOAD_CELLS[cell]
    job = sample_job(spec, np.random.default_rng(seed))
    return job, ResourceConfig((p,) * spec.num_types)


#: (cell, processors per type) of the degenerate identity matrix.
IDENTITY_CELLS = (
    ("small-layered-ep", 4),
    ("small-random-ep", 16),
    ("medium-layered-ir", 8),
)


class TestDegenerateIdentity:
    @pytest.mark.parametrize("observe", [False, True], ids=["bare", "obs"])
    @pytest.mark.parametrize("instance", range(3))
    @pytest.mark.parametrize(("cell", "p"), IDENTITY_CELLS)
    @pytest.mark.parametrize(("dec_name", "cen_name"), PAIRS)
    def test_bit_identical_to_centralized(
        self, dec_name, cen_name, cell, p, instance, observe
    ):
        spec = WORKLOAD_CELLS[cell]
        system = ResourceConfig((p,) * spec.num_types)
        inst_ss, cen_ss, dec_ss = np.random.SeedSequence([7, instance]).spawn(3)
        job = sample_job(spec, np.random.default_rng(inst_ss))
        cen = simulate(
            job, system, make_scheduler(cen_name),
            rng=np.random.default_rng(cen_ss), record_trace=True,
        )
        dec = simulate_decentralized(
            job, system, make_scheduler(dec_name),
            rng=np.random.default_rng(dec_ss), record_trace=True,
            telemetry=Telemetry() if observe else None,
        )
        assert dec.makespan == cen.makespan
        assert dec.decisions == cen.decisions
        assert dec.trace.segments == cen.trace.segments

    def test_degenerate_attempts_equal_successes(self):
        # In the shared-pool limit a "steal" is any dispatch off a
        # processor's non-home queue entry; there is no miss path.
        job, system = _instance()
        t = Telemetry()
        simulate_decentralized(
            job, system, make_scheduler("dkgreedy[global]"),
            rng=np.random.default_rng(3), telemetry=t,
        )
        assert t.counters.get("steal.attempts", 0) == t.counters.get(
            "steal.successes", 0
        )
        assert "steal.failed_empty" not in t.counters


class TestDispatch:
    def test_routes_decentral_scheduler(self):
        job, system = _instance()
        scheduler = make_scheduler("dkgreedy")
        engine = plan_run(scheduler)
        assert engine is simulate_decentralized
        res = engine(job, system, scheduler, rng=np.random.default_rng(0))
        assert res.scheduler == "dkgreedy"

    def test_routes_centralized_scheduler_through_simulate(self):
        job, system = _instance()
        rng = lambda: np.random.default_rng(5)
        scheduler = make_scheduler("mqb")
        assert plan_run(scheduler) is simulate
        via_dispatch = plan_run(scheduler)(
            job, system, scheduler, rng=rng(), record_trace=True
        )
        direct = simulate(
            job, system, make_scheduler("mqb"), rng=rng(), record_trace=True
        )
        assert via_dispatch.makespan == direct.makespan
        assert via_dispatch.trace.segments == direct.trace.segments

    def test_rejects_centralized_scheduler(self):
        job, system = _instance()
        with pytest.raises(ConfigurationError):
            simulate_decentralized(job, system, make_scheduler("kgreedy"))


class TestRegistry:
    def test_names_registered(self):
        names = available_schedulers()
        for name in ("dkgreedy", "dmqb", "dkgreedy[half]", "dmqb[global]"):
            assert name in names

    def test_bracket_suffix_is_part_of_the_name(self):
        s = make_scheduler("dkgreedy[half,cost=0.5]")
        assert s.name == "dkgreedy[half,cost=0.5]"
        assert s.steal_policy == StealPolicy(amount="half", cost=0.5)

    def test_make_decentral_scheduler_classes(self):
        assert isinstance(make_decentral_scheduler("dkgreedy"), DKGreedy)
        assert isinstance(make_decentral_scheduler("dmqb"), DMQB)

    def test_unknown_decentral_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_decentral_scheduler("dlspan")


class TestStealTelemetry:
    def test_counters_and_idle_histogram(self):
        job, system = _instance(p=4)
        t = Telemetry()
        res = simulate_decentralized(
            job, system, make_scheduler("dkgreedy"),
            rng=np.random.default_rng(1), telemetry=t,
        )
        attempts = t.counters.get("steal.attempts", 0)
        hits = t.counters.get("steal.successes", 0)
        misses = t.counters.get("steal.failed_empty", 0)
        assert attempts == hits + misses
        assert t.counters.get("steal.tasks_moved", 0) >= hits
        # Per-processor idle time: one histogram sample per processor,
        # each in [0, makespan].
        count, total, lo, hi = t.histograms["decentral.proc_idle"]
        assert count == system.total
        assert 0.0 <= lo <= hi <= res.makespan + 1e-9
        assert total <= system.total * res.makespan + 1e-9

    def test_steal_events_emitted(self):
        job, system = _instance(p=4)
        events = EventStream()
        simulate_decentralized(
            job, system, make_scheduler("dkgreedy"),
            rng=np.random.default_rng(1), telemetry=Telemetry(events=events),
        )
        steals = list(events.of_kind(STEAL))
        assert steals
        for e in steals:
            assert set(e.data) >= {"alpha", "thief", "victim", "n", "ok"}
            assert e.data["thief"] != e.data["victim"]
            assert (e.data["n"] > 0) == e.data["ok"]

    @pytest.mark.parametrize("name", STEALING_NAMES)
    def test_observability_never_perturbs_the_schedule(self, name):
        job, system = _instance(p=4)
        runs = []
        for telemetry in (None, NULL_TELEMETRY, Telemetry(events=EventStream())):
            res = simulate_decentralized(
                job, system, make_scheduler(name),
                rng=np.random.default_rng(2), record_trace=True,
                telemetry=telemetry,
            )
            runs.append((res.makespan, res.decisions, res.trace.segments))
        assert runs[0] == runs[1] == runs[2]


class TestStealingVariants:
    @pytest.mark.parametrize("name", STEALING_NAMES)
    def test_valid_schedule(self, name):
        job, system = _instance(p=4)
        res = simulate_decentralized(
            job, system, make_scheduler(name),
            rng=np.random.default_rng(0), record_trace=True,
        )
        validate_schedule(job, system, res.trace, res.makespan)

    def test_steal_cost_delays_but_never_loses_work(self):
        # With a steal cost the stolen work starts later, so the
        # makespan can only stay or grow vs the free-steal policy.
        job, system = _instance(p=4)

        def run(name):
            return simulate_decentralized(
                job, system, make_scheduler(name),
                rng=np.random.default_rng(9), record_trace=True,
            )

        free = run("dkgreedy")
        costly = run("dkgreedy[cost=4]")
        validate_schedule(job, system, costly.trace, costly.makespan)
        assert costly.makespan >= free.makespan - 1e-9
