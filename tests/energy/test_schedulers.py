"""Energy scheduler variants: identity anchors, behaviour, parsing.

The load-bearing contract is *bit-identity when the energy knob is
off*: ``emqb[w=0]`` (and any uniform power model) runs MQB's exact
arithmetic, ``kgreedy-consolidate[r=1]`` never binds its cap — traces,
decision counts and makespans all match, with telemetry on or off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capabilities import row_kind
from repro.energy.models import PowerModel
from repro.energy.schedulers import (
    EMQB,
    KGreedyConsolidate,
    make_energy_scheduler,
)
from repro.errors import ConfigurationError
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.schedulers.registry import available_schedulers, make_scheduler
from repro.sim.engine import simulate
from repro.sim.preemptive import simulate_preemptive
from repro.workloads.generator import WORKLOAD_CELLS, sample_instance

CELLS = ("small-layered-ep", "small-random-ep")


def _instance(cell: str, seed: int):
    return sample_instance(WORKLOAD_CELLS[cell], np.random.default_rng(seed))


def _run(job, system, name: str, telemetry=None, seed: int = 1):
    return simulate(
        job, system, make_scheduler(name),
        rng=np.random.default_rng(seed), record_trace=True,
        telemetry=telemetry,
    )


def assert_identical(a, b):
    assert a.makespan == b.makespan
    assert a.decisions == b.decisions
    assert a.trace.segments == b.trace.segments


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestIdentityAnchors:
    def test_emqb_w0_is_mqb(self, cell, seed):
        job, system = _instance(cell, seed)
        assert_identical(
            _run(job, system, "mqb"), _run(job, system, "emqb[w=0]")
        )

    def test_emqb_uniform_power_is_mqb(self, cell, seed):
        # Uniform idle draws collapse the weights to exactly 1.0 even
        # at w > 0 (the short-circuit, not float cancellation).
        job, system = _instance(cell, seed)
        assert_identical(
            _run(job, system, "mqb"),
            _run(job, system, "emqb[w=0.7,power=baseline]"),
        )

    def test_consolidate_r1_is_kgreedy(self, cell, seed):
        job, system = _instance(cell, seed)
        assert_identical(
            _run(job, system, "kgreedy"),
            _run(job, system, "kgreedy-consolidate[r=1]"),
        )

    def test_identity_survives_telemetry(self, cell, seed):
        job, system = _instance(cell, seed)
        base = _run(job, system, "mqb")
        for telemetry in (None, NULL_TELEMETRY, Telemetry()):
            assert_identical(
                base, _run(job, system, "emqb[w=0]", telemetry=telemetry)
            )
        base = _run(job, system, "kgreedy")
        for telemetry in (None, NULL_TELEMETRY, Telemetry()):
            assert_identical(
                base,
                _run(
                    job, system, "kgreedy-consolidate[r=1]",
                    telemetry=telemetry,
                ),
            )


class TestBehaviour:
    def test_emqb_differs_under_hetero_power(self):
        # On at least one medium instance the idle-power weighting must
        # change the schedule — otherwise the knob is dead code.
        diffs = 0
        for seed in range(5):
            job, system = _instance("medium-layered-ir", seed)
            a = _run(job, system, "mqb")
            b = _run(job, system, "emqb[w=1]")
            diffs += a.trace.segments != b.trace.segments
        assert diffs > 0

    def test_consolidate_caps_concurrency(self):
        for seed in range(5):
            job, system = _instance("small-layered-ep", seed)
            res = _run(job, system, "kgreedy-consolidate[r=0.25]")
            cap = np.maximum(1, np.ceil(0.25 * system.as_array()))
            cols = res.trace.as_columns()
            # Count concurrent segments per type at every segment start.
            for alpha in range(system.num_types):
                sel = cols["alpha"] == alpha
                starts, ends = cols["start"][sel], cols["end"][sel]
                for t in starts:
                    running = np.sum((starts <= t) & (ends > t))
                    assert running <= cap[alpha]

    def test_consolidate_preemptive_reannouncement(self):
        # The preemptive engine returns running tasks via task_ready at
        # quantum boundaries; the running counts must not leak.
        job, system = _instance("small-layered-ep", 0)
        res = simulate_preemptive(
            job, system, make_scheduler("kgreedy-consolidate[r=0.5]"),
            rng=np.random.default_rng(1), quantum=1.0,
        )
        assert res.makespan > 0
        base = simulate_preemptive(
            job, system, make_scheduler("kgreedy"),
            rng=np.random.default_rng(1), quantum=1.0,
        )
        full = simulate_preemptive(
            job, system, make_scheduler("kgreedy-consolidate[r=1]"),
            rng=np.random.default_rng(1), quantum=1.0,
        )
        assert (full.makespan, full.decisions) == (base.makespan, base.decisions)

    def test_native_loop_excludes_energy_variants(self):
        # The C loop would run them as their bases.
        assert row_kind(make_scheduler("emqb[w=0.5]")) is None
        assert row_kind(make_scheduler("kgreedy-consolidate[r=0.5]")) is None
        assert row_kind(make_scheduler("mqb")) == "mqb"


class TestConstructionAndParsing:
    def test_registry_lists_energy_names(self):
        names = available_schedulers()
        assert "emqb" in names
        assert "emqb[w=0.5]" in names
        assert "kgreedy-consolidate" in names
        assert "kgreedy-consolidate[r=0.5]" in names

    def test_names_round_trip(self):
        assert make_scheduler("emqb[w=0.5]").name == "emqb[w=0.5]"
        assert (
            make_scheduler("emqb[w=0.5,power=baseline]").name
            == "emqb[w=0.5,power=baseline]"
        )
        assert make_scheduler("emqb").name == "emqb[w=0.5]"
        assert (
            make_scheduler("kgreedy-consolidate[r=0.25]").name
            == "kgreedy-consolidate[r=0.25]"
        )

    def test_default_power_elided_from_name(self):
        assert make_scheduler("emqb[w=1,power=hetero]").name == "emqb[w=1]"

    def test_is_energy_scheduler(self):
        # The variants subclass MQB/KGreedy but declare no row kind, so
        # the native whole-run loop never runs them as their bases.
        assert EMQB().lockstep is None
        assert KGreedyConsolidate().lockstep is None
        assert make_scheduler("mqb").lockstep == "mqb"
        assert make_scheduler("kgreedy").lockstep == "static"

    def test_power_model_instance_accepted(self):
        model = PowerModel.uniform(2, idle=0.4, name="bespoke")
        sched = EMQB(w=0.5, power=model)
        assert "power=bespoke" in sched.name

    @pytest.mark.parametrize(
        "name",
        [
            "emqb[w=2]",
            "emqb[w=-0.1]",
            "emqb[w=nan]",
            "emqb[w=0.5",
            "emqb[volts=3]",
            "emqb[w=abc]",
            "kgreedy-consolidate[r=0]",
            "kgreedy-consolidate[r=1.5]",
            "kgreedy-consolidate[w=0.5]",
            "ekgreedy",
        ],
    )
    def test_bad_names_rejected(self, name):
        with pytest.raises(ConfigurationError):
            make_energy_scheduler(name)
