"""Acceptance: with λ=0 the fault engine IS the fault-free engine.

``simulate_with_faults`` runs ``simulate``'s loop with a fault seam
that, with no timeline, never fires — makespans, decision counts and
ordered traces bit-for-bit equal, for every scheduler on every
workload cell of the comparison suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.engine import simulate_with_faults
from repro.faults.models import FaultTimeline, NoFaults
from repro.schedulers.registry import PAPER_ALGORITHMS, make_scheduler
from repro.sim.engine import simulate
from repro.workloads.generator import WORKLOAD_CELLS, sample_instance

N_INSTANCES = 2


@pytest.mark.slow
@pytest.mark.parametrize("cell", sorted(WORKLOAD_CELLS))
@pytest.mark.parametrize("name", PAPER_ALGORITHMS)
def test_lambda_zero_is_bit_identical(cell, name):
    for i in range(N_INSTANCES):
        ss = np.random.SeedSequence([99, i])
        inst, alg = ss.spawn(2)
        job, system = sample_instance(
            WORKLOAD_CELLS[cell], np.random.default_rng(inst)
        )
        base = simulate(
            job, system, make_scheduler(name),
            rng=np.random.default_rng(alg), record_trace=True,
        )
        faulty = simulate_with_faults(
            job, system, make_scheduler(name),
            timeline=None, rng=np.random.default_rng(alg), record_trace=True,
        )
        assert faulty.makespan == base.makespan  # exact, no tolerance
        assert faulty.decisions == base.decisions
        assert faulty.kills == 0 and faulty.wasted_work == 0.0
        assert faulty.trace.segments == base.trace.segments


def test_empty_timeline_equivalent_to_none():
    job, system = sample_instance(
        WORKLOAD_CELLS["small-layered-ep"], np.random.default_rng(0)
    )
    a = simulate_with_faults(job, system, make_scheduler("mqb"), timeline=None)
    b = simulate_with_faults(
        job, system, make_scheduler("mqb"), timeline=FaultTimeline()
    )
    c = simulate_with_faults(
        job, system, make_scheduler("mqb"),
        timeline=NoFaults().sample(system, 10.0, np.random.default_rng(0)),
    )
    assert a.makespan == b.makespan == c.makespan
