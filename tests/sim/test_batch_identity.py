"""Bit-identity of the batched lockstep engine vs the scalar engine.

The batch engine's contract (``repro/sim/batch.py``) is *exact*
per-instance reproduction of :func:`repro.sim.engine.simulate` — same
makespans, same traces down to processor ids and segment order, same
decision counts — or an explicit scalar fallback.  These tests assert
that contract for every registered scheduler on two workload cells,
plus the ragged-batch and single-instance edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    available_schedulers,
    make_scheduler,
    simulate,
    validate_schedule,
)
from repro.capabilities import plan_run
from repro.errors import SchedulingError
from repro.obs.telemetry import Telemetry
from repro.sim.batch import batch_supported, simulate_batch, simulate_batch_grid
from repro.workloads.generator import WORKLOAD_CELLS, sample_instance

CELLS = ("small-layered-ep", "small-random-ep")
N_BATCH = 4


def _instances(cell: str, n: int = N_BATCH, salt: int = 0):
    """n deterministic (job, resources) pairs from one workload cell."""
    out = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([99, salt, i]))
        out.append(sample_instance(WORKLOAD_CELLS[cell], rng))
    return out


def _rng_pair(i: int):
    """Two generators with identical streams (scalar run vs batch run)."""
    ss = np.random.SeedSequence([7, i])
    return np.random.default_rng(ss), np.random.default_rng(ss)


def _assert_identical(scalar_res, batch_res, job, resources):
    assert batch_res.makespan == scalar_res.makespan
    assert batch_res.decisions == scalar_res.decisions
    assert batch_res.scheduler == scalar_res.scheduler
    assert batch_res.lower_bound() == scalar_res.lower_bound()
    s_cols = scalar_res.trace.as_columns()
    b_cols = batch_res.trace.as_columns()
    for name in s_cols:
        np.testing.assert_array_equal(
            np.asarray(s_cols[name]), np.asarray(b_cols[name]), err_msg=name
        )
    validate_schedule(job, resources, batch_res.trace, batch_res.makespan)


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("name", available_schedulers())
def test_every_scheduler_bit_identical(name: str, cell: str):
    """Per-instance equality with the scalar path for each scheduler.

    Covers both engine paths: natively batched schedulers exercise the
    lockstep loop, unsupported ones exercise the scalar fallback — the
    result must be indistinguishable either way.  The scalar reference
    is the engine ``plan_run`` picks: ``simulate()`` for centralized
    schedulers and the work-stealing engine for the decentral ones,
    mirroring the batch engine's own fallback routing.
    """
    instances = _instances(cell)
    scalar_rngs, batch_rngs = zip(*(_rng_pair(i) for i in range(len(instances))))
    engine = plan_run(make_scheduler(name))
    scalar = [
        engine(job, res, make_scheduler(name), rng=rng, record_trace=True)
        for (job, res), rng in zip(instances, scalar_rngs)
    ]
    batch = simulate_batch(
        instances, make_scheduler(name), rngs=list(batch_rngs), record_trace=True
    )
    assert len(batch) == len(instances)
    for (job, res), s_res, b_res in zip(instances, scalar, batch):
        _assert_identical(s_res, b_res, job, res)


def test_ragged_batch():
    """Rows of different task counts and systems advance independently."""
    instances = _instances("small-layered-ep", n=3) + _instances(
        "small-random-ep", n=3, salt=1
    )
    sizes = {job.n_tasks for job, _ in instances}
    assert len(sizes) > 1, "cells should yield distinct task counts"
    for name in ("kgreedy", "lspan", "mqb"):
        batch = simulate_batch(instances, make_scheduler(name), record_trace=True)
        for (job, res), b_res in zip(instances, batch):
            s_res = simulate(job, res, make_scheduler(name), record_trace=True)
            _assert_identical(s_res, b_res, job, res)


def test_single_instance_batch():
    """N=1 is a legal (if pointless) batch."""
    (job, res), = _instances("small-layered-ep", n=1)
    for name in ("kgreedy", "mqb", "shiftbt"):
        b_res, = simulate_batch([(job, res)], make_scheduler(name), record_trace=True)
        s_res = simulate(job, res, make_scheduler(name), record_trace=True)
        _assert_identical(s_res, b_res, job, res)


def test_empty_batch():
    assert simulate_batch([], make_scheduler("kgreedy")) == []


def test_grid_stacks_schedulers():
    """simulate_batch_grid returns results[scheduler][instance]."""
    instances = _instances("small-layered-ep")
    names = ("kgreedy", "lspan", "mqb")
    grid = simulate_batch_grid(instances, [make_scheduler(n) for n in names])
    assert len(grid) == len(names)
    for name, row in zip(names, grid):
        for (job, res), b_res in zip(instances, row):
            s_res = simulate(job, res, make_scheduler(name))
            assert b_res.makespan == s_res.makespan
            assert b_res.scheduler == name


def test_grid_rejects_misshapen_rngs():
    instances = _instances("small-layered-ep", n=2)
    with pytest.raises(SchedulingError, match="rngs"):
        simulate_batch_grid(
            instances,
            [make_scheduler("kgreedy")],
            rngs=[[np.random.default_rng(0)]],  # 1 rng for 2 instances
        )


def test_batch_supported_classification():
    (job, res), = _instances("small-layered-ep", n=1)
    assert batch_supported(make_scheduler("kgreedy"), job)
    assert batch_supported(make_scheduler("lspan"), job)
    assert batch_supported(make_scheduler("mqb"), job)
    assert not batch_supported(make_scheduler("random"), job)
    # MQB on fractional work would need order-sensitive float sums.
    frac = type(job)(
        types=[0, 0], work=[1.5, 2.25], edges=[(0, 1)], num_types=job.num_types
    )
    assert not batch_supported(make_scheduler("mqb"), frac)


def test_fallback_counts_on_telemetry():
    """Unsupported rows fall back to scalar and say so on the counter."""
    instances = _instances("small-layered-ep", n=3)
    rngs = [np.random.default_rng(np.random.SeedSequence([7, i])) for i in range(3)]
    tel = Telemetry()
    simulate_batch(instances, make_scheduler("random"), rngs=rngs, telemetry=tel)
    assert tel.counters["batch.fallback"] == 3
    assert tel.counters.get("batch.instances", 0) == 0


def test_batched_rows_count_on_telemetry():
    instances = _instances("small-layered-ep", n=3)
    tel = Telemetry()
    simulate_batch(instances, make_scheduler("kgreedy"), telemetry=tel)
    assert tel.counters["batch.instances"] == 3
    assert tel.counters["batch.rounds"] > 0
    assert "batch.fallback" not in tel.counters
