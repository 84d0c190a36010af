"""Every registry scheduler through every run kind, from one table.

The capability declarations (``Scheduler.decentral`` and
``Scheduler.lockstep``) and :func:`repro.capabilities.plan_run` decide
which engine runs a scheduler, or refuse the run.  This harness drives
every :func:`~repro.schedulers.registry.available_schedulers` name
through every run kind and checks one of two outcomes:

* **identity** to the reference run
  ``plan_run(s)(job, system, s, rng=..., record_trace=True)`` on numpy
  — makespan, decisions and trace segments — for the batch engine, the
  native kernel (scalar and batch, telemetry off and on), the fault
  engine at rate 0 and enabled telemetry; the degenerate steal policy
  and the energy off-switches reproduce their base schedulers; and
  preemptive and energy runs validate and compute;
* for the names with a row kind, the native whole-run loop's
  **telemetry**: the counters, histograms and timers of the Python
  loop (which an attached event stream keeps), over the loop-golden
  inputs and the native matrix's cells;
* the native **offline passes**, byte for byte against numpy: KDag's
  peel (order, depth, levels), the bottom and top levels, the
  different-child distance, ShiftBT's EDD subproblems, priorities and
  bottleneck order, and the peel's refusal of a cycle;
* the planner's **refusal**, with one message from every entry point
  that can express the combination: ``plan_run``, the CLI (exit 2),
  the sweeps and the service (``bad_request``).

Inputs:

* the edge shapes of ``tests/sim/test_loop_golden.py`` (one task, K=1,
  P_alpha=1, wide fan-in, non-integer work, tied keys) and hypothesis
  draws from ``tests/properties/test_schedule_invariants.py``: every
  column, every name;
* the loop-golden generated cells: the batch column of the names the
  lockstep engine runs, and the degenerate steal policy;
* the native matrix's 3 cells x 3 instances: native vs numpy for MQB's
  balance and carry variants;
* the class pools: jobs whose ready tasks share bit-identical (type,
  work, descendant row), which the C loop scores once per class — the
  native and counters columns for MQB's balance, carry and information
  variants;
* the energy matrix's 3 cells x 3 instances: the energy off-switches;
* for the offline passes: the loop-golden inputs, hypothesis draws,
  one instance of each of the eight cells, and EDD subproblems at
  P_alpha = 1 and P_alpha >= tasks with tied due dates and releases.
"""

from __future__ import annotations

import asyncio
import functools
import os
import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.capabilities import DECENTRAL_REFUSALS, plan_run, row_kind
from repro.cli import main
from repro.core.cache import cached_due_dates, clear_offline_cache
from repro.core.descendants import different_child_distance
from repro.core.kdag import KDag
from repro.core.properties import _bottom_levels
from repro.energy.metrics import energy_breakdown
from repro.energy.models import power_config
from repro.errors import ConfigurationError, CycleError
from repro.experiments.energy import run_energy_comparison
from repro.experiments.robustness import run_robustness_comparison
from repro.experiments.runner import run_comparison
from repro.faults.engine import simulate_with_faults
from repro.faults.models import FaultTimeline
from repro.obs.events import EventStream
from repro.obs.telemetry import Telemetry
from repro.schedulers.registry import available_schedulers, make_scheduler
from repro.schedulers.shiftbt import edd_max_lateness_schedule, top_levels
from repro.service.executor import ServiceExecutor
from repro.service.protocol import ProtocolError, ScheduleRequest, SweepRequest
from repro.sim.batch import batch_supported, simulate_batch_grid
from repro.sim.validate import validate_schedule
from repro.system.resources import ResourceConfig
from repro.workloads.generator import (
    EXTRA_CELLS, WORKLOAD_CELLS, sample_instance, sample_job,
)
from repro.workloads.params import EPParams, WorkloadSpec
from tests.properties.test_schedule_invariants import jobs_and_systems
from tests.sim.test_loop_golden import _jobs

NAMES = available_schedulers()

#: ``(decentral, lockstep, batch_supported on integral work)`` per
#: registry name.  Pinned by hand, so a decentral mixin that slips
#: behind its centralized base in a class's bases shows up here.
DECLARATIONS = {
    "random": (False, None, False),
    "kgreedy": (False, "static", True),
    "lspan": (False, "static", True),
    "maxdp": (False, "static", True),
    "dtype": (False, "static", True),
    "shiftbt": (False, "static", True),
    "mqb": (False, "mqb", True),
    "mqb[min]": (False, "mqb", True),
    "mqb[sum]": (False, "mqb", True),
    "mqb[nocarry]": (False, "mqb", True),
    "mqb+all+pre": (False, "mqb", True),
    "mqb+all+exp": (False, "mqb", True),
    "mqb+all+noise": (False, "mqb", True),
    "mqb+1step+pre": (False, "mqb", True),
    "mqb+1step+exp": (False, "mqb", True),
    "mqb+1step+noise": (False, "mqb", True),
    "dkgreedy": (True, None, False),
    "dkgreedy[half]": (True, None, False),
    "dkgreedy[global]": (True, None, False),
    "dmqb": (True, None, False),
    "dmqb[half]": (True, None, False),
    "dmqb[global]": (True, None, False),
    "emqb": (False, None, False),
    "emqb[w=0.5]": (False, None, False),
    "kgreedy-consolidate": (False, None, False),
    "kgreedy-consolidate[r=0.5]": (False, None, False),
}
DECENTRAL = [name for name in NAMES if DECLARATIONS[name][0]]
CENTRAL = [name for name in NAMES if not DECLARATIONS[name][0]]

#: Names that reproduce a base scheduler bit for bit: the degenerate
#: steal policy and the energy off-switches (``w=0``, a uniform power
#: model, a cap that never binds).
IDENTICAL_TO = {
    "dkgreedy[global]": "kgreedy",
    "dmqb[global]": "mqb",
    "emqb[w=0]": "mqb",
    "emqb[w=0.7,power=baseline]": "mqb",
    "kgreedy-consolidate[r=1]": "kgreedy",
}

#: Names whose picks the native kernel must carry.  EMQB's scoring
#: override and the stealing loop's local picks stay on numpy.
KERNEL = {name for name in NAMES if name.startswith("mqb")} | {"dmqb[global]"}
#: Names with a row kind: the native whole-run loop carries their runs.
ROW_NAMES = [name for name in NAMES if DECLARATIONS[name][1] is not None]

SEED = 7
#: The loop-golden inputs: six edge shapes, then three generated cells.
GOLDEN = _jobs()
INPUTS = list(GOLDEN.values())
EDGE = [inst for key, inst in GOLDEN.items() if key not in WORKLOAD_CELLS]
#: The native matrix's balance and carry variants.
VARIANTS = ("mqb", "mqb[min]", "mqb[sum]", "mqb[nocarry]")


def _cells(draw) -> list:
    """The identity matrices' 3 cells x 3 instances, one draw rule."""
    return [
        draw(WORKLOAD_CELLS[cell], p, np.random.SeedSequence([SEED, i]))
        for cell, p in (
            ("small-layered-ep", 4),
            ("small-random-ep", 16),
            ("medium-layered-ir", 8),
        )
        for i in range(3)
    ]


#: The native matrix's instances: explicit ``(p,) * K`` systems.
NATIVE_CELLS = _cells(
    lambda spec, p, ss: (
        sample_job(spec, np.random.default_rng(ss)),
        ResourceConfig((p,) * spec.num_types),
    )
)
#: The energy matrix's instances: sampled systems.
ENERGY_CELLS = _cells(
    lambda spec, p, ss: sample_instance(spec, np.random.default_rng(ss.spawn(3)[0]))
)


def _tree(fanouts, node, k: int, procs) -> tuple[KDag, ResourceConfig]:
    """A tree numbered level by level from the root, node 0: each node
    of a level has ``fanouts[level]`` children, and ``node(v)`` is node
    ``v``'s (type, work)."""
    edges, level, n = [], [0], 1
    for fanout in fanouts:
        nxt = []
        for parent in level:
            for _ in range(fanout):
                edges.append((parent, n))
                nxt.append(n)
                n += 1
        level = nxt
    types, works = zip(*(node(v) for v in range(n)))
    job = KDag(types=types, work=[float(w) for w in works], edges=edges, num_types=k)
    return job, ResourceConfig(procs)


#: The two subtree shapes of the two-level class pool, as the (type,
#: work) of each of an internal node's six leaves.
_SHAPES = (
    ((0, 1), (2, 1), (0, 2), (2, 2), (1, 1), (0, 1)),
    ((2, 2), (2, 1), (0, 1), (0, 2), (1, 2), (1, 1)),
)


def _two_level(v: int) -> tuple[int, int]:
    if v == 0:
        return 0, 1
    if v <= 8:
        return 1, 2
    parent, pos = divmod(v - 9, 6)
    return _SHAPES[parent % 2][pos]


#: Jobs whose MQB pools hold many ready tasks of bit-identical (type,
#: work, descendant row), with the number of such classes.
CLASS_POOLS = {
    # 520 leaves with works in {1, 2}: six leaf classes, picks galore.
    "star": (
        _tree([520], lambda v: (v % 3, 1 + (v // 3) % 2), 3, (2, 3, 1)),
        7,
    ),
    # Eight internal nodes over two subtree shapes: two shared rows.
    "two-level": (_tree([8, 6], _two_level, 3, (2, 2, 2)), 9),
    # The root's twelve children, of three classes, fit twelve
    # processors: one round takes them all, in ascending ready seq.
    "take-all": (
        _tree(
            [12, 1],
            lambda v: (0, 1 + (v - 1) % 3) if 1 <= v <= 12 else (1, 1 + (v % 3 == 0)),
            2, (12, 3),
        ),
        6,
    ),
    "k1": (_tree([60], lambda v: (0, 1 + v % 2), 1, (1,)), 3),
    "p-alpha-1": (_tree([4, 5], lambda v: (v % 3, 1 + v % 2), 3, (1, 1, 1)), 11),
    # Non-integer works: every class has one member.
    "non-integer": (_tree([200], lambda v: (v % 2, 0.1 + v / 7.0), 2, (3, 2)), 201),
}
#: MQB's balance, carry and information variants on the class pools.
CLASS_NAMES = (
    "mqb", "mqb+1step+pre", "mqb+all+exp", "mqb[min]", "mqb[sum]", "mqb[nocarry]",
)


def _rng(i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([SEED, i]))


def _run(engine, name, job, system, i, **kwargs):
    return engine(
        job, system, make_scheduler(name), rng=_rng(i), record_trace=True,
        **kwargs,
    )


def _same(got, want, label: str) -> None:
    assert (got.makespan, got.decisions) == (want.makespan, want.decisions), label
    assert got.trace.segments == want.trace.segments, label


def _refusal(name: str, kind: str) -> str:
    return f"{name}: decentralized schedulers do not support {DECENTRAL_REFUSALS[kind]}"


@contextmanager
def _native(on: bool):
    """``REPRO_NATIVE`` for the block: the kernel when ``on`` and one
    loads, else numpy.  The offline cache is emptied on entry and on
    exit, so neither side reads arrays the other computed.  No
    fixture, so it works in hypothesis examples."""
    value = "1" if on and native.load_kernel() is not None else "0"
    saved = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = value
    clear_offline_cache()
    try:
        yield
    finally:
        clear_offline_cache()
        if saved is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = saved


def _references(name: str, inputs: list) -> list:
    """The reference runs: ``plan_run``'s engine, on numpy."""
    engine = plan_run(make_scheduler(name))
    with _native(False):
        return [_run(engine, name, job, system, i) for i, (job, system) in enumerate(inputs)]


@functools.cache
def _golden_references(name: str) -> list:
    """References over the loop-golden inputs: all of them for the
    names the lockstep engine runs, the edge shapes for the rest."""
    return _references(name, INPUTS if DECLARATIONS[name][2] else EDGE)


def _check_kernel(telemetry: Telemetry, picks: bool) -> None:
    """The native runs never fell back to numpy (when a kernel loads),
    and made picks in C when ``picks``."""
    if native.load_kernel() is None:
        return
    assert "native.fallbacks" not in telemetry.counters
    if picks:
        assert telemetry.counters.get("native.calls", 0) > 0


def _whole_run(name: str, job) -> bool:
    """Whether a native run of ``name`` on ``job`` takes the C loop."""
    scheduler = make_scheduler(name)
    kind = row_kind(scheduler)
    if kind == "mqb":
        return native.supported(scheduler._balance_mode, job.num_types)
    return kind == "static"


# ----------------------------------------------------------------------
# the declarations
# ----------------------------------------------------------------------
def test_declarations_cover_the_registry():
    assert sorted(DECLARATIONS) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_declarations(name):
    scheduler = make_scheduler(name)
    job = INPUTS[0][0]
    assert (
        scheduler.decentral, scheduler.lockstep, batch_supported(scheduler, job)
    ) == DECLARATIONS[name]


# ----------------------------------------------------------------------
# identity columns
# ----------------------------------------------------------------------
def _check_scalar(name: str, inputs: list, refs: list, bare: bool = True) -> None:
    """Native and telemetry columns of the scalar engine: native runs
    with telemetry on (and off, when ``bare``) against the references."""
    engine = plan_run(make_scheduler(name))
    telemetry = Telemetry()
    with _native(True):
        for i, (job, system) in enumerate(inputs):
            for t in (None, telemetry) if bare else (telemetry,):
                _same(
                    _run(engine, name, job, system, i, telemetry=t), refs[i],
                    f"{name} scalar, input {i}",
                )
    _check_kernel(telemetry, name in KERNEL and len(inputs) > 1)
    if native.load_kernel() is not None:
        whole = sum(_whole_run(name, job) for job, _ in inputs)
        assert telemetry.counters.get("native.runs", 0) == whole, name


def _check_batch(
    names, inputs: list, refs: dict, on: bool, telemetry: Telemetry | None,
    first: int = 0,
) -> None:
    """Batch column: one grid over ``names`` x ``inputs``, whose
    references ran with the generators of indices ``first...``."""
    seeds = range(first, first + len(inputs))
    with _native(on):
        grid = simulate_batch_grid(
            inputs, names, rngs=[[_rng(i) for i in seeds] for _ in names],
            record_trace=True, telemetry=telemetry,
        )
    for name, row in zip(names, grid):
        for i, res in zip(seeds, row):
            _same(res, refs[name][i], f"{name} batch, input {i}")


def _check_run_kinds(name: str, inputs: list, refs: list) -> None:
    """Faults at rate 0, preemptive and energy runs, or their refusals."""
    scheduler = make_scheduler(name)
    if scheduler.decentral:
        for kind in DECENTRAL_REFUSALS:
            with pytest.raises(ConfigurationError, match=re.escape(_refusal(name, kind))):
                plan_run(scheduler, **{kind: True})
        return
    engine = plan_run(scheduler)
    assert plan_run(scheduler, faults=True) is engine
    assert plan_run(scheduler, energy=True) is engine
    preemptive = plan_run(scheduler, preemptive=True)
    for i, ((job, system), ref) in enumerate(zip(inputs, refs)):
        faulty = simulate_with_faults(
            job, system, make_scheduler(name), FaultTimeline(), rng=_rng(i),
            record_trace=True,
        )
        _same(faulty, ref, f"{name} faults at rate 0, input {i}")
        res = _run(preemptive, name, job, system, i)
        validate_schedule(job, system, res.trace, res.makespan, preemptive=True)
        bd = energy_breakdown(
            ref.trace, system, power_config("shutdown", system.num_types), ref.makespan
        )
        assert np.isfinite(bd["total"]) and bd["total"] >= bd["busy"] > 0.0


@pytest.mark.parametrize("name", NAMES)
def test_scalar_and_run_kind_columns(name):
    refs = _golden_references(name)[: len(EDGE)]
    _check_scalar(name, EDGE, refs)
    _check_run_kinds(name, EDGE, refs)


@pytest.mark.parametrize(
    "on,observe", [(True, True), (True, False), (False, False)],
    ids=["native-telemetry", "native", "numpy"],
)
def test_batch_column(on, observe):
    # Every name on the edge shapes.  On the generated cells, one run:
    # native with telemetry, for the names the lockstep engine runs
    # (the others fall back to plan_run's engine, which the scalar
    # column checks).
    refs = {name: _golden_references(name) for name in NAMES}
    telemetry = Telemetry() if observe else None
    _check_batch(NAMES, EDGE, refs, on, telemetry)
    if observe:
        lockstep = [name for name in NAMES if DECLARATIONS[name][2]]
        generated = INPUTS[len(EDGE):]
        _check_batch(lockstep, generated, refs, on, telemetry, first=len(EDGE))
        _check_kernel(telemetry, picks=True)


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_every_column_on_generated_jobs(name, data):
    inputs = [data.draw(jobs_and_systems())]
    refs = _references(name, inputs)
    _check_scalar(name, inputs, refs)
    for on, telemetry in ((False, None), (True, None), (True, Telemetry())):
        _check_batch([name], inputs, {name: refs}, on, telemetry)
    _check_run_kinds(name, inputs, refs)


def test_native_column_on_cells():
    if native.load_kernel() is None:
        pytest.skip(f"native kernel unavailable: {native.native_status()['error']}")
    refs = {name: _references(name, NATIVE_CELLS) for name in VARIANTS}
    for name in VARIANTS:
        _check_scalar(name, NATIVE_CELLS, refs[name], bare=False)
    telemetry = Telemetry()
    _check_batch(list(VARIANTS), NATIVE_CELLS, refs, True, telemetry)
    _check_kernel(telemetry, picks=True)


def _check_counters(name: str, inputs: list) -> None:
    """Counters column: native on, ``Telemetry()`` runs take the C
    loop, and an attached event stream keeps the Python loop.  Both
    report the same counters (but the C loop's ``native.runs``),
    histograms, timer keys and decision-round counts."""
    engine = plan_run(make_scheduler(name))
    with _native(True):
        for i, (job, system) in enumerate(inputs):
            fast, slow = Telemetry(), Telemetry(events=EventStream())
            res = _run(engine, name, job, system, i, telemetry=fast)
            _run(engine, name, job, system, i, telemetry=slow)
            label = f"{name}, input {i}"
            assert fast.counters.pop("native.runs", 0) == _whole_run(name, job), label
            assert "native.runs" not in slow.counters, label
            assert fast.counters == slow.counters, label
            assert fast.histograms == slow.histograms, label
            assert fast.timers.keys() == slow.timers.keys(), label
            key = "decision." + res.scheduler
            assert fast.timers[key][1] == slow.timers[key][1] == res.decisions, label


@pytest.mark.parametrize("name", ROW_NAMES)
def test_counters_column(name):
    if native.load_kernel() is None:
        pytest.skip(f"native kernel unavailable: {native.native_status()['error']}")
    _check_counters(name, INPUTS + NATIVE_CELLS)


def test_class_pool_inputs():
    # Each input keeps the classes it stands for.
    for key, ((job, system), classes) in CLASS_POOLS.items():
        scheduler = make_scheduler("mqb")
        scheduler.prepare(job, system)
        rows = np.column_stack([job.types, job.work, scheduler._d])
        assert len(np.unique(rows, axis=0)) == classes, key


@pytest.mark.parametrize("name", CLASS_NAMES)
def test_class_pool_columns(name):
    # The C loop scores one head per class; makespan, decisions, trace
    # and counters (``native.calls`` included) are the Python loop's.
    if native.load_kernel() is None:
        pytest.skip(f"native kernel unavailable: {native.native_status()['error']}")
    inputs = [inst for inst, _ in CLASS_POOLS.values()]
    refs = _references(name, inputs)
    _check_scalar(name, inputs, refs)
    _check_counters(name, inputs)
    take_all = refs[list(CLASS_POOLS).index("take-all")].trace.segments[1:13]
    assert [seg.task for seg in take_all] == list(range(1, 13))
    assert len({seg.start for seg in take_all}) == 1


# ----------------------------------------------------------------------
# offline column
# ----------------------------------------------------------------------
#: One instance of each of the eight cells.
CELL_INSTANCES = [
    sample_instance(spec, _rng(i))
    for i, spec in enumerate([*WORKLOAD_CELLS.values(), *EXTRA_CELLS.values()])
]


def _edd_bytes(tasks, release, due, work, n_machines) -> tuple[bytes, bytes]:
    seq, lateness = edd_max_lateness_schedule(tasks, release, due, work, n_machines)
    return np.asarray(seq, dtype=np.int64).tobytes(), np.float64(lateness).tobytes()


def _offline_passes(job: KDag, system: ResourceConfig) -> dict:
    """Every pass with a native path, on ``job``, as bytes."""
    peeled = KDag(job.types, job.work, job.edges, job.num_types)
    shiftbt = make_scheduler("shiftbt")
    shiftbt.prepare(peeled, system)
    release, due = top_levels(peeled), cached_due_dates(peeled)
    edd = [
        _edd_bytes(peeled.tasks_of_type(alpha), release, due, peeled.work, p)
        for alpha in range(peeled.num_types)
        for p in sorted({1, int(system.counts[alpha]), peeled.n_tasks})
    ]
    return {
        "order": peeled.topological_order.tobytes(),
        "depth": peeled.depth.tobytes(),
        "levels": peeled.levels()[1].tobytes(),
        "bottom": _bottom_levels(peeled).tobytes(),
        "top": release.tobytes(),
        "distance": different_child_distance(peeled).tobytes(),
        "edd": edd,
        "priorities": shiftbt.keys.tobytes(),
        "bottleneck": shiftbt.bottleneck_order,
    }


def _check_offline(inputs: list) -> None:
    for i, (job, system) in enumerate(inputs):
        with _native(False):
            want = _offline_passes(job, system)
        with _native(True):
            got = _offline_passes(job, system)
        for key in want:
            assert got[key] == want[key], f"{key}, input {i}"


def test_offline_column():
    _check_offline(INPUTS + CELL_INSTANCES)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_offline_column_on_generated_jobs(data):
    _check_offline([data.draw(jobs_and_systems())])


def test_offline_edd_ties():
    # Tied releases and due dates (and -0.0 beside 0.0, which compare
    # equal): admission and dispatch order fall to the task ids.
    rng = np.random.default_rng(SEED)
    n = 400
    work = rng.integers(1, 4, size=n).astype(np.float64)
    for trial in range(12):
        release = rng.integers(0, 4, size=n).astype(np.float64)
        due = rng.integers(0, 3, size=n).astype(np.float64)
        due[rng.random(n) < 0.3] *= -0.0
        tasks = rng.permutation(n)[: 1 + trial * 30]
        for p in (1, 2, len(tasks), len(tasks) + 7):
            with _native(False):
                want = _edd_bytes(tasks, release, due, work, p)
            with _native(True):
                got = _edd_bytes(tasks, release, due, work, p)
            assert got == want, (trial, p)


def test_offline_cycle_refused_alike():
    edges = [(0, 1), (1, 2), (2, 1), (2, 3), (0, 4)]
    messages = []
    for on in (False, True):
        with _native(on), pytest.raises(CycleError) as excinfo:
            KDag([0, 1, 0, 1, 0], [1.0] * 5, edges, 2)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1] == "edge set contains a cycle (3 tasks unreachable)"


class _Arrays:
    """A job-shaped bundle of arbitrary arrays for the bindings."""

    def __init__(self, job: KDag, **overrides) -> None:
        self.n_tasks = job.n_tasks
        for name in (
            "types", "work", "child_ptr", "child_idx", "parent_ptr",
            "parent_idx", "topological_order",
        ):
            setattr(self, name, overrides.get(name, getattr(job, name)))


def test_offline_bindings_reject_bad_arrays():
    kernel = native.load_kernel()
    if kernel is None:
        pytest.skip(f"native kernel unavailable: {native.native_status()['error']}")
    job = EDGE[3][0]
    n = job.n_tasks
    ptr, idx = job.child_ptr, job.child_idx
    bad_csr = [
        (ptr + 1, idx),                                # ptr[0] != 0
        (ptr[::-1].copy(), idx),                       # decreasing
        (ptr, np.full_like(idx, n)),                   # child out of range
        (ptr, -np.ones_like(idx)),
        (ptr, idx[:-1]),                               # length mismatch
        (ptr.reshape(1, -1), idx),                     # not 1-D
        (np.empty(0, dtype=np.int64), idx),            # no nodes
    ]
    for p, i in bad_csr:
        with pytest.raises((ValueError, OSError)):
            kernel.topo_levels(p, i)
    order = job.topological_order
    bad_jobs = [
        _Arrays(job, topological_order=np.full_like(order, n)),
        _Arrays(job, topological_order=order[:-1]),
        _Arrays(job, work=job.work[:-1], types=job.types[:-1]),
        _Arrays(job, child_ptr=ptr + 1, parent_ptr=job.parent_ptr + 1),
        _Arrays(job, child_idx=np.full_like(idx, -5), parent_idx=np.full_like(idx, n)),
    ]
    for bad in bad_jobs:
        for sweep in (
            kernel.bottom_levels, kernel.top_levels, kernel.different_child_distance,
        ):
            with pytest.raises((ValueError, OSError)):
                sweep(bad)
    tasks, values = np.arange(n), np.zeros(n)
    bad_edd = [
        (tasks + 1, values, values, values, 1),        # task out of range
        (tasks - 1, values, values, values, 1),
        (tasks, values, values, values, 0),            # no machine
        (tasks[:0], values, values, values, 1),        # no task
        (tasks.reshape(1, -1), values, values, values, 1),
        (tasks, values, values[:-1], values, 1),
        (tasks, values.reshape(1, -1), values, values, 1),
    ]
    for args in bad_edd:
        with pytest.raises((ValueError, OSError)):
            kernel.edd_schedule(*args)
    # A NaN key is not an error: heapq's order decides, in Python.
    assert kernel.edd_schedule(tasks, np.full(n, np.nan), values, values + 1, 1) is None


@pytest.mark.parametrize("name", sorted(IDENTICAL_TO))
def test_identical_to_base(name):
    # The degenerate steal policy runs on the loop-golden inputs (and on
    # the native matrix's cells in tests/decentral/test_engine.py's
    # TestDegenerateIdentity); the energy off-switches on the edge
    # shapes and the energy matrix's cells.
    base = IDENTICAL_TO[name]
    scheduler = make_scheduler(name)
    engine = plan_run(scheduler)
    if scheduler.decentral:
        sets = [(INPUTS, _golden_references(base))]
    else:
        sets = [
            (EDGE, _golden_references(base)),
            (ENERGY_CELLS, _references(base, ENERGY_CELLS)),
        ]
    for inputs, refs in sets:
        for i, (job, system) in enumerate(inputs):
            for telemetry in (None, Telemetry()):
                _same(
                    _run(engine, name, job, system, i, telemetry=telemetry),
                    refs[i], f"{name} vs {base}, input {i}",
                )


# ----------------------------------------------------------------------
# one refusal from every entry point
# ----------------------------------------------------------------------
CELL = "medium-layered-cosmos"
SPEC = WorkloadSpec(
    "ep", "layered", "small",
    params=EPParams(branches_range=(3, 4), chain_length_range=(4, 6)),
)


def _cli_argv(name: str, kind: str, tmp_path) -> list[list[str]]:
    demo = ["demo", CELL, "--scheduler", name]
    trace = ["trace", CELL, "--scheduler", name, "--out", str(tmp_path / "t.json")]
    return {
        "preemptive": [demo + ["--preemptive"], trace + ["--preemptive"]],
        "faults": [],
        "energy": [demo + ["--power", "baseline"]],
    }[kind]


def _sweep(names: tuple[str, ...], kind: str, telemetry=None):
    """The sweep that expresses ``kind``, over ``names``, one instance."""
    if kind == "preemptive":
        return run_comparison(
            SPEC, names, 1, SEED, preemptive=True, telemetry=telemetry
        )
    if kind == "faults":
        return run_robustness_comparison(
            SPEC, names, (0.0, 0.5), 1, SEED, telemetry=telemetry
        )
    power = power_config("baseline", SPEC.num_types)
    return run_energy_comparison(
        SPEC, power, 1, SEED, algorithms=names, telemetry=telemetry
    )


def _requests(names: tuple[str, ...], kind: str) -> list:
    """The service requests that express ``kind`` for ``names``."""
    if kind == "faults":
        return []
    options = {"preemptive": True} if kind == "preemptive" else {"power": "baseline"}
    requests = [ScheduleRequest(cell=CELL, scheduler=n, **options) for n in names]
    if kind == "preemptive":
        requests.append(
            SweepRequest(cell=CELL, algorithms=names, n_instances=1, preemptive=True)
        )
    return requests


@pytest.mark.parametrize("kind", sorted(DECENTRAL_REFUSALS))
@pytest.mark.parametrize("name", DECENTRAL)
def test_one_refusal_from_every_entry_point(name, kind, tmp_path, capsys):
    message = _refusal(name, kind)
    with pytest.raises(ConfigurationError) as excinfo:
        plan_run(make_scheduler(name), **{kind: True})
    assert str(excinfo.value) == message

    for argv in _cli_argv(name, kind, tmp_path):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"repro: error: {message}\n"

    # Refused when the sweep is built: nothing sampled or looked up.
    telemetry = Telemetry()
    with pytest.raises(ConfigurationError) as excinfo:
        _sweep(("kgreedy", name), kind, telemetry)
    assert str(excinfo.value) == message
    assert telemetry.counters == {}

    executor = ServiceExecutor(n_workers=0)
    for request in _requests((name,), kind):
        with pytest.raises(ProtocolError) as excinfo:
            asyncio.run(executor.execute(request))
        assert (excinfo.value.code, excinfo.value.message) == ("bad_request", message)


@pytest.mark.parametrize("kind", sorted(DECENTRAL_REFUSALS))
def test_supported_combinations_answer(kind, tmp_path, capsys):
    names = tuple(CENTRAL)
    assert _sweep(names, kind)
    for argv in _cli_argv("mqb", kind, tmp_path):
        assert main(argv) == 0
    capsys.readouterr()
    executor = ServiceExecutor(n_workers=0)
    for request in _requests(names, kind):
        result, _ = asyncio.run(executor.execute(request))
        assert result["cell"] == CELL
