"""Every registry scheduler through every run kind, from one table.

The capability declarations (``Scheduler.decentral`` and
``Scheduler.lockstep``) and :func:`repro.capabilities.plan_run` decide
which engine runs a scheduler, or refuse the run.  This harness drives
every :func:`~repro.schedulers.registry.available_schedulers` name
through every run kind and checks one of two outcomes:

* **identity** to the reference run
  ``plan_run(s)(job, system, s, rng=..., record_trace=True)`` on numpy
  — makespan, decisions and trace segments — for the native kernel
  (telemetry off and on), the fault engine at rate 0 and enabled
  telemetry; the degenerate steal policy and the energy off-switches
  reproduce their base schedulers; and preemptive and energy runs
  validate and compute;
* for the names with a row kind, the native whole-run loop's
  **telemetry**: the counters, histograms and timers of the Python
  loop (which an attached event stream keeps), over the loop-golden
  inputs and the native matrix's cells;
* for the names with a row kind, the native **preemptive** loop:
  identity to ``simulate_preemptive`` on ``REPRO_NATIVE=0`` (makespan,
  decisions and every segment) at quanta 1.0, 0.5 and 2.5, and its
  telemetry against the Python loop's;
* the native **offline passes**, byte for byte against numpy: KDag's
  peel (order, depth, levels), the bottom and top levels, the
  different-child distance, the typed, untyped and one-step descendant
  values, ShiftBT's EDD subproblems, priorities and bottleneck order,
  and the peel's refusal of a cycle;
* the native **tree expansion**: the job :func:`generate_tree` samples
  and the generator's next draws, against the Python loop;
* the planner's **refusal**, with one message from every entry point
  that can express the combination: ``plan_run``, the CLI (exit 2),
  the sweeps and the service (``bad_request``).

Inputs:

* the edge shapes of ``tests/sim/test_loop_golden.py`` (one task, K=1,
  P_alpha=1, wide fan-in, non-integer work, tied keys) and hypothesis
  draws from ``tests/properties/test_schedule_invariants.py``: every
  column, every name;
* the loop-golden generated cells: the native column of the names
  with a row kind, and the degenerate steal policy;
* the native matrix's 3 cells x 3 instances: native vs numpy for MQB's
  balance and carry variants;
* the class pools: jobs whose ready tasks share bit-identical (type,
  work, descendant row), which the C loop scores once per class — the
  native and counters columns for MQB's balance, carry and information
  variants;
* the energy matrix's 3 cells x 3 instances: the energy off-switches;
* for the preemptive columns: the loop-golden edge shapes, hypothesis
  draws and one instance of each of Fig. 7's three layered cells;
* for the offline passes: the loop-golden inputs, hypothesis draws,
  one instance of each of the eight cells, EDD subproblems at
  P_alpha = 1 and P_alpha >= tasks with tied due dates and releases,
  and fan-out jobs whose parents sum 1 to 3,001 non-dyadic
  contributions (every regime of numpy's pairwise summation) at
  K = 1, 4, 9 and 16;
* for the tree expansion: 300 instances of each tree cell, edge
  ``TreeParams`` and the MT19937, Philox and SFC64 bit generators.
"""

from __future__ import annotations

import asyncio
import functools
import os
import re
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.capabilities import DECENTRAL_REFUSALS, plan_run, row_kind
from repro.cli import main
from repro.core.cache import cached_due_dates, clear_offline_cache
from repro.core.descendants import (
    descendant_values, different_child_distance, one_step_descendant_values,
    untyped_descendant_values,
)
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
from repro.sim.preemptive import simulate_preemptive
from repro.sim.validate import validate_schedule
from repro.system.resources import ResourceConfig
from repro.workloads.generator import (
    EXTRA_CELLS, WORKLOAD_CELLS, sample_instance, sample_job,
)
from repro.workloads.params import EPParams, TreeParams, WorkloadSpec
from repro.workloads.tree import _expand, generate_tree
from tests.properties.test_schedule_invariants import jobs_and_systems
from tests.sim.test_loop_golden import _jobs

NAMES = available_schedulers()

#: ``(decentral, lockstep, row_kind)`` per registry name.  Pinned by
#: hand, so a decentral mixin that slips behind its centralized base in
#: a class's bases shows up here.
DECLARATIONS = {
    "random": (False, None, None),
    "kgreedy": (False, "static", "static"),
    "lspan": (False, "static", "static"),
    "maxdp": (False, "static", "static"),
    "dtype": (False, "static", "static"),
    "shiftbt": (False, "static", "static"),
    "mqb": (False, "mqb", "mqb"),
    "mqb[min]": (False, "mqb", "mqb"),
    "mqb[sum]": (False, "mqb", "mqb"),
    "mqb[nocarry]": (False, "mqb", "mqb"),
    "mqb+all+pre": (False, "mqb", "mqb"),
    "mqb+all+exp": (False, "mqb", "mqb"),
    "mqb+all+noise": (False, "mqb", "mqb"),
    "mqb+1step+pre": (False, "mqb", "mqb"),
    "mqb+1step+exp": (False, "mqb", "mqb"),
    "mqb+1step+noise": (False, "mqb", "mqb"),
    "dkgreedy": (True, None, None),
    "dkgreedy[half]": (True, None, None),
    "dkgreedy[global]": (True, None, None),
    "dmqb": (True, None, None),
    "dmqb[half]": (True, None, None),
    "dmqb[global]": (True, None, None),
    "emqb": (False, None, None),
    "emqb[w=0.5]": (False, None, None),
    "kgreedy-consolidate": (False, None, None),
    "kgreedy-consolidate[r=0.5]": (False, None, None),
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
ROW_NAMES = [name for name in NAMES if DECLARATIONS[name][2] is not None]

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
    names with a row kind, the edge shapes for the rest."""
    return _references(name, INPUTS if name in ROW_NAMES else EDGE)


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
    assert (
        scheduler.decentral, scheduler.lockstep, row_kind(scheduler)
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
    # The names with a row kind also run the generated cells, whose
    # runs the C loop carries.
    refs = _golden_references(name)
    _check_scalar(name, INPUTS[: len(refs)], refs)
    _check_run_kinds(name, EDGE, refs[: len(EDGE)])


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_every_column_on_generated_jobs(name, data):
    inputs = [data.draw(jobs_and_systems())]
    refs = _references(name, inputs)
    _check_scalar(name, inputs, refs)
    _check_run_kinds(name, inputs, refs)


def test_native_column_on_cells():
    if native.load_kernel() is None:
        pytest.skip(f"native kernel unavailable: {native.native_status()['error']}")
    for name in VARIANTS:
        refs = _references(name, NATIVE_CELLS)
        _check_scalar(name, NATIVE_CELLS, refs, bare=False)


def _check_counters(name: str, inputs: list, preemptive: bool = False) -> None:
    """Counters column: native on, ``Telemetry()`` runs take the C
    loop, and an attached event stream keeps the Python loop.  Both
    report the same counters (but the C loop's ``native.runs``),
    histograms, timer keys and decision-round counts."""
    engine = plan_run(make_scheduler(name), preemptive=preemptive)
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
# preemptive columns
# ----------------------------------------------------------------------
#: Fig. 7's three layered cells, one instance each (1,116, 379 and 2,332
#: tasks): the Python reference runs them at every quantum.
PREEMPTIVE_CELLS = [
    sample_instance(WORKLOAD_CELLS[cell], _rng(2))
    for cell in ("small-layered-ep", "medium-layered-tree", "medium-layered-ir")
]
#: Quanta of the preemptive native column: a whole, a half and one that
#: integer works end in the middle of.
QUANTA = (1.0, 0.5, 2.5)


def _check_preemptive(name: str, inputs: list) -> None:
    """Preemptive native column: native runs, telemetry off and on,
    against ``REPRO_NATIVE=0`` at every quantum."""
    telemetry = Telemetry()
    for quantum in QUANTA:
        with _native(False):
            refs = [
                _run(simulate_preemptive, name, job, system, i, quantum=quantum)
                for i, (job, system) in enumerate(inputs)
            ]
        with _native(True):
            for i, (job, system) in enumerate(inputs):
                for t in (None, telemetry):
                    _same(
                        _run(
                            simulate_preemptive, name, job, system, i,
                            quantum=quantum, telemetry=t,
                        ),
                        refs[i], f"{name} preemptive, quantum {quantum}, input {i}",
                    )
    _check_kernel(telemetry, False)
    if native.load_kernel() is not None:
        whole = sum(_whole_run(name, job) for job, _ in inputs) * len(QUANTA)
        assert telemetry.counters.get("native.runs", 0) == whole, name


@pytest.mark.parametrize("name", ROW_NAMES)
def test_preemptive_native_column(name):
    _check_preemptive(name, EDGE + PREEMPTIVE_CELLS)


@pytest.mark.parametrize("name", ROW_NAMES)
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_preemptive_native_column_on_generated_jobs(name, data):
    _check_preemptive(name, [data.draw(jobs_and_systems())])


@pytest.mark.parametrize("name", ROW_NAMES)
def test_preemptive_counters_column(name):
    if native.load_kernel() is None:
        pytest.skip(f"native kernel unavailable: {native.native_status()['error']}")
    _check_counters(name, EDGE + PREEMPTIVE_CELLS, preemptive=True)


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


def _add_sweeps(job: KDag) -> dict:
    """The three add sweeps of ``job``, as bytes."""
    return {
        "descendant": descendant_values(job).tobytes(),
        "untyped": untyped_descendant_values(job).tobytes(),
        "one_step": one_step_descendant_values(job).tobytes(),
    }


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
        **_add_sweeps(peeled),
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


#: Children per parent in the fan-out jobs: every regime of numpy's
#: pairwise summation (sequential below 8 terms, 8 accumulators up to
#: 128, a recursive split above) and its boundaries.
FAN_OUTS = (1, 7, 8, 9, 16, 17, 128, 129, 130, 257, 3001)


def _fan_out_job(k: int) -> KDag:
    """One parent per ``FAN_OUTS`` entry with that many children of its
    own; each child also has 2, 4 or 6 extra source parents (in-degree
    3, 5 or 7, so its contribution is non-dyadic) and one sink child
    shared by every child, so the children's own rows are not zero."""
    rng = np.random.default_rng([SEED, k])
    n_kids = sum(FAN_OUTS)
    parents, helpers = len(FAN_OUTS), 6
    first_kid = parents + helpers
    sink = first_kid + n_kids
    kids = np.arange(first_kid, sink)
    owner = np.repeat(np.arange(parents), FAN_OUTS)
    extra = rng.choice((2, 4, 6), size=n_kids)
    edges = [np.stack([owner, kids], axis=1)]
    for h in range(helpers):
        mask = extra > h
        edges.append(np.stack([np.full(int(mask.sum()), parents + h), kids[mask]], axis=1))
    edges.append(np.stack([kids, np.full(n_kids, sink)], axis=1))
    n = sink + 1
    return KDag(
        types=rng.integers(0, k, size=n),
        work=rng.integers(1, 9, size=n).astype(np.float64),
        edges=np.concatenate(edges),
        num_types=k,
    )


@pytest.mark.parametrize("k", [1, 4, 9, 16])
def test_offline_add_sweeps_every_segment_length(k):
    job = _fan_out_job(k)
    assert sorted(set(np.diff(job.child_ptr)[: len(FAN_OUTS)])) == list(FAN_OUTS)
    with _native(False):
        want = _add_sweeps(job)
    with _native(True):
        got = _add_sweeps(job)
    assert got == want


def test_offline_add_probe_failure_keeps_numpy(monkeypatch):
    # A host whose numpy sums reduceat segments in another order: the
    # kernel still loads, but the add sweeps never call it.
    job = CELL_INSTANCES[2][0]
    with _native(False):
        want = _add_sweeps(job)
    token = native._reset_for_tests()
    try:
        monkeypatch.setattr(native, "_probe_add_order", lambda kernel: "forced mismatch")
        with _native(True):
            if native.load_kernel() is None:
                pytest.skip(f"native kernel unavailable: {native.native_status()['error']}")
            status = native.native_status()
            assert status["loaded"] and not status["add_sweeps"]
            assert status["add_sweeps_error"] == "forced mismatch"
            assert native.summing_kernel() is None

            def boom(*args, **kwargs):  # pragma: no cover - must never run
                raise AssertionError("the add sweeps must stay on numpy")

            for entry in (
                "descendant_values", "untyped_descendant_values",
                "one_step_descendant_values",
            ):
                monkeypatch.setattr(native.MQBKernel, entry, boom)
            assert _add_sweeps(job) == want
    finally:
        native._restore(token)


def test_offline_add_probe_tells_the_orders_apart():
    # The load probe's segments, summed left to right, differ from
    # np.add.reduceat in both of the probe's runs: a kernel summing that
    # way would fail it.
    job, seg = native._probe_job()
    kids = job.child_idx
    onehot = np.zeros((job.n_tasks, job.num_types))
    onehot[np.arange(job.n_tasks), job.types] = job.work
    for values in (job.work[kids][:, None], onehot[kids]):
        bounds = [*seg.tolist(), len(kids)]
        plain = np.array([
            functools.reduce(lambda a, b: a + b, values[s:e]) for s, e in zip(bounds, bounds[1:])
        ])
        assert plain.tobytes() != np.add.reduceat(values, seg, axis=0).tobytes()
    kernel = native.load_kernel()
    if kernel is not None:
        assert native._probe_add_order(kernel) is None


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


# ----------------------------------------------------------------------
# tree column
# ----------------------------------------------------------------------
#: TreeParams at the expansion's edges: no forced level, one level, a
#: root that can never expand (max_nodes < m + 1), p = 0, p = 1 (20,000
#: nodes grow the kernel's buffers past their first size) and a chain.
EDGE_TREES = (
    TreeParams(forced_depth=0),
    TreeParams(max_depth=1, forced_depth=0),
    TreeParams(max_depth=1, forced_depth=1),
    TreeParams(fanout_range=(6, 12), max_nodes=6),
    TreeParams(fanout_prob_range=(0.0, 0.0)),
    TreeParams(fanout_prob_range=(0.0, 0.0), forced_depth=0),
    TreeParams(fanout_prob_range=(1.0, 1.0), max_depth=4),
    TreeParams(fanout_prob_range=(1.0, 1.0), max_nodes=20_000, max_depth=6),
    TreeParams(fanout_range=(1, 1), fanout_prob_range=(0.9, 1.0),
               max_depth=400, max_nodes=400),
)


def _tree_draws(sample, rng: np.random.Generator) -> tuple:
    """``sample(rng)``'s job, then the generator's next draws."""
    job = sample(rng)
    return (
        job.edges.tobytes(), job.types.tobytes(), job.work.tobytes(),
        job.num_types, rng.integers(0, 2**62, size=4).tolist(), rng.random(3).tolist(),
    )


def _check_trees(sample, rngs) -> None:
    for i, make_rng in enumerate(rngs):
        with _native(False):
            want = _tree_draws(sample, make_rng())
        with _native(True):
            got = _tree_draws(sample, make_rng())
        assert got == want, f"instance {i}"


@pytest.mark.parametrize("cell", [c for c in WORKLOAD_CELLS if "tree" in c])
def test_tree_column_on_cells(cell):
    spec = WORKLOAD_CELLS[cell]
    _check_trees(
        lambda rng: sample_job(spec, rng),
        [functools.partial(_rng, i) for i in range(300)],
    )


@pytest.mark.parametrize("params", EDGE_TREES, ids=range(len(EDGE_TREES)))
@pytest.mark.parametrize("bit_generator", [
    np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64,
])
def test_tree_column_edges_and_bit_generators(params, bit_generator):
    _check_trees(
        lambda rng: generate_tree(params, 3, "layered", rng),
        [lambda i=i: np.random.Generator(bit_generator([SEED, i])) for i in range(8)],
    )


class _Arrays:
    """A job-shaped bundle of arbitrary arrays for the bindings."""

    def __init__(self, job: KDag, **overrides) -> None:
        self.n_tasks = job.n_tasks
        for name in (
            "types", "work", "child_ptr", "child_idx", "parent_ptr",
            "parent_idx", "topological_order", "num_types",
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
    typed = (kernel.descendant_values, kernel.one_step_descendant_values)
    for bad in bad_jobs:
        for sweep in (
            kernel.bottom_levels, kernel.top_levels, kernel.different_child_distance,
            kernel.untyped_descendant_values, *typed,
        ):
            with pytest.raises((ValueError, OSError)):
                sweep(bad)
    bad_types = [
        _Arrays(job, types=np.full_like(job.types, job.num_types)),
        _Arrays(job, types=-np.ones_like(job.types)),
        _Arrays(job, types=job.types[:-1]),
        _Arrays(job, num_types=0),
    ]
    for bad in bad_types:
        for sweep in typed:
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
    bit_generator = np.random.PCG64(SEED)
    bad_trees = [
        (bit_generator, -1, 0.5, 4, 100, 1),           # negative fan-out
        (np.random.default_rng(SEED), 6, 0.5, 4, 100, 1),  # not a BitGenerator
        (None, 6, 0.5, 4, 100, 1),
    ]
    for args in bad_trees:
        with pytest.raises((ValueError, OSError)):
            kernel.expand_tree(*args)
    # Bounds past int64, or that no tree can meet, are not errors: the
    # expansion is the Python loop's.
    for max_depth, max_nodes, forced_depth in (
        (4, 2**70, -(2**70)), (2**70, 40, 2**70), (3, 0, 1), (-5, 100, -9),
    ):
        bounds = SimpleNamespace(
            max_depth=max_depth, max_nodes=max_nodes, forced_depth=forced_depth,
        )
        got = kernel.expand_tree(
            np.random.PCG64(SEED), 2, 0.7, max_depth, max_nodes, forced_depth,
        )
        want = _expand(bounds, 2, 0.7, np.random.Generator(np.random.PCG64(SEED)))
        assert [a.tolist() for a in got] == [a.tolist() for a in want], bounds


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
