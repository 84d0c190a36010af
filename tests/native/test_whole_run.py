"""Which runs the native whole-run loops carry, and which they leave.

:func:`repro.sim.engine.simulate` and
:func:`repro.sim.preemptive.simulate_preemptive` run a static-priority
or MQB scheduler's whole run in C when
:func:`repro.capabilities.row_kind` grants its row kind and the kernel
loads; bit-identity and telemetry are the differential harness's
native, preemptive and counters columns.  These tests pin the other
side: a protocol override (on a subclass or on the instance), an
attached event stream and the fault engine keep the Python loop and
really call the protocol, and the C loops answer bad input, a stall
and an overrun budget with an error rather than a crash.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace

import numpy as np
import pytest

from repro import native
from repro.capabilities import row_kind
from repro.energy.schedulers import EMQB, KGreedyConsolidate
from repro.faults.engine import _timeline_arrays, simulate_with_faults
from repro.faults.models import FaultTimeline, Outage
from repro.obs.events import EventStream
from repro.obs.telemetry import Telemetry
from repro.schedulers.kgreedy import KGreedy
from repro.schedulers.lspan import LSpan
from repro.schedulers.registry import make_scheduler
from repro.sim.engine import simulate
from repro.sim.preemptive import simulate_preemptive
from repro.workloads.generator import WORKLOAD_CELLS, sample_instance

ROW_NAMES = ("kgreedy", "mqb")


class NewestFirst(LSpan):
    """LSpan's declaration with its own ``select``: newest ready first."""

    def __init__(self) -> None:
        super().__init__()
        self.selects = 0

    def select(self, alpha: int, n_slots: int, time: float) -> list[int]:
        self.selects += 1
        heap = self._heaps[alpha]
        heap.sort(key=lambda entry: entry[1])  # by first-ready sequence
        out = [heap.pop()[2] for _ in range(min(n_slots, len(heap)))]
        heapq.heapify(heap)
        return out


@pytest.fixture
def kernel(monkeypatch):
    """Native on, with a loaded kernel, or a skip."""
    monkeypatch.setenv("REPRO_NATIVE", "1")
    k = native.load_kernel()
    if k is None:
        pytest.skip(f"native kernel unavailable: {native.native_status()['error']}")
    return k


@pytest.fixture
def instance():
    return sample_instance(
        WORKLOAD_CELLS["small-layered-ep"], np.random.default_rng(3)
    )


def _same(got, want) -> None:
    assert (got.makespan, got.decisions) == (want.makespan, want.decisions)
    assert got.trace.segments == want.trace.segments


def test_overrides_lose_the_row_kind():
    # The registry names' row kinds are the differential harness's
    # DECLARATIONS; here, the two ways a declaration stops holding, for
    # every family.
    assert row_kind(NewestFirst()) is None
    for name in ("lspan", "mqb", "emqb", "kgreedy-consolidate"):
        for method in ("task_finished", "capacity_changed"):
            wrapped = make_scheduler(name)
            assert row_kind(wrapped) is not None
            setattr(wrapped, method, getattr(wrapped, method))
            assert row_kind(wrapped) is None, (name, method)

    class Reweighted(EMQB):
        def _pick_best(self, alpha, extra):
            return super()._pick_best(alpha, extra)

    class Uncapped(KGreedyConsolidate):
        def assign(self, free, time):
            return KGreedy.assign(self, free, time)

    assert row_kind(Reweighted()) is None
    assert row_kind(Uncapped()) is None


def test_class_override_runs_python_loop(kernel, instance):
    scheduler = NewestFirst()
    tel = Telemetry()
    res = simulate(*instance, scheduler, telemetry=tel)
    assert scheduler.selects > 0
    assert "native.runs" not in tel.counters
    plain = simulate(*instance, LSpan())
    assert (res.makespan, res.decisions) != (plain.makespan, plain.decisions)


@pytest.mark.parametrize("name", ROW_NAMES)
def test_instance_wrapper_runs_python_loop(kernel, instance, name):
    # A tracer wraps the protocol on the instance (perfbench does):
    # the wrapper sees every decision round.
    scheduler = make_scheduler(name)
    inner = scheduler.assign
    rounds = []

    def assign(free, time):
        rounds.append(time)
        return inner(free, time)

    scheduler.assign = assign
    tel = Telemetry()
    res = simulate(*instance, scheduler, record_trace=True, telemetry=tel)
    assert len(rounds) == res.decisions > 0
    assert "native.runs" not in tel.counters
    _same(res, simulate(*instance, make_scheduler(name), record_trace=True))


@pytest.mark.parametrize("name", ROW_NAMES)
def test_event_stream_runs_python_loop(kernel, instance, name):
    events = EventStream()
    tel = Telemetry(events=events)
    res = simulate(*instance, make_scheduler(name), record_trace=True, telemetry=tel)
    assert "native.runs" not in tel.counters
    assert len(events.of_kind("decision")) == res.decisions
    _same(res, simulate(*instance, make_scheduler(name), record_trace=True))


@pytest.mark.parametrize("name", ROW_NAMES)
def test_preemptive_override_and_event_stream_run_python_loop(kernel, instance, name):
    # The preemptive loop takes the same gate: a wrapped protocol sees
    # every quantum, an event stream sees every slice.
    scheduler = make_scheduler(name)
    inner = scheduler.assign
    rounds = []

    def assign(free, time):
        rounds.append(time)
        return inner(free, time)

    scheduler.assign = assign
    tel = Telemetry()
    res = simulate_preemptive(*instance, scheduler, record_trace=True, telemetry=tel)
    assert len(rounds) == res.decisions > 0
    assert "native.runs" not in tel.counters
    events = EventStream()
    tel = Telemetry(events=events)
    streamed = simulate_preemptive(
        *instance, make_scheduler(name), record_trace=True, telemetry=tel
    )
    assert "native.runs" not in tel.counters
    assert len(events.of_kind("slice")) == len(streamed.trace.segments)
    for other in (res, streamed):
        _same(other, simulate_preemptive(*instance, make_scheduler(name), record_trace=True))


@pytest.mark.parametrize("name", ROW_NAMES)
def test_fault_engine_runs_python_loop(kernel, instance, name):
    # The fault runs the gate keeps on the Python seam: an event stream
    # watches the run, or the scheduler has its own capacity_changed.
    # Either way the run is the C loop's.
    timeline = FaultTimeline([Outage(0, 0, 1.0, 3.0), Outage(1, 1, 2.5, 9.0)])
    tel = Telemetry()
    ref = simulate_with_faults(
        *instance, make_scheduler(name), timeline, record_trace=True,
        telemetry=tel,
    )
    assert tel.counters["native.runs"] == 1
    events = EventStream()
    tel = Telemetry(events=events)
    streamed = simulate_with_faults(
        *instance, make_scheduler(name), timeline, record_trace=True,
        telemetry=tel,
    )
    assert "native.runs" not in tel.counters
    assert len(events.of_kind("fail")) == len(events.of_kind("repair")) == 2
    scheduler = make_scheduler(name)
    seen = []
    scheduler.capacity_changed = lambda alpha, up, time: seen.append((alpha, up, time))
    tel = Telemetry()
    hooked = simulate_with_faults(
        *instance, scheduler, timeline, record_trace=True, telemetry=tel
    )
    assert "native.runs" not in tel.counters
    p0, p1 = instance[1].counts[:2]
    assert seen == [(0, p0 - 1, 1.0), (1, p1 - 1, 2.5), (0, p0, 3.0), (1, p1, 9.0)]
    for other in (streamed, hooked):
        _same(other, ref)
        assert (other.kills, other.wasted_work) == (ref.kills, ref.wasted_work)


def _raw_job(types, work, children, k):
    """The arrays ``MQBKernel.run`` reads, without KDag's validation."""
    ptr = np.cumsum([0] + [len(c) for c in children])
    return SimpleNamespace(
        n_tasks=len(types), num_types=k, types=np.array(types),
        work=np.array(work, dtype=float), child_ptr=ptr,
        child_idx=np.array([c for cs in children for c in cs], dtype=np.int64),
    )


def _random_raw_job(rng):
    """A well-formed DAG of 1-8 tasks over K = 1-4 types, its counts
    and both kinds' prepared state."""
    n, k = int(rng.integers(1, 9)), int(rng.integers(1, 5))
    children = [
        sorted(int(c) for c in range(v + 1, n) if rng.random() < 0.4)
        for v in range(n)
    ]
    job = _raw_job(
        rng.integers(0, k, n).tolist(), rng.uniform(0.5, 3.0, n).tolist(),
        children, k,
    )
    state = {"keys": rng.random(n), "d": rng.random((n, k))}
    return job, rng.integers(1, 4, k), state


def _break_ptr_start(job, counts, state, rng):
    job.child_ptr = job.child_ptr.copy()
    job.child_ptr[0] = int(rng.choice([-2, -1, 1, 2]))


def _break_ptr_order(job, counts, state, rng):
    # A middle offset above the last keeps child_idx's length right;
    # one task has no middle, so its last offset goes below the first.
    job.child_ptr = job.child_ptr.copy()
    if job.n_tasks < 2:
        job.child_ptr[-1] = -1
    else:
        job.child_ptr[int(rng.integers(1, job.n_tasks))] = job.child_ptr[-1] + 1


def _break_child_idx(job, counts, state, rng):
    n = job.n_tasks
    job.child_idx = np.append(job.child_idx, rng.choice([-1, n, n + 5, -(2**40)]))
    job.child_ptr = job.child_ptr.copy()
    job.child_ptr[-1] += 1


def _break_types(job, counts, state, rng):
    job.types = job.types.copy()
    job.types[int(rng.integers(job.n_tasks))] = rng.choice([-1, job.num_types, 99])


def _break_counts(job, counts, state, rng):
    counts[int(rng.integers(job.num_types))] = -int(rng.integers(1, 4))


def _break_shape(job, counts, state, rng):
    name = rng.choice(["types", "work", "child_ptr", "child_idx"])
    a = getattr(job, name)
    setattr(job, name, a[:-1] if a.size and rng.random() < 0.5 else np.append(a, 0))


def _break_state(job, counts, state, rng):
    state["keys"] = np.append(state["keys"], 0.0)
    state["d"] = np.pad(state["d"], ((0, 0), (0, 1)))


CORRUPTIONS = (
    _break_ptr_start, _break_ptr_order, _break_child_idx, _break_types,
    _break_counts, _break_shape, _break_state,
)


def test_bad_input_is_an_error_not_a_crash(kernel):
    job = _raw_job([0, 1], [1.0, 1.0], [[1], []], 2)
    with pytest.raises(ValueError):
        kernel.run("static", job, (1, 1), keys=np.zeros(3))
    with pytest.raises(ValueError, match="row kind"):
        kernel.run("bogus", job, (1, 1), keys=np.zeros(2))
    with pytest.raises(ValueError, match="balance mode"):
        kernel.run("mqb", job, (1, 1), d=np.zeros((2, 2)), mode="max")
    job.types = np.array([0, 2])  # out of range for K=2: rejected in C
    with pytest.raises(OSError, match="bad input"):
        kernel.run("static", job, (1, 1), keys=np.zeros(2))
    job.types = np.array([0, 1])
    job.child_idx = np.array([7])  # no such task
    with pytest.raises(OSError, match="bad input"):
        kernel.run("mqb", job, (1, 1), d=np.zeros((2, 2)))
    # Generated well-formed jobs, each broken one way, through both
    # whole-run loops.
    rng = np.random.default_rng(11)
    loops = {
        "run": kernel.run,
        "run_preemptive": lambda kind, job, counts, **state: kernel.run_preemptive(
            kind, job, counts, 1.0, 1000, record_trace=True, **state
        ),
    }
    for corrupt in CORRUPTIONS:
        for kind in ("static", "mqb"):
            for loop, run in loops.items():
                for _ in range(50):
                    job, counts, state = _random_raw_job(rng)
                    corrupt(job, counts, state, rng)
                    try:
                        run(kind, job, counts, **state)
                    except (ValueError, OSError):
                        continue
                    pytest.fail(f"{corrupt.__name__} ran as {kind} in {loop}")
    # Well-formed jobs with a quantum that is not positive and finite, or
    # a trace one segment short of the tasks (each runs at least once).
    for _ in range(50):
        job, counts, state = _random_raw_job(rng)
        for kind in ("static", "mqb"):
            for quantum in (0.0, -1.0, -0.0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match="quantum"):
                    kernel.run_preemptive(kind, job, counts, quantum, 1000, **state)
            with pytest.raises((ValueError, OSError)):
                kernel.run_preemptive(
                    kind, job, counts, 1.0, 1000, record_trace=True,
                    trace_cap=job.n_tasks - 1, **state,
                )


def _random_timeline(counts, rng) -> list:
    """1-6 outages on ``counts`` as :meth:`MQBKernel.run`'s timeline
    arrays, in ``FaultTimeline.events()`` order."""
    outages = []
    for _ in range(int(rng.integers(1, 7))):
        a = int(rng.integers(len(counts)))
        t = float(rng.integers(0, 8)) / 2
        outages.append(
            Outage(a, int(rng.integers(counts[a])), t, t + float(rng.integers(1, 5)) / 2)
        )
    return [a.copy() for a in _timeline_arrays(FaultTimeline(outages).events())]


def _break_alpha(timeline, counts, rng):
    timeline[2][int(rng.integers(len(timeline[2])))] = rng.choice([-1, len(counts), 99])


def _break_proc(timeline, counts, rng):
    i = int(rng.integers(len(timeline[3])))
    timeline[3][i] = counts[timeline[2][i]] + int(rng.integers(0, 3))


def _break_time(timeline, counts, rng):
    timeline[0][int(rng.integers(len(timeline[0])))] = rng.choice(
        [np.nan, -0.5, -1e-300, np.inf]
    )


def _break_order(timeline, counts, rng):
    # Each FAIL precedes its REPAIR at a later time, so the reversed
    # timeline puts a REPAIR before an earlier FAIL.
    for a in timeline:
        a[:] = a[::-1].copy()


def _break_kind(timeline, counts, rng):
    timeline[1] = timeline[1].astype(np.int64)
    i = int(rng.integers(len(timeline[1])))
    timeline[1][i] = rng.choice([2, -1, 1 - timeline[1][i]])


TIMELINE_CORRUPTIONS = (_break_alpha, _break_proc, _break_time, _break_order, _break_kind)


def test_bad_fault_and_energy_input_is_an_error_not_a_crash(kernel):
    # Generated well-formed jobs under well-formed timelines, each
    # timeline broken one way: an alpha out of range, a processor past
    # its type's count, a NaN, infinite or negative time, entries out
    # of order, or a kind that is not FAIL or REPAIR (or breaks a
    # processor's FAIL/REPAIR alternation).
    rng = np.random.default_rng(12)
    for corrupt in TIMELINE_CORRUPTIONS:
        for kind in ("static", "mqb"):
            for _ in range(50):
                job, counts, state = _random_raw_job(rng)
                timeline = _random_timeline(counts, rng)
                kernel.run(kind, job, counts, timeline=[a.copy() for a in timeline],
                           record_trace=True, **state)
                corrupt(timeline, counts, rng)
                with pytest.raises(OSError, match="bad input"):
                    kernel.run(kind, job, counts, timeline=timeline, **state)
    job, counts, state = _random_raw_job(rng)
    timeline = _random_timeline(counts, rng)
    with pytest.raises(ValueError, match="timeline"):
        kernel.run("static", job, counts, timeline=timeline[:3] + [timeline[3][:-1]],
                   keys=state["keys"])
    # The energy rows' vectors: weights must be finite and >= 0, caps
    # >= 1, one per type, and only on their own row kinds.
    k = job.num_types
    loops = (
        kernel.run,
        lambda kind, job, counts, **kw: kernel.run_preemptive(
            kind, job, counts, 1.0, 1000, **kw
        ),
    )
    for run in loops:
        run("emqb", job, counts, d=state["d"], weights=np.ones(k))
        run("consolidate", job, counts, keys=state["keys"], caps=np.ones(k, int))
        for bad in (-1.0, np.nan, np.inf, -np.inf):
            weights = np.ones(k)
            weights[int(rng.integers(k))] = bad
            with pytest.raises(OSError, match="bad input"):
                run("emqb", job, counts, d=state["d"], weights=weights)
        for bad in (0, -1, -(2**40)):
            caps = np.ones(k, dtype=np.int64)
            caps[int(rng.integers(k))] = bad
            with pytest.raises(OSError, match="bad input"):
                run("consolidate", job, counts, keys=state["keys"], caps=caps)
        with pytest.raises(ValueError, match="do not match"):
            run("emqb", job, counts, d=state["d"], weights=np.ones(k + 1))
        with pytest.raises(ValueError, match="do not match"):
            run("consolidate", job, counts, keys=state["keys"], caps=np.ones(k + 1, int))
        with pytest.raises(ValueError, match="needs weights"):
            run("emqb", job, counts, d=state["d"])
        with pytest.raises(ValueError, match="takes no caps"):
            run("mqb", job, counts, d=state["d"], caps=np.ones(k, int))
        with pytest.raises(OSError, match="bad input"):
            run("emqb", job, counts, d=state["d"], mode="min", weights=np.ones(k))


@pytest.mark.parametrize("kind", ["static", "mqb"])
def test_stall_is_reported(kernel, kind):
    # No processor of type 1: task 1 becomes ready at t=2 and never runs.
    job = _raw_job([0, 1], [2.0, 1.0], [[1], []], 2)
    state = {"keys": np.zeros(2)} if kind == "static" else {"d": np.zeros((2, 2))}
    run = kernel.run(kind, job, (1, 0), **state)
    assert run.stalled == (2.0, 1, 1)
    # Preemptive: the quantum at t=2 chooses nothing; one quantum of
    # budget runs out at t=1; a cycle leaves every queue empty.
    run = kernel.run_preemptive(kind, job, (1, 0), 1.0, 100, **state)
    assert run.failed == ("idle", 2.0, 1)
    run = kernel.run_preemptive(kind, job, (1, 1), 1.0, 1, **state)
    assert run.failed == ("budget", 1.0, 2)
    cycle = _raw_job([0, 1], [1.0, 1.0], [[1], [0]], 2)
    run = kernel.run_preemptive(kind, cycle, (1, 1), 1.0, 100, **state)
    assert run.failed == ("stalled", 0.0, 2)
