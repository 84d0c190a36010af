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
from repro.faults.engine import simulate_with_faults
from repro.faults.models import FaultTimeline
from repro.obs.events import EventStream
from repro.obs.telemetry import Telemetry
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
    # DECLARATIONS; here, the two ways a declaration stops holding.
    assert row_kind(NewestFirst()) is None
    wrapped = make_scheduler("lspan")
    wrapped.task_finished = wrapped.task_finished
    assert row_kind(wrapped) is None


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
    tel = Telemetry()
    res = simulate_with_faults(
        *instance, make_scheduler(name), FaultTimeline(), record_trace=True,
        telemetry=tel,
    )
    assert "native.runs" not in tel.counters
    _same(res, simulate(*instance, make_scheduler(name), record_trace=True))


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
