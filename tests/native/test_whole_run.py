"""Which runs the native whole-run loop carries, and which it leaves.

:func:`repro.sim.engine.simulate` runs a static-priority or MQB
scheduler's whole run in C when :func:`repro.capabilities.row_kind`
grants its row kind and the kernel loads; bit-identity and telemetry
are the differential harness's native and counters columns.  These
tests pin the other side: a protocol override (on a subclass or on the
instance), an attached event stream and the fault engine keep the
Python loop and really call the protocol, the batch engine applies
the same gate, and the C loop answers bad input and a stall with an
error rather than a crash.
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
from repro.sim.batch import batch_supported, simulate_batch
from repro.sim.engine import simulate
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


def test_batch_runs_class_override_on_scalar_engine(instance):
    # The override inherits LSpan's "static" declaration; the batch
    # engine used to run it as plain LSpan.
    job, system = instance
    assert not batch_supported(NewestFirst(), job)
    scalar = simulate(job, system, NewestFirst(), record_trace=True)
    [batch] = simulate_batch([instance], NewestFirst(), record_trace=True)
    _same(batch, scalar)


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


def test_bad_input_is_an_error_not_a_crash(kernel):
    job = _raw_job([0, 1], [1.0, 1.0], [[1], []], 2)
    with pytest.raises(ValueError):
        kernel.run("static", job, (1, 1), keys=np.zeros(3))
    job.types = np.array([0, 2])  # out of range for K=2: rejected in C
    with pytest.raises(OSError, match="bad input"):
        kernel.run("static", job, (1, 1), keys=np.zeros(2))
    job.types = np.array([0, 1])
    job.child_idx = np.array([7])  # no such task
    with pytest.raises(OSError, match="bad input"):
        kernel.run("mqb", job, (1, 1), d=np.zeros((2, 2)))


@pytest.mark.parametrize("kind", ["static", "mqb"])
def test_stall_is_reported(kernel, kind):
    # No processor of type 1: task 1 becomes ready at t=2 and never runs.
    job = _raw_job([0, 1], [2.0, 1.0], [[1], []], 2)
    state = {"keys": np.zeros(2)} if kind == "static" else {"d": np.zeros((2, 2))}
    run = kernel.run(kind, job, (1, 0), **state)
    assert run.stalled == (2.0, 1, 1)
