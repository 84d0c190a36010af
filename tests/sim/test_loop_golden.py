"""Golden pins for the runs that share the list-scheduling loop.

The degenerate steal policy (``dkgreedy[global]``, ``dmqb[global]``)
and the fault-aware engine (:func:`repro.faults.simulate_with_faults`)
both run the non-preemptive list-scheduling loop.  These pins hold the
exact outputs of those runs — makespan, decisions, kills, wasted work,
trace segments, telemetry counters and histograms, timer keys with
their call counts, and the multiset of emitted events — so a change to
the loop that moves any of them fails here.

Inputs cover the edge shapes (one task, K=1, P_alpha=1, wide fan-in,
non-integer work, tied keys) plus a few generated instances.  Fault
timelines include an outage that starts at t=0, failures at a
completion-and-dispatch instant, random renewal timelines, and a
maintenance schedule that trips the ``max_kills`` livelock guard.

Traces are pinned in segment order, which is dispatch order for both
kinds of run.  Re-record after an intended output change with::

    PYTHONPATH=src python tests/sim/test_loop_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.kdag import KDag
from repro.decentral.engine import simulate_decentralized
from repro.errors import SchedulingError
from repro.faults.engine import simulate_with_faults
from repro.faults.models import (
    ExponentialFaults,
    FaultTimeline,
    MaintenanceWindows,
    Outage,
)
from repro.obs.events import EventStream
from repro.obs.telemetry import Telemetry
from repro.schedulers.registry import make_scheduler
from repro.sim.engine import simulate
from repro.system.resources import ResourceConfig
from repro.workloads.generator import WORKLOAD_CELLS, sample_job

GOLDEN = Path(__file__).with_name("loop_golden.json")


def _jobs() -> dict[str, tuple[KDag, ResourceConfig]]:
    """Edge shapes plus generated instances, by name."""
    jobs = {
        "one-task": (
            KDag(types=[0], work=[3.0], num_types=1),
            ResourceConfig((1,)),
        ),
        "k1": (
            KDag(
                types=[0] * 7,
                work=[2.0, 1.0, 3.0, 1.0, 2.0, 1.0, 4.0],
                edges=[(0, 2), (1, 2), (2, 3), (2, 4), (4, 5)],
                num_types=1,
            ),
            ResourceConfig((2,)),
        ),
        "p-alpha-1": (
            KDag(
                types=[0, 1, 2, 0, 1, 2, 0],
                work=[1.0, 2.0, 1.0, 2.0, 1.0, 3.0, 2.0],
                edges=[(0, 1), (1, 2), (0, 4), (3, 5), (4, 6)],
                num_types=3,
            ),
            ResourceConfig((1, 1, 1)),
        ),
        "wide-fan-in": (
            KDag(
                types=[i % 2 for i in range(16)] + [0],
                work=[1.0 + (i % 3) for i in range(16)] + [1.0],
                edges=[(i, 16) for i in range(16)],
                num_types=2,
            ),
            ResourceConfig((3, 2)),
        ),
        "non-integer": (
            KDag(
                types=[0, 1, 0, 1, 0, 1],
                work=[0.1, 1.0 / 3.0, 0.7, 2.25, 1e-3, 0.3],
                edges=[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 5)],
                num_types=2,
            ),
            ResourceConfig((2, 1)),
        ),
        "tied-keys": (
            KDag(
                types=[0] * 8 + [1] * 8,
                work=[1.0] * 16,
                edges=[(i, i + 8) for i in range(8)],
                num_types=2,
            ),
            ResourceConfig((3, 3)),
        ),
    }
    for cell, p, seed in (
        ("small-layered-ep", 4, 0),
        ("small-random-ep", 2, 1),
        ("medium-layered-ir", 8, 2),
    ):
        spec = WORKLOAD_CELLS[cell]
        job = sample_job(spec, np.random.default_rng(seed))
        jobs[cell] = (job, ResourceConfig((p,) * spec.num_types))
    return jobs


def _timelines(job: KDag, system: ResourceConfig) -> dict[str, FaultTimeline]:
    """Fault timelines for one instance, derived from its fault-free run."""
    free = simulate(job, system, make_scheduler("kgreedy"), record_trace=True)
    first_end = min(s.end for s in free.trace)
    last_start = max(s.start for s in free.trace)
    out = {
        # Processor 0 of type 0 is down from t=0: nothing runs there
        # until it is repaired.
        "t0": FaultTimeline([Outage(0, 0, 0.0, 1.5)]),
        # Processor 0 of every type fails at the first completion
        # instant (a decision round dispatches there) and again at the
        # last dispatch instant.
        "dispatch-instant": FaultTimeline(
            [Outage(a, 0, first_end, first_end + 1.0) for a in range(system.num_types)]
            + [Outage(a, 0, last_start, last_start + 0.5)
               for a in range(system.num_types)]
        ),
    }
    if job.n_tasks > 20:
        out["renewal"] = ExponentialFaults(
            mtbf=free.makespan / 2.0, mttr=free.makespan / 20.0
        ).sample(system, 3.0 * free.makespan, np.random.default_rng(5))
    return out


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _segments(trace) -> list:
    return [[s.task, s.alpha, s.proc, s.start, s.end, s.killed] for s in trace]


def _events(stream: EventStream) -> list[str]:
    def plain(v):
        return list(v) if isinstance(v, (list, tuple)) else v

    return sorted(
        json.dumps(
            [e.ts, e.kind, {k: plain(v) for k, v in e.data.items()}],
            sort_keys=True,
        )
        for e in stream
    )


def _observed(t: Telemetry | None, stream: EventStream | None) -> dict:
    if t is None:
        return {}
    return {
        "counters": _digest(sorted(t.counters.items())),
        "histograms": _digest(sorted((k, list(v)) for k, v in t.histograms.items())),
        "timers": _digest(sorted((k, v[1]) for k, v in t.timers.items())),
        "events": _digest(_events(stream)) if stream is not None else None,
    }


def _pin(res, t, stream) -> dict:
    out = {"makespan": res.makespan, "decisions": res.decisions}
    if hasattr(res, "kills"):
        out["kills"] = res.kills
        out["wasted_work"] = res.wasted_work
    out["trace"] = (
        None if res.trace is None else _digest(_segments(res.trace))
    )
    out.update(_observed(t, stream))
    return out


def _cases() -> dict[str, callable]:
    """Case id -> zero-argument function returning the case's pin."""
    cases: dict[str, callable] = {}
    jobs = _jobs()

    def degenerate(name, job, system, observe, record):
        def run():
            stream = EventStream() if observe else None
            t = Telemetry(events=stream) if observe else None
            res = simulate_decentralized(
                job, system, make_scheduler(name),
                rng=np.random.default_rng(11), record_trace=record, telemetry=t,
            )
            return _pin(res, t, stream)
        return run

    def faulty(name, job, system, timeline, policy, observe=True):
        def run():
            stream = EventStream() if observe else None
            t = Telemetry(events=stream) if observe else None
            res = simulate_with_faults(
                job, system, make_scheduler(name), timeline=timeline,
                policy=policy, rng=np.random.default_rng(13),
                record_trace=True, telemetry=t,
            )
            return _pin(res, t, stream)
        return run

    for jname, (job, system) in jobs.items():
        for name in ("dkgreedy[global]", "dmqb[global]"):
            cases[f"degenerate/{jname}/{name}/bare"] = degenerate(
                name, job, system, observe=False, record=True
            )
            cases[f"degenerate/{jname}/{name}/obs"] = degenerate(
                name, job, system, observe=True, record=True
            )
            cases[f"degenerate/{jname}/{name}/obs-untraced"] = degenerate(
                name, job, system, observe=True, record=False
            )
        cases[f"faults/{jname}/mqb/none"] = faulty(
            "mqb", job, system, None, "restart"
        )
        for tname, timeline in _timelines(job, system).items():
            for name in ("kgreedy", "mqb", "lspan"):
                for policy in ("restart", "checkpoint"):
                    cases[f"faults/{jname}/{name}/{tname}/{policy}"] = faulty(
                        name, job, system, timeline, policy
                    )
            cases[f"faults/{jname}/kgreedy/{tname}/restart/bare"] = faulty(
                "kgreedy", job, system, timeline, "restart", observe=False
            )

    # Up-windows of 0.5 never fit a task of work 2: a restart run trips
    # the livelock guard, a checkpoint run finishes in four windows.
    job = KDag(types=[0], work=[2.0], num_types=1)
    system = ResourceConfig((1,))
    windows = MaintenanceWindows(period=1.0, duration=0.5, offset=0.5).sample(
        system, 10_000.0, np.random.default_rng(0)
    )

    def livelock():
        stream = EventStream()
        t = Telemetry(events=stream)
        with pytest.raises(SchedulingError) as err:
            simulate_with_faults(
                job, system, make_scheduler("kgreedy"), windows,
                max_kills=25, telemetry=t,
            )
        return {"error": str(err.value), **_observed(t, stream)}

    cases["faults/windows/kgreedy/restart"] = livelock
    cases["faults/windows/kgreedy/checkpoint"] = faulty(
        "kgreedy", job, system, windows, "checkpoint"
    )
    return cases


CASES = _cases()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_case_is_pinned():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_outputs(case):
    assert CASES[case]() == _golden()[case]


def record() -> None:
    """Rewrite the golden file from the current program."""
    pins = {case: CASES[case]() for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {GOLDEN}")


if __name__ == "__main__":
    record()
