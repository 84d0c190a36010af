"""Discrete-time simulation of K-DAG execution on an FHS.

The paper evaluates its algorithms with a discrete-time simulator (the
authors' was written in C#); this package is the Python equivalent:

* :func:`~repro.sim.engine.simulate` — non-preemptive, event-driven:
  scheduling decisions happen when processors go idle, and a started
  task runs to completion on its processor.
* :func:`~repro.sim.preemptive.simulate_preemptive` — quantum-stepped:
  at every quantum boundary all running tasks rejoin the candidate pool
  and the scheduler reassigns every processor; reallocation is free,
  matching the paper's assumption.
* :func:`~repro.sim.validate.validate_schedule` — legality checker used
  by the test suite: type matching, processor exclusivity, precedence,
  and work conservation.
"""

from repro.sim.engine import simulate
from repro.sim.gantt import render_gantt
from repro.sim.io import load_run, save_run
from repro.sim.metrics import (
    average_utilization,
    type_busy_time,
    utilization_profile,
)
from repro.sim.preemptive import simulate_preemptive
from repro.sim.result import ScheduleResult
from repro.sim.trace import ScheduleTrace, Segment
from repro.sim.validate import validate_schedule

__all__ = [
    "simulate",
    "simulate_preemptive",
    "ScheduleResult",
    "ScheduleTrace",
    "Segment",
    "validate_schedule",
    "type_busy_time",
    "average_utilization",
    "utilization_profile",
    "render_gantt",
    "save_run",
    "load_run",
]
