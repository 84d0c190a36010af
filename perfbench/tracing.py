"""In-memory spans around calls into the program's public functions.

Used only by the traced run.  Two kinds of record:

* **spans** (name, start, end, time of direct children, parent) around
  whole calls: experiment runners, instance sampling, the engine entry
  points, energy accounting;
* **aggregates** (calls, seconds) for the per-task scheduler interface
  — ``prepare``, ``assign``, ``task_ready``, ``task_finished`` — which
  would otherwise cost a span per task.  Their time still counts as
  child time of the span they ran in, so a span's self time excludes
  scheduler work.

Functions are wrapped by rebinding every ``repro.*`` module attribute
that *is* the original function object, so the wrapper is found however
a module imported it, and everything is restored by :meth:`uninstall`.
Schedulers are wrapped per instance, through ``make_scheduler``, and
only on their public interface: MQB chooses its native kernel by the
identity of ``MQB._pick_best``, so private methods are never touched.
"""

from __future__ import annotations

import sys
from time import perf_counter

#: (module, attribute, span name) of the wrapped public functions.
SPANNED = (
    ("repro.workloads.generator", "sample_instance", "workloads.sample"),
    ("repro.workloads.generator", "sample_job", "workloads.sample"),
    ("repro.sim.engine", "simulate", "sim.simulate"),
    ("repro.sim.preemptive", "simulate_preemptive", "sim.preemptive"),
    ("repro.decentral.engine", "simulate_decentralized", "decentral.simulate"),
    ("repro.faults.engine", "simulate_with_faults", "faults.simulate"),
    ("repro.multijob.engine", "simulate_stream", "multijob.simulate"),
    ("repro.energy.metrics", "energy_breakdown", "energy.breakdown"),
)
CALLBACKS = ("prepare", "assign", "task_ready", "task_finished")


class Tracer:
    """Span and aggregate recorder; install around traced rounds only."""

    def __init__(self) -> None:
        #: [name, start, end, child_seconds, parent_index] per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: aggregate name -> [calls, seconds]
        self.calls: dict[str, list] = {}
        #: per-round sums read from simulate() results
        self.decisions = 0
        self.tasks = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        rec = self.spans[index]
        rec[2] = perf_counter()
        self._stack.pop()
        if rec[4] >= 0:
            self.spans[rec[4]][3] += rec[2] - rec[1]

    def _spanned(self, fn, name: str):
        def wrapper(*args, **kwargs):
            # sample_instance calls sample_job: time the outermost only.
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if name == "sim.simulate":
                self.decisions += int(result.decisions)
                self.tasks += int(result.job.n_tasks)
            return result

        return wrapper

    # -- scheduler interface aggregates ---------------------------------------
    def _aggregated(self, method, key: str):
        cell = self.calls.setdefault(key, [0, 0.0])
        spans, stack = self.spans, self._stack

        def wrapper(*args):
            t0 = perf_counter()
            try:
                return method(*args)
            finally:
                dt = perf_counter() - t0
                cell[0] += 1
                cell[1] += dt
                if stack:
                    spans[stack[-1]][3] += dt

        return wrapper

    def instrument(self, scheduler):
        from repro.schedulers import MQB

        family = "mqb" if isinstance(scheduler, MQB) else "static"
        for name in CALLBACKS:
            key = f"{name}.{family}" if name == "assign" else name
            setattr(scheduler, name, self._aggregated(getattr(scheduler, name), key))
        return scheduler

    # -- installation -------------------------------------------------------
    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        import importlib

        from repro.schedulers import registry

        for mod_name, attr, span in SPANNED:
            original = getattr(importlib.import_module(mod_name), attr)
            self._rebind(original, self._spanned(original, span))
        make = registry.make_scheduler
        self._rebind(make, lambda name: self.instrument(make(name)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reading --------------------------------------------------------------
    def total(self, name: str, self_time: bool = False) -> tuple[int, float]:
        """(count, seconds) over spans called ``name``; optionally self time."""
        count, seconds = 0, 0.0
        for rec in self.spans:
            if rec[0] == name:
                count += 1
                seconds += rec[2] - rec[1] - (rec[3] if self_time else 0.0)
        return count, seconds

    def aggregate(self, key: str) -> tuple[int, float]:
        calls, seconds = self.calls.get(key, (0, 0.0))
        return calls, seconds

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "child_s": c, "parent": p}
                for n, s, e, c, p in self.spans
            ],
            "aggregates": {k: {"calls": v[0], "seconds": v[1]} for k, v in self.calls.items()},
        }
