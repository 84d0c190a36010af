"""Which engine runs a scheduler, or why it cannot run.

Scheduler families declare their capabilities once, as class attributes
beside ``requires_offline``: ``decentral`` (the run needs per-processor
deques) and ``lockstep`` (the row kind the native whole-run loop,
which reads prepared state instead of calling the protocol, may run
it as).  :func:`plan_run` is the one place the CLI, the sweeps and the
service turn them into an engine; the service answers its refusal
with ``bad_request``.  :func:`row_kind` is the one place the native
whole-run loops (plain, fault-injected and preemptive runs) decide
whether a declaration holds for a given scheduler object.  The row
kinds are ``"static"`` (every ``QueueScheduler``), ``"mqb"``, and
the energy variants' own ``"emqb"`` and ``"consolidate"``; the
decentralized schedulers keep their bases' kinds, which only the
degenerate steal's :func:`~repro.sim.engine.simulate` runs read.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable

from repro.errors import ConfigurationError
from repro.schedulers.base import QueueScheduler, Scheduler
from repro.schedulers.mqb import MQB

__all__ = ["DECENTRAL_REFUSALS", "plan_run", "row_kind"]

#: What a decentralized scheduler is refused, by run kind: the
#: preemptive and fault engines have no per-processor deques, and steal
#: costs fall outside the trace that energy accounting integrates.
DECENTRAL_REFUSALS = {
    "preemptive": "the preemptive engine",
    "faults": "fault injection",
    "energy": "energy accounting",
}

_STATIC_PROTOCOL = (
    "task_ready", "pending", "select", "assign", "task_finished",
    "capacity_changed",
)
_MQB_PROTOCOL = _STATIC_PROTOCOL + ("_pick_best", "_commit_pick", "_pop")

#: The protocol methods each row kind replaces with its own loop (the
#: fault seam calls ``capacity_changed``).  A scheduler keeps its row
#: kind only while every one of them is the family's own, on its class
#: and not set on the instance.
ROW_PROTOCOLS = {
    "static": _STATIC_PROTOCOL,
    "consolidate": _STATIC_PROTOCOL,
    "mqb": _MQB_PROTOCOL,
    "emqb": _MQB_PROTOCOL,
}
#: The family each row kind's protocol must come from.  The energy
#: families are looked up only for a scheduler that declares their
#: kind, so this module imports nothing for them.
_ROW_BASES = {
    "static": QueueScheduler,
    "mqb": MQB,
    "emqb": ("repro.energy.schedulers", "EMQB"),
    "consolidate": ("repro.energy.schedulers", "KGreedyConsolidate"),
}


def plan_run(
    scheduler: Scheduler, *, preemptive: bool = False, faults: bool = False,
    energy: bool = False,
) -> Callable:
    """The engine function that runs ``scheduler`` for this run kind.

    ``simulate_decentralized`` for a decentralized scheduler, else
    ``simulate_preemptive`` or ``simulate``; ``faults`` and ``energy``
    pick no engine (the fault engine wraps the non-preemptive loop,
    energy accounting reads the trace).  Engines are looked up on their
    modules at call time, so a rebound (traced) engine is used.  Raises
    :class:`ConfigurationError` for a refused combination.
    """
    if scheduler.decentral:
        asked = {"preemptive": preemptive, "faults": faults, "energy": energy}
        for kind, what in DECENTRAL_REFUSALS.items():
            if asked[kind]:
                raise ConfigurationError(
                    f"{scheduler.name}: decentralized schedulers do not "
                    f"support {what}"
                )
        from repro.decentral import engine

        return engine.simulate_decentralized
    if preemptive:
        from repro.sim import preemptive as engine

        return engine.simulate_preemptive
    from repro.sim import engine

    return engine.simulate


def row_kind(scheduler: Scheduler) -> str | None:
    """``"static"``, ``"consolidate"``, ``"mqb"``, ``"emqb"`` or ``None``:
    how the C loop may run it.

    The scheduler's ``lockstep`` declaration, provided the methods of
    :data:`ROW_PROTOCOLS` are those of its family — :class:`QueueScheduler`
    (static), :class:`MQB`, or the energy variants ``EMQB`` and
    ``KGreedyConsolidate`` — neither overridden by a subclass that
    inherits the declaration nor wrapped on the instance (as a tracer
    does).  Anything else runs the Python loop, which calls the
    protocol.
    """
    kind = scheduler.lockstep
    base = _ROW_BASES.get(kind)
    if base is None:
        return None
    if isinstance(base, tuple):
        module, name = base
        base = getattr(import_module(module), name)
    cls = type(scheduler)
    own = scheduler.__dict__
    for name in ROW_PROTOCOLS[kind]:
        if name in own or getattr(cls, name, None) is not getattr(base, name):
            return None
    return kind
