"""Which engine runs a scheduler, or why it cannot run.

Scheduler families declare their capabilities once, as class attributes
beside ``requires_offline``: ``decentral`` (the run needs per-processor
deques) and ``lockstep`` (the row kind the native whole-run loop,
which reads prepared state instead of calling the protocol, may run
it as).  :func:`plan_run` is the one place the CLI, the sweeps and the
service turn them into an engine; the service answers its refusal
with ``bad_request``.  :func:`row_kind` is the one place the native
whole-run loop decides whether a declaration holds for a given
scheduler object.
"""

from __future__ import annotations

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

#: The protocol methods each row kind replaces with its own loop.  A
#: scheduler keeps its row kind only while every one of them is the
#: family's own, on its class and not set on the instance.
ROW_PROTOCOLS = {
    "static": ("task_ready", "pending", "select", "assign", "task_finished"),
    "mqb": (
        "_pick_best", "_commit_pick", "_pop", "select", "assign",
        "task_ready", "pending", "task_finished",
    ),
}
_ROW_BASES = {"static": QueueScheduler, "mqb": MQB}


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
    """``"static"``, ``"mqb"`` or ``None``: how the C loop may run it.

    The scheduler's ``lockstep`` declaration, provided the methods of
    :data:`ROW_PROTOCOLS` are those of :class:`QueueScheduler` (static)
    or :class:`MQB` — neither overridden by a subclass that inherits
    the declaration nor wrapped on the instance (as a tracer does).
    Anything else runs the Python loop, which calls the protocol.
    """
    kind = scheduler.lockstep
    base = _ROW_BASES.get(kind)
    if base is None:
        return None
    cls = type(scheduler)
    own = scheduler.__dict__
    for name in ROW_PROTOCOLS[kind]:
        if name in own or getattr(cls, name, None) is not getattr(base, name):
            return None
    return kind
