"""Which engine runs a scheduler, or why it cannot run.

Scheduler families declare their capabilities once, as class attributes
beside ``requires_offline``: ``decentral`` (the run needs per-processor
deques) and ``lockstep`` (the batch engine's row kind, read by
:mod:`repro.sim.batch`).  :func:`plan_run` is the one place the CLI,
the sweeps, the batch engine's fallback and the service turn them into
an engine; the service answers its refusal with ``bad_request``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.schedulers.base import Scheduler

__all__ = ["DECENTRAL_REFUSALS", "plan_run"]

#: What a decentralized scheduler is refused, by run kind: the
#: preemptive and fault engines have no per-processor deques, and steal
#: costs fall outside the trace that energy accounting integrates.
DECENTRAL_REFUSALS = {
    "preemptive": "the preemptive engine",
    "faults": "fault injection",
    "energy": "energy accounting",
}


def plan_run(
    scheduler: "Scheduler", *, preemptive: bool = False, faults: bool = False,
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
