"""Name-based scheduler construction.

The experiment harness and CLI refer to algorithms by string name; this
module maps those names to fresh scheduler instances.  Names:

========================  =====================================================
``random``                uniform-choice online control (not in the paper)
``kgreedy``               online per-type greedy (Section III)
``lspan``                 longest remaining span first
``maxdp``                 maximum descendant value first
``dtype``                 different type first
``shiftbt``               shifting bottleneck
``mqb``                   MQB with full precise information (MQB+All+Pre)
``mqb+all+pre``           alias of ``mqb``
``mqb+all+exp``           full lookahead, exponential noise
``mqb+all+noise``         full lookahead, multiplicative+additive noise
``mqb+1step+pre``         one-step lookahead, precise
``mqb+1step+exp``         one-step lookahead, exponential noise
``mqb+1step+noise``       one-step lookahead, mult+add noise
``mqb[min]``/``mqb[sum]`` balance-metric ablations
``mqb[nocarry]``          no intra-round projection ablation
``dkgreedy``              decentralized KGreedy (per-proc deques + stealing)
``dmqb``                  decentralized MQB (local-deque scoring + stealing)
``emqb``                  energy-weighted MQB (idle-power-weighted balancing)
``kgreedy-consolidate``   KGreedy capped at ``ceil(r * P_alpha)`` per type
========================  =====================================================

The decentralized names accept a bracket-option suffix selecting the
steal policy — ``dkgreedy[half]``, ``dmqb[global]``,
``dkgreedy[half,cost=0.25]`` — parsed by
:func:`repro.decentral.policies.parse_steal_options`.  They run under
:func:`repro.decentral.engine.simulate_decentralized`, which
:func:`repro.capabilities.plan_run` picks from their ``decentral``
declaration.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.schedulers.base import Scheduler
from repro.schedulers.dtype import DType
from repro.schedulers.info import (
    ExactInformation,
    ExponentialInformation,
    NoisyInformation,
)
from repro.schedulers.kgreedy import KGreedy
from repro.schedulers.lspan import LSpan
from repro.schedulers.maxdp import MaxDP
from repro.schedulers.mqb import MQB
from repro.schedulers.randomsched import RandomChoice
from repro.schedulers.shiftbt import ShiftBT

__all__ = ["make_scheduler", "available_schedulers", "PAPER_ALGORITHMS"]

#: The six algorithms of the paper's main comparison (Figures 4-7),
#: in the paper's plotting order.
PAPER_ALGORITHMS: tuple[str, ...] = (
    "kgreedy",
    "lspan",
    "dtype",
    "maxdp",
    "shiftbt",
    "mqb",
)

#: The seven bars of the approximated-information experiment (Figure 8).
APPROX_INFO_ALGORITHMS: tuple[str, ...] = (
    "kgreedy",
    "mqb+all+pre",
    "mqb+all+exp",
    "mqb+all+noise",
    "mqb+1step+pre",
    "mqb+1step+exp",
    "mqb+1step+noise",
)

_INFO_FACTORIES: dict[str, Callable[[bool], object]] = {
    "pre": lambda one_step: ExactInformation(one_step=one_step),
    "exp": lambda one_step: ExponentialInformation(one_step=one_step),
    "noise": lambda one_step: NoisyInformation(one_step=one_step),
}

_FACTORIES: dict[str, Callable[[], Scheduler]] = {
    "random": RandomChoice,
    "kgreedy": KGreedy,
    "lspan": LSpan,
    "maxdp": MaxDP,
    "dtype": DType,
    "shiftbt": ShiftBT,
    "mqb": MQB,
    "mqb[min]": lambda: MQB(balance_mode="min"),
    "mqb[sum]": lambda: MQB(balance_mode="sum"),
    "mqb[nocarry]": lambda: MQB(carry_projection=False),
}


def make_scheduler(name: str) -> Scheduler:
    """Construct a fresh scheduler instance from its registry name."""
    key = name.strip().lower()
    if key in _FACTORIES:
        return _FACTORIES[key]()
    if key.startswith(("dkgreedy", "dmqb")):
        # Imported lazily: repro.decentral pulls in its own engine and
        # the sim package, which centralized names never need.
        from repro.decentral.schedulers import make_decentral_scheduler

        return make_decentral_scheduler(key)
    if key.startswith(("emqb", "kgreedy-consolidate")):
        # Lazy for the same reason: the energy schedulers subclass MQB
        # and KGreedy from this package.
        from repro.energy.schedulers import make_energy_scheduler

        return make_energy_scheduler(key)
    if key.startswith("mqb+"):
        parts = key.split("+")
        if len(parts) == 3 and parts[1] in ("all", "1step") and parts[2] in _INFO_FACTORIES:
            one_step = parts[1] == "1step"
            info = _INFO_FACTORIES[parts[2]](one_step)
            return MQB(info=info)  # type: ignore[arg-type]
    raise ConfigurationError(
        f"unknown scheduler {name!r}; known: {sorted(available_schedulers())}"
    )


def available_schedulers() -> list[str]:
    """All registry names accepted by :func:`make_scheduler`."""
    names = set(_FACTORIES)
    for scope in ("all", "1step"):
        for info in _INFO_FACTORIES:
            names.add(f"mqb+{scope}+{info}")
    for base in ("dkgreedy", "dmqb"):
        names.add(base)
        names.add(f"{base}[half]")
        names.add(f"{base}[global]")
    names.add("emqb")
    names.add("emqb[w=0.5]")
    names.add("kgreedy-consolidate")
    names.add("kgreedy-consolidate[r=0.5]")
    return sorted(names)
