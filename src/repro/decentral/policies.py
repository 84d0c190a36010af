"""Steal policies for the decentralized engine.

A :class:`StealPolicy` fixes the three knobs of the work-stealing
protocol (Tchiboukdjian, Gast & Trystram, "Decentralized List
Scheduling"):

* ``victims`` — who an idle processor may steal from.  ``"random"`` is
  the paper's protocol: one uniformly random *other* processor of the
  same functional type per attempt (type compatibility is structural —
  an ``alpha``-processor can only ever run ``alpha``-tasks, so victim
  sets never cross types).  ``"global"`` is the degenerate limit: all
  same-type deques merge into one shared pool, which together with zero
  steal cost is the centralized engine: such runs go through
  :func:`repro.sim.engine.simulate` itself.
* ``amount`` — ``"one"`` takes the oldest queued task from the victim;
  ``"half"`` takes the older half (``ceil(m/2)``, FIFO order
  preserved), the classic steal-half variant.
* ``cost`` — simulated time one steal attempt takes.  ``0`` resolves
  attempts synchronously at the decision instant; ``> 0`` keeps the
  thief busy for ``cost`` time units and resolves against the victim's
  deque *as of the resolution instant* (the steal can miss work that
  was there when it was launched).  ``"global"`` victims require
  ``cost == 0`` — a shared pool with latency is not a defined protocol.

Policies are frozen, hashable, and serialize to both a registry-name
suffix (:meth:`StealPolicy.suffix`) and a fingerprint dict
(:meth:`StealPolicy.fingerprint`) so cache keys cover every knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["StealPolicy", "parse_steal_options", "VICTIM_MODES", "STEAL_AMOUNTS"]

VICTIM_MODES = ("random", "global")
STEAL_AMOUNTS = ("one", "half")


@dataclass(frozen=True)
class StealPolicy:
    """Immutable description of one work-stealing protocol variant."""

    victims: str = "random"
    amount: str = "one"
    cost: float = 0.0

    def __post_init__(self) -> None:
        if self.victims not in VICTIM_MODES:
            raise ConfigurationError(
                f"steal victims must be one of {VICTIM_MODES}, got {self.victims!r}"
            )
        if self.amount not in STEAL_AMOUNTS:
            raise ConfigurationError(
                f"steal amount must be one of {STEAL_AMOUNTS}, got {self.amount!r}"
            )
        cost = float(self.cost)
        if not math.isfinite(cost) or cost < 0.0:
            raise ConfigurationError(
                f"steal cost must be finite and >= 0, got {self.cost!r}"
            )
        object.__setattr__(self, "cost", cost)
        if self.victims == "global" and cost != 0.0:
            raise ConfigurationError(
                "global victim set requires steal cost 0 (a shared pool "
                "with steal latency is not a defined protocol)"
            )

    @property
    def is_degenerate(self) -> bool:
        """True in the centralized limit (global pool, zero cost)."""
        return self.victims == "global"

    def suffix(self) -> str:
        """Registry-name suffix, e.g. ``"[half,cost=0.5]"`` (``""`` if default)."""
        parts: list[str] = []
        if self.victims != "random":
            parts.append(self.victims)
        if self.amount != "one":
            parts.append(self.amount)
        if self.cost != 0.0:
            parts.append(f"cost={self.cost:g}")
        return f"[{','.join(parts)}]" if parts else ""

    def fingerprint(self) -> dict:
        """Canonical dict for result-cache keys."""
        return {"victims": self.victims, "amount": self.amount, "cost": self.cost}


def parse_steal_options(text: str) -> StealPolicy:
    """Parse a bracket-option string (``"half,cost=0.25"``) into a policy."""
    victims = "random"
    amount = "one"
    cost = 0.0
    for raw in text.split(","):
        opt = raw.strip()
        if not opt:
            continue
        if opt in VICTIM_MODES:
            victims = opt
        elif opt in STEAL_AMOUNTS:
            amount = opt
        elif opt.startswith("cost="):
            try:
                cost = float(opt[5:])
            except ValueError:
                raise ConfigurationError(
                    f"bad steal cost {opt[5:]!r} (expected a number)"
                ) from None
        else:
            raise ConfigurationError(
                f"unknown steal option {opt!r}; known: "
                f"{VICTIM_MODES + STEAL_AMOUNTS + ('cost=<float>',)}"
            )
    return StealPolicy(victims=victims, amount=amount, cost=cost)
