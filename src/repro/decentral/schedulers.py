"""Decentralized scheduler variants: DKGreedy and DMQB.

These run under :func:`repro.decentral.engine.simulate_decentralized`.
The engine owns the per-processor deques; the scheduler contributes two
things on top of the standard event protocol:

* :meth:`DecentralScheduler.pick_local` — given one processor's deque
  (a list of ``(ready_seq, task)`` entries), return the index of the
  entry that processor should start.  This is the *local* policy: it
  sees only the candidates physically present in that deque, which is
  the whole point of decentralization.
* :meth:`DecentralScheduler.task_started` — notification that the
  engine started a task it popped from a deque (the centralized
  ``select``/``assign`` path pops from the scheduler's own pools, so
  this hook exists only for the decentralized loop to keep aggregate
  state consistent).

In the degenerate limit (``StealPolicy(victims="global", cost=0)``) the
run is :func:`repro.sim.engine.simulate`, which drives the standard
``assign`` protocol — for DKGreedy that *is* KGreedy and for DMQB it
*is* MQB, so the centralized limit is the centralized engine, not an
approximate re-derivation.  Neither class overrides that protocol, so
they keep their bases' row kinds (``"static"``, ``"mqb"``) and the
degenerate runs go whole to the native loop like their bases'.

Global knowledge boundary: DKGreedy stays fully local (FIFO by ready
sequence).  DMQB keeps the O(K) aggregate queue-work vector ``l`` and
the per-task descendant values — the paper's utilization-balancing
signal — but scores only its local candidates with them.  ``l`` is the
kind of small shared counter a real runtime can maintain with atomics;
the ready *sets* are what stay distributed.
"""

from __future__ import annotations

import numpy as np

from repro.decentral.policies import StealPolicy, parse_steal_options
from repro.errors import ConfigurationError
from repro.schedulers.base import Scheduler
from repro.schedulers.kgreedy import KGreedy
from repro.schedulers.mqb import MQB

__all__ = ["DecentralScheduler", "DKGreedy", "DMQB", "make_decentral_scheduler"]


class DecentralScheduler:
    """Mixin marking a scheduler as decentralized-engine capable.

    It declares ``decentral = True``, which
    :func:`repro.capabilities.plan_run` routes to the work-stealing
    engine; it must come first in a subclass's bases so the value wins
    over the centralized class's.  The row kind stays the centralized
    family's: only the degenerate policy reaches
    :func:`repro.sim.engine.simulate`, whose native loop then runs it as
    KGreedy or MQB.  It also carries the steal policy and the two extra
    protocol hooks.
    """

    decentral = True
    steal_policy: StealPolicy

    def pick_local(
        self, alpha: int, entries: list[tuple[int, int]], time: float
    ) -> int:
        """Index into ``entries`` (``(ready_seq, task)``) to start next."""
        raise NotImplementedError

    def task_started(self, task: int, time: float) -> None:
        """The decentralized engine started ``task`` from a deque."""
        raise NotImplementedError


class DKGreedy(DecentralScheduler, KGreedy):
    """KGreedy with per-processor deques: local FIFO plus stealing.

    Locally each processor starts its oldest queued task (by global
    ready sequence, matching KGreedy's FIFO reading); balance across
    processors comes only from the steal protocol.  Fully online: no
    job information beyond K is consulted.
    """

    name = "dkgreedy"

    def __init__(self, policy: StealPolicy | None = None) -> None:
        super().__init__()
        self.steal_policy = policy if policy is not None else StealPolicy()
        self.name = "dkgreedy" + self.steal_policy.suffix()

    def pick_local(
        self, alpha: int, entries: list[tuple[int, int]], time: float
    ) -> int:
        best = 0
        best_seq = entries[0][0]
        for i in range(1, len(entries)):
            s = entries[i][0]
            if s < best_seq:
                best = i
                best_seq = s
        return best

    def task_started(self, task: int, time: float) -> None:
        # The KGreedy heaps are only consumed by the centralized
        # (degenerate-limit) runs; the decentralized loop tracks
        # membership in its own deques, so stale heap entries are never
        # observed and nothing needs removing here.
        pass


class DMQB(DecentralScheduler, MQB):
    """MQB scoring restricted to the local deque, plus stealing.

    Each pick evaluates MQB's x-utilization balance vector
    ``r = (d[v] + l) / P`` (own queued work removed from the task's own
    type) over the candidates in *one* processor's deque, ascending
    lexicographic comparison, FIFO ready-sequence tie-break — exactly
    the centralized formula on a restricted candidate set.  There is no
    intra-round carry projection: rounds are an artifact of the global
    view, and decentralized picks commit independently.
    """

    def __init__(self, policy: StealPolicy | None = None) -> None:
        super().__init__()
        self.steal_policy = policy if policy is not None else StealPolicy()
        self.name = "dmqb" + self.steal_policy.suffix()

    def pick_local(
        self, alpha: int, entries: list[tuple[int, int]], time: float
    ) -> int:
        assert self._d is not None and self._l is not None
        assert self._wcur is not None and self._parr is not None
        tasks = [t for _, t in entries]
        r = self._d[tasks] + self._l
        r[:, alpha] -= self._wcur[tasks]
        r /= self._parr
        neg_seq = np.array([-s for s, _ in entries], dtype=np.int64)
        if self._balance_mode == "lex":
            r.sort(axis=1)
            keys = (neg_seq, *(r[:, j] for j in range(r.shape[1] - 1, 0, -1)), r[:, 0])
        elif self._balance_mode == "min":
            keys = (neg_seq, r.min(axis=1))
        else:  # sum
            keys = (neg_seq, r.sum(axis=1))
        return int(np.lexsort(keys)[-1])

    def task_started(self, task: int, time: float) -> None:
        # Keep the aggregate queue-work vector (and the pool buffers the
        # centralized assign protocol scores from) consistent with the
        # deques.
        self._pop(int(self.job.types[task]), task)


_DECENTRAL_CLASSES: tuple[tuple[str, type], ...] = (
    ("dkgreedy", DKGreedy),
    ("dmqb", DMQB),
)


def make_decentral_scheduler(name: str) -> Scheduler:
    """Build a decentralized scheduler from a registry name.

    Accepts ``dkgreedy`` / ``dmqb`` with an optional bracket-option
    suffix parsed by :func:`parse_steal_options`, e.g.
    ``dkgreedy[half]``, ``dmqb[global]``, ``dkgreedy[half,cost=0.25]``.
    """
    key = name.strip().lower()
    for base, cls in _DECENTRAL_CLASSES:
        if key == base:
            return cls()
        if key.startswith(base + "[") and key.endswith("]"):
            return cls(parse_steal_options(key[len(base) + 1 : -1]))
    raise ConfigurationError(
        f"unknown decentralized scheduler {name!r}; expected dkgreedy/dmqb "
        f"with optional [victims,amount,cost=...] options"
    )
