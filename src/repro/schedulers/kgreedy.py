"""KGreedy: the paper's online baseline (Section III).

KGreedy runs K independent Graham-style greedy list schedulers, one per
resource type: at any decision point, if more than ``P_alpha``
``alpha``-tasks are ready it starts any ``P_alpha`` of them, otherwise
it starts them all.  It consults *no* job information — not even task
work — so it is a legitimate online algorithm under the paper's model,
and it is ``(K+1)``-competitive for completion time (He, Sun, Hsu,
ICPP'07; Theorem 3), essentially matching the online lower bound of
Theorem 2.

"Any ``P_alpha`` of them" is resolved as FIFO arrival order, which is
deterministic and matches the common list-scheduling reading.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.kdag import KDag
from repro.schedulers.base import Scheduler
from repro.system.resources import ResourceConfig

__all__ = ["KGreedy"]


class KGreedy(Scheduler):
    """Per-type FIFO greedy list scheduler (online).

    FIFO order is by *first* ready time and sticky across preemptive
    re-announcements: a running task returned to the pool at a quantum
    boundary keeps its original position, so the preemptive variant
    keeps tasks running rather than degenerating into round-robin
    processor sharing.
    """

    name = "kgreedy"
    requires_offline = False
    lockstep = "static"

    def __init__(self) -> None:
        super().__init__()
        self._heaps: list[list[tuple[int, int]]] = []
        self._seq = 0
        self._first_seq: dict[int, int] = {}

    def prepare(
        self,
        job: KDag,
        resources: ResourceConfig,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().prepare(job, resources, rng)
        # Online restriction: only K is read from the job here.
        self._heaps = [[] for _ in range(job.num_types)]
        self._seq = 0
        self._first_seq = {}

    def task_ready(self, task: int, time: float, work: float) -> None:
        seq = self._first_seq.setdefault(task, self._seq)
        if seq == self._seq:
            self._seq += 1
        heapq.heappush(self._heaps[int(self.job.types[task])], (seq, task))

    def pending(self, alpha: int) -> int:
        return len(self._heaps[alpha])

    def select(self, alpha: int, n_slots: int, time: float) -> list[int]:
        heap = self._heaps[alpha]
        out: list[int] = []
        while heap and len(out) < n_slots:
            out.append(heapq.heappop(heap)[1])
        return out
