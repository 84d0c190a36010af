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
deterministic and matches the common list-scheduling reading.  KGreedy
is therefore the static-priority scheduler whose keys are all equal:
its heaps order by the first-ready sequence alone.
"""

from __future__ import annotations

import numpy as np

from repro.core.kdag import KDag
from repro.schedulers.base import QueueScheduler

__all__ = ["KGreedy"]


class KGreedy(QueueScheduler):
    """Per-type FIFO greedy list scheduler (online).

    FIFO order is by *first* ready time and sticky across preemptive
    re-announcements: a running task returned to the pool at a quantum
    boundary keeps its original position, so the preemptive variant
    keeps tasks running rather than degenerating into round-robin
    processor sharing.
    """

    name = "kgreedy"
    requires_offline = False

    def priorities(self, job: KDag) -> np.ndarray:
        # Online restriction: no job information beyond its size.
        return np.zeros(job.n_tasks, dtype=np.float64)
