"""ShiftBT: shifting bottleneck adapted to K-DAG scheduling.

The paper (Section IV-B) extends the classic shifting bottleneck
procedure of Adams, Balas and Zawack (1988) from job-shop scheduling:

* Each task gets a **due date** — the latest start that does not delay
  the job: ``due(v) = T_inf(J) - remaining_span(v)``.
* For each resource type ``alpha``, *assuming all other types have
  infinitely many processors*, solve a one-type subproblem: schedule
  the ``alpha``-tasks on ``P_alpha`` machines to (heuristically, via
  earliest-due-date dispatch) minimize the maximum lateness, where a
  task's lateness is its subproblem completion time minus its due date.
  The infinite-parallelism assumption turns precedence into *release
  times*: ``release(v)`` is the work on the longest predecessor chain.
* The type with the largest maximum lateness is the current bottleneck;
  its subproblem *sequence* is frozen.  The procedure repeats on the
  remaining types until every type has a frozen sequence.

At run time each type's ready queue dispatches in its frozen sequence
order.  Note this differs from plain EDD (= LSpan's ordering): release
times reorder tasks whose due dates alone would disagree with when the
DAG can actually feed them.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro import native
from repro.core.cache import cached_due_dates
from repro.core.kdag import KDag, csr_gather
from repro.schedulers.base import QueueScheduler

__all__ = ["ShiftBT", "edd_max_lateness_schedule", "top_levels"]


def top_levels(job: KDag) -> np.ndarray:
    """Release times under infinite parallelism.

    ``release(v) = max over parents p of (release(p) + work(p))``, zero
    for sources: the earliest moment ``v`` could start if every
    resource type had unbounded processors.  Computed level by level
    (every parent sits on a strictly lower level, see
    :meth:`KDag.levels`), so each level is one gather + segmented max.
    The native kernel, when it loads, returns the same array.
    """
    kernel = native.load_kernel()
    if kernel is not None:
        return kernel.top_levels(job)
    release = np.zeros(job.n_tasks, dtype=np.float64)
    order, level_ptr = job.levels()
    work = job.work
    parent_ptr, parent_idx = job.parent_ptr, job.parent_idx
    for li in range(1, len(level_ptr) - 1):
        nodes = order[level_ptr[li] : level_ptr[li + 1]]
        flat, seg_starts = csr_gather(parent_ptr, parent_idx, nodes)
        release[nodes] = np.maximum.reduceat(release[flat] + work[flat], seg_starts)
    return release


def edd_max_lateness_schedule(
    tasks: np.ndarray,
    release: np.ndarray,
    due: np.ndarray,
    work: np.ndarray,
    n_machines: int,
) -> tuple[list[int], float]:
    """EDD list scheduling of one type's subproblem.

    Schedules ``tasks`` on ``n_machines`` identical machines with
    release times, dispatching the released task with the earliest due
    date whenever a machine frees up.  Returns the dispatch sequence
    and the maximum lateness (completion minus due date, as the paper
    defines it).
    """
    sequence, max_lateness = _edd_sequence(tasks, release, due, work, n_machines)
    if not isinstance(sequence, list):
        sequence = sequence.tolist()
    return sequence, max_lateness


def _edd_sequence(tasks, release, due, work, n_machines):
    """:func:`edd_max_lateness_schedule`, with the sequence as an int64
    array when the native kernel solved it (same admission sort and
    heap orders, one call; NaN keys stay on heapq) and as a list
    otherwise."""
    if n_machines < 1:
        raise ValueError(f"n_machines must be >= 1, got {n_machines}")
    if len(tasks) == 0:
        return [], float("-inf")
    kernel = native.load_kernel()
    if kernel is not None:
        solved = kernel.edd_schedule(tasks, release, due, work, n_machines)
        if solved is not None:
            return solved
    # Admission order by (release, due, task), computed vectorized;
    # the hot dispatch loop below then runs on plain Python floats —
    # extracting numpy scalars element-by-element costs several times
    # the heap operations themselves.
    tasks = np.asarray(tasks)
    order = tasks[np.lexsort((tasks, due[tasks], release[tasks]))]
    rel_l = release[order].tolist()
    due_l = due[order].tolist()
    work_l = work[order].tolist()
    task_l = order.tolist()
    machines = [0.0] * n_machines
    heapq.heapify(machines)
    released: list[tuple[float, float, int, float]] = []  # (due, rel, task, work)
    sequence: list[int] = []
    max_lateness = -float("inf")
    i = 0
    n = len(task_l)
    done = 0
    heappop, heappush = heapq.heappop, heapq.heappush
    while done < n:
        t_free = heappop(machines)
        # Admit everything released by the machine-free instant; if the
        # pool is empty, fast-forward to the next release.
        if not released and i < n and rel_l[i] > t_free:
            t_free = rel_l[i]
        while i < n and rel_l[i] <= t_free:
            heappush(released, (due_l[i], rel_l[i], task_l[i], work_l[i]))
            i += 1
        d, rel, task, w = heappop(released)
        start = t_free if t_free > rel else rel
        completion = start + w
        lateness = completion - d
        if lateness > max_lateness:
            max_lateness = lateness
        sequence.append(task)
        done += 1
        heappush(machines, completion)
    return sequence, float(max_lateness)


class ShiftBT(QueueScheduler):
    """Shifting bottleneck offline heuristic for K-DAGs."""

    name = "shiftbt"

    def __init__(self) -> None:
        super().__init__()
        #: Resource types in the order the procedure froze them
        #: (biggest bottleneck first); for inspection and tests.
        self.bottleneck_order: list[int] = []

    def priorities(self, job: KDag) -> np.ndarray:
        due = cached_due_dates(job)
        release = top_levels(job)
        counts = self.resources.as_array()
        position = np.zeros(job.n_tasks, dtype=np.float64)

        # The subproblem inputs (release, due, work, counts) never
        # change while types are frozen, so every freeze round would
        # re-derive byte-identical sequences and latenesses.  Solve
        # each type once; the freeze order is then just the types
        # sorted by (lateness, -alpha) descending — the same sequence
        # of arg-maxes the round-by-round procedure takes — and the
        # frozen positions are each type's own sequence positions.
        lateness: dict[int, float] = {}
        for alpha in range(job.num_types):
            tasks = job.tasks_of_type(alpha)
            if tasks.size == 0:
                lateness[alpha] = -np.inf
                continue
            seq, ml = _edd_sequence(
                tasks, release, due, job.work, int(counts[alpha])
            )
            lateness[alpha] = ml
            position[seq] = np.arange(len(seq), dtype=np.float64)
        self.bottleneck_order = sorted(
            range(job.num_types), key=lambda a: (lateness[a], -a), reverse=True
        )
        return position
