"""Per-task lookahead quantities used by the offline heuristics.

These are the four pieces of "offline information" the paper's
schedulers consume (Section IV):

* **Typed descendant values** ``d_alpha(v)`` — MQB's estimate of how
  much type-``alpha`` work executing ``v`` unlocks downstream.  A task
  ``u`` with ``pr(u)`` parents contributes ``1/pr(u)`` of its own
  descendant value *plus* ``1/pr(u)`` of its own work to each parent::

      d_alpha(v) = sum_{u in children(v)} (d_alpha(u) + w_alpha(u)) / pr(u)

  where ``w_alpha(u)`` is ``work(u)`` if ``u`` is an ``alpha``-task and 0
  otherwise.  Sinks have ``d_alpha = 0``.

* **Untyped descendant values** (MaxDP) — the same recursion without the
  type split; equal to ``sum_alpha d_alpha(v)``.

* **Remaining span** (LSpan) — work-weighted longest path from ``v``
  to a sink, inclusive of ``v``'s own work.

* **Different-child distance** (DType) — edge-count distance from ``v``
  to the nearest descendant of a *different* type (``inf`` when none
  exists).

* **Due dates** (ShiftBT) — ``T_inf(J) - remaining_span(v)``, the latest
  start time that does not stretch the critical path.

All recursions run as *level-batched* sweeps: nodes are grouped by
:attr:`~repro.core.kdag.KDag.depth` (every edge crosses levels, so one
level has no internal dependencies), each level's child values are
gathered through the CSR arrays in one shot, and the per-node
reductions collapse into ``np.add.reduceat`` / ``np.minimum.reduceat``
segment reductions.  This replaces the per-node Python loops over
``topological_order`` that previously dominated scheduler ``prepare``
time on paper-scale jobs.

The functions here are pure and uncached; :mod:`repro.core.cache`
provides the memoized variants the schedulers use.
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.core.kdag import KDag, csr_gather
from repro.core.properties import _bottom_levels, span

__all__ = [
    "descendant_values",
    "one_step_descendant_values",
    "untyped_descendant_values",
    "remaining_span",
    "different_child_distance",
    "due_dates",
]


def _level_sweep(job: KDag):
    """Yield per-level ``(level, parents, kids, seg_starts)`` deepest first.

    ``level`` is every node of the depth level; ``parents`` is its
    subset with at least one child, whose concatenated children are
    ``kids`` with ``reduceat`` segment starts ``seg_starts`` (empty
    arrays when the level holds only sinks).
    """
    cptr, cidx = job.child_ptr, job.child_idx
    out_deg = np.diff(cptr)
    order, level_ptr = job.levels()
    empty = np.empty(0, dtype=np.int64)
    for li in range(len(level_ptr) - 2, -1, -1):
        level = order[level_ptr[li] : level_ptr[li + 1]]
        parents = level[out_deg[level] > 0]
        if parents.size:
            kids, seg = csr_gather(cptr, cidx, parents)
        else:
            kids, seg = empty, empty
        yield level, parents, kids, seg


def descendant_values(job: KDag) -> np.ndarray:
    """Typed descendant values ``d_alpha(v)``, shape ``(n_tasks, K)``.

    One level-batched reverse sweep, vectorized over both the nodes of
    a level and the K type columns.
    """
    n, k = job.n_tasks, job.num_types
    d = np.zeros((n, k), dtype=np.float64)
    # contrib[u, :] = (d[u, :] + w_alpha-one-hot(u)) / pr(u), filled as
    # soon as d[u] is final (deeper levels are finalized first).
    in_deg = job.in_degrees().astype(np.float64)
    work_onehot = np.zeros((n, k), dtype=np.float64)
    work_onehot[np.arange(n), job.types] = job.work
    contrib = np.zeros((n, k), dtype=np.float64)
    shared = in_deg > 0  # sources (pr == 0) never contribute upward
    for level, parents, kids, seg in _level_sweep(job):
        if parents.size:
            d[parents] = np.add.reduceat(contrib[kids], seg, axis=0)
        up = level[shared[level]]
        contrib[up] = (d[up] + work_onehot[up]) / in_deg[up, None]
    return d


def one_step_descendant_values(job: KDag) -> np.ndarray:
    """One-step-lookahead typed descendant values (MQB+1Step).

    Only immediate children are counted::

        d_alpha(v) = sum_{u in children(v)} w_alpha(u) / pr(u)

    No recursion, so a single global segment sum over all nodes with
    children suffices (no level grouping needed).
    """
    n, k = job.n_tasks, job.num_types
    in_deg = job.in_degrees().astype(np.float64)
    work_onehot = np.zeros((n, k), dtype=np.float64)
    work_onehot[np.arange(n), job.types] = job.work
    with np.errstate(divide="ignore", invalid="ignore"):
        shared = np.where(in_deg[:, None] > 0, work_onehot / in_deg[:, None], 0.0)
    d = np.zeros((n, k), dtype=np.float64)
    cptr, cidx = job.child_ptr, job.child_idx
    parents = np.flatnonzero(np.diff(cptr) > 0)
    if parents.size:
        kids, seg = csr_gather(cptr, cidx, parents)
        d[parents] = np.add.reduceat(shared[kids], seg, axis=0)
    return d


def untyped_descendant_values(job: KDag) -> np.ndarray:
    """MaxDP's scalar descendant value per task, shape ``(n_tasks,)``.

    Identical recursion to :func:`descendant_values` with the type
    dimension collapsed; kept as a separate O(V+E) pass because MaxDP
    never needs the per-type split.
    """
    n = job.n_tasks
    d = np.zeros(n, dtype=np.float64)
    contrib = np.zeros(n, dtype=np.float64)
    in_deg = job.in_degrees().astype(np.float64)
    shared = in_deg > 0
    for level, parents, kids, seg in _level_sweep(job):
        if parents.size:
            d[parents] = np.add.reduceat(contrib[kids], seg)
        up = level[shared[level]]
        contrib[up] = (d[up] + job.work[up]) / in_deg[up]
    return d


def remaining_span(job: KDag) -> np.ndarray:
    """Remaining span of each task (LSpan's priority), shape ``(n_tasks,)``.

    ``remaining_span(v) = work(v) + max(remaining_span(c) for children c)``;
    a childless task's remaining span is its own work.
    """
    return _bottom_levels(job)


def different_child_distance(job: KDag) -> np.ndarray:
    """DType's priority: hop distance to the nearest different-type descendant.

    ``dist(v) = min over children c of (1 if type(c) != type(v) else
    1 + dist(c))``; ``inf`` when no different-type descendant exists.
    The recursion is well-founded because in the ``else`` branch ``c``
    shares ``v``'s type, so ``dist(c)`` measures distance to the same
    "other type" set.  The native kernel, when it loads, returns the
    same array.
    """
    kernel = native.load_kernel()
    if kernel is not None:
        return kernel.different_child_distance(job)
    n = job.n_tasks
    dist = np.full(n, np.inf, dtype=np.float64)
    types = job.types
    for _, parents, kids, seg in _level_sweep(job):
        if parents.size == 0:
            continue
        counts = np.diff(np.append(seg, len(kids)))
        own = np.repeat(types[parents], counts)
        cand = np.where(types[kids] != own, 1.0, 1.0 + dist[kids])
        dist[parents] = np.minimum.reduceat(cand, seg)
    return dist


def due_dates(job: KDag) -> np.ndarray:
    """ShiftBT's due dates: ``T_inf(J) - remaining_span(v)`` per task.

    A task on the critical path has due date 0; the larger the slack,
    the later the task may start without delaying the job.
    """
    return span(job) - remaining_span(job)
