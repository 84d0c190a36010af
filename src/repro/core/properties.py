"""Aggregate properties of a K-DAG: work, span, and the makespan lower bound.

These implement the quantities from paper Section II and the lower bound
``L(J)`` from Section V-A::

    T1(J, alpha) = sum of work of the alpha-tasks
    T_inf(J)     = critical path length (work-weighted longest path)
    L(J)         = max( T_inf(J), max_alpha T1(J, alpha) / P_alpha )

All functions take the job as the first argument and are pure.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import native
from repro.core.kdag import KDag, csr_gather
from repro.errors import ResourceError

__all__ = [
    "type_work",
    "total_work",
    "span",
    "critical_path",
    "work_per_processor",
    "lower_bound",
]


def type_work(job: KDag) -> np.ndarray:
    """Per-type total work ``T1(J, alpha)`` for every type, shape ``(K,)``."""
    return np.bincount(job.types, weights=job.work, minlength=job.num_types)


def total_work(job: KDag) -> float:
    """Total work of the job across all types, ``sum_alpha T1(J, alpha)``."""
    return float(job.work.sum())


def _bottom_levels(job: KDag) -> np.ndarray:
    """Work-weighted longest path from each node to any sink, inclusive.

    ``bottom[v] = work[v] + max(bottom[c] for c in children(v))`` (0 max
    for sinks).  Computed as a level-batched reverse sweep: within one
    depth level no edges exist, so a whole level's maxima reduce in one
    ``np.maximum.reduceat`` over the gathered child values.  The native
    kernel, when it loads, returns the same array.
    """
    kernel = native.load_kernel()
    if kernel is not None:
        return kernel.bottom_levels(job)
    bottom = job.work.copy()
    cptr, cidx = job.child_ptr, job.child_idx
    out_deg = np.diff(cptr)
    order, level_ptr = job.levels()
    for li in range(len(level_ptr) - 2, -1, -1):
        vs = order[level_ptr[li] : level_ptr[li + 1]]
        vs = vs[out_deg[vs] > 0]
        if vs.size == 0:
            continue
        kids, seg = csr_gather(cptr, cidx, vs)
        bottom[vs] += np.maximum.reduceat(bottom[kids], seg)
    return bottom


def span(job: KDag) -> float:
    """Critical path length ``T_inf(J)``: the work on the longest chain."""
    return float(_bottom_levels(job).max())


def critical_path(job: KDag) -> list[int]:
    """One critical path as a list of task ids (source to sink).

    When several chains tie, the lowest-id child is followed, making the
    result deterministic.
    """
    bottom = _bottom_levels(job)
    sources = job.sources()
    v = int(sources[np.argmax(bottom[sources])])
    path = [v]
    while job.n_children(v):
        children = job.children(v)
        v = int(children[np.argmax(bottom[children])])
        path.append(v)
    return path


def _check_processors(job: KDag, processors: Sequence[int] | np.ndarray) -> np.ndarray:
    procs = np.asarray(processors, dtype=np.int64)
    if procs.shape != (job.num_types,):
        raise ResourceError(
            f"expected {job.num_types} processor counts, got shape {procs.shape}"
        )
    if np.any(procs < 1):
        raise ResourceError("every resource type needs at least one processor")
    return procs


def work_per_processor(job: KDag, processors: Sequence[int] | np.ndarray) -> np.ndarray:
    """Per-type work-per-processor ratios ``T1(J, alpha) / P_alpha``.

    The paper's skew measure (Section V-E): a job whose ratios are close
    is *well balanced*; large variance means a skewed load.
    """
    procs = _check_processors(job, processors)
    return type_work(job) / procs


def lower_bound(job: KDag, processors: Sequence[int] | np.ndarray) -> float:
    """The paper's makespan lower bound ``L(J)`` (Section V-A).

    ``L(J) = max( T_inf(J), max_alpha T1(J, alpha) / P_alpha )``.
    Every legal schedule of ``job`` on the given processor counts takes
    at least this long; the *completion time ratio* reported throughout
    the evaluation is ``T(J) / L(J)``.
    """
    return float(max(span(job), work_per_processor(job, processors).max()))
