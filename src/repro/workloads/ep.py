"""Embarrassingly parallel (EP) workloads — paper Section V-B, Fig. 3(a).

An EP job is a set of independent branches, each a serial chain of
tasks; different phases of a branch need different resource types
(e.g. a Monte Carlo pipeline: CPU preprocessing, accelerator kernels,
CPU reduction).

* **layered** — each branch is "a fixed sequence of tasks with type
  from 1 to K": a block of type-0 tasks, then a block of type-1 tasks,
  ..., then type K-1.  Every branch therefore starts on type 0 and the
  later types' work only unlocks as branches progress — the structured
  case where scheduling order decides whether the types pipeline
  (offline) or serialize phase by phase (online KGreedy's failure
  mode, Fig. 4(d)).
* **random** — identical chain shapes, but every task's type is
  uniform over the K types.

Block lengths are sampled per (branch, type) from
``block_length_range = chain_length_range scaled by 1/K``; see
:class:`~repro.workloads.params.EPParams`.
"""

from __future__ import annotations

import numpy as np

from repro.core.kdag import KDag
from repro.workloads.params import EPParams

__all__ = ["generate_ep"]


def generate_ep(
    params: EPParams,
    num_types: int,
    structure: str,
    rng: np.random.Generator,
) -> KDag:
    """Sample one EP job (see module docstring)."""
    n_branches = int(
        rng.integers(params.branches_range[0], params.branches_range[1] + 1)
    )
    # Per-branch, per-type block lengths; a branch's chain length is the
    # sum of its K blocks, so chains land in chain_length_range on
    # average when block lengths average chain/K.
    lo = max(1, params.chain_length_range[0] // num_types)
    hi = max(lo, -(-params.chain_length_range[1] // num_types))
    blocks = rng.integers(lo, hi + 1, size=(n_branches, num_types))
    lengths = blocks.sum(axis=1)
    n = int(lengths.sum())

    types = np.empty(n, dtype=np.int64)
    work = rng.integers(
        params.work_range[0], params.work_range[1] + 1, size=n
    ).astype(np.float64)

    pos = 0
    for b in range(n_branches):
        length = int(lengths[b])
        if structure == "layered":
            types[pos : pos + length] = np.repeat(
                np.arange(num_types), blocks[b]
            )
        else:
            types[pos : pos + length] = rng.integers(0, num_types, size=length)
        pos += length

    # Each branch is a chain: every i -> i + 1 except at branch ends.
    links = np.ones(max(n - 1, 0), dtype=bool)
    links[np.cumsum(lengths)[:-1] - 1] = False
    src = np.flatnonzero(links)
    edges = np.stack([src, src + 1], axis=1)

    return KDag(types=types, work=work, edges=edges, num_types=num_types)
