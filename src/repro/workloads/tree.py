"""Tree workloads — paper Section V-B, Fig. 3(b).

A tree job starts from a root task and explores parallelism by
expanding nodes into subtasks (divide and conquer with a trivial
conquer phase; search, graph traversal, speculative parallelism).
Expansion is probabilistic: a node has probability ``p`` of having
``m`` direct children and ``1 - p`` of being a leaf — so most nodes
are leaves and a minority of "expander" nodes carry the whole subtree
below them.  That minority is exactly what an online scheduler cannot
see (the Theorem-2 "active task" mechanism): every offline heuristic
knows which ready nodes root deep subtrees, KGreedy does not.

* **layered** — all nodes at tree level ``d`` share one type, drawn
  uniformly at random per level ("all the nodes at each level of a
  tree have the same type").
* **random** — every task's type is uniform over the K types.

Nodes shallower than ``forced_depth`` always expand (so the branching
process doesn't die at a trivial size), and growth stops at
``max_depth`` / ``max_nodes``, which keeps the job size bounded even
when ``m * p > 1``.

When the native kernel loads, the expansion loop runs in C
(:meth:`repro.native.MQBKernel.expand_tree`), drawing through the
generator's bit generator as ``rng.random()`` does; the tree and the
generator's next state are the Python loop's.
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.core.kdag import KDag
from repro.workloads.params import TreeParams

__all__ = ["generate_tree"]


def generate_tree(
    params: TreeParams,
    num_types: int,
    structure: str,
    rng: np.random.Generator,
) -> KDag:
    """Sample one tree job (see module docstring)."""
    m = int(rng.integers(params.fanout_range[0], params.fanout_range[1] + 1))
    p = float(rng.uniform(*params.fanout_prob_range))
    kernel = native.load_kernel()
    if kernel is not None:
        depths, parents = kernel.expand_tree(
            rng.bit_generator, m, p, params.max_depth, params.max_nodes,
            params.forced_depth,
        )
    else:
        depths, parents = _expand(params, m, p, rng)

    n = depths.shape[0]
    edges = np.empty((n - 1, 2), dtype=np.int64)
    edges[:, 0] = parents
    edges[:, 1] = np.arange(1, n, dtype=np.int64)
    if structure == "layered":
        level_types = rng.integers(0, num_types, size=int(depths.max()) + 1)
        types = level_types[depths]
    else:
        types = rng.integers(0, num_types, size=n)

    work = rng.integers(
        params.work_range[0], params.work_range[1] + 1, size=n
    ).astype(np.float64)
    return KDag(types=types, work=work, edges=edges, num_types=num_types)


def _expand(
    params: TreeParams, m: int, p: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The LIFO expansion: ``(depth, parents)``, node ``u``'s parent at
    ``parents[u - 1]``."""
    # Children are numbered in creation order, so edge e is always
    # (parents[e], e + 1): the loop records only the parent.
    parents: list[int] = []
    depth_of: list[int] = [0]
    frontier = [0]
    while frontier:
        node = frontier.pop()
        depth = depth_of[node]
        if depth >= params.max_depth or len(depth_of) + m > params.max_nodes:
            continue
        expand = depth < params.forced_depth or (rng.random() < p)
        if not expand:
            continue
        first = len(depth_of)
        depth_of.extend([depth + 1] * m)
        parents.extend([node] * m)
        frontier.extend(range(first, first + m))
    return (
        np.asarray(depth_of, dtype=np.int64),
        np.asarray(parents, dtype=np.int64),
    )
