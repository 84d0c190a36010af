"""The K-DAG job model.

A *K-DAG* (paper Section II) models a parallel job on a functionally
heterogeneous system with ``K`` resource types.  Each task (node) ``v``
has a type ``alpha in {0, ..., K-1}`` and a work amount ``T1(v, alpha) > 0``;
it may execute only on a processor of the matching type.  Each edge
``(u, v)`` is a precedence constraint: ``v`` becomes ready only when all
its parents have completed.

Types are 0-indexed here (the paper uses 1-indexed ``alpha``); all public
APIs and error messages use the 0-indexed convention consistently.

The class stores adjacency in CSR (compressed sparse row) form over
numpy arrays, which keeps per-instance memory small and makes the
whole-graph passes used by :mod:`repro.core.descendants` cache friendly.
Instances are immutable after construction: schedulers and engines share
a single ``KDag`` across thousands of simulation runs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import native
from repro.errors import CycleError, GraphError

__all__ = ["KDag", "csr_gather"]


def _as_edge_array(edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """Normalize an edge iterable to an ``(m, 2)`` int64 array."""
    if isinstance(edges, np.ndarray):
        arr = edges.astype(np.int64, copy=False)
    else:
        edge_list = list(edges)
        if not edge_list:
            return np.empty((0, 2), dtype=np.int64)
        arr = np.asarray(edge_list, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"edges must be (u, v) pairs, got array shape {arr.shape}")
    return arr


def _build_csr(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build CSR (ptr, idx) arrays mapping each node in 0..n-1 to its dsts.

    ``ptr`` has length ``n + 1``; the dsts of node ``v`` are
    ``idx[ptr[v]:ptr[v + 1]]``, sorted ascending for determinism.
    """
    counts = np.bincount(src, minlength=n)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    order = np.lexsort((dst, src))
    idx = dst[order].astype(np.int64, copy=False)
    return ptr, idx


def csr_gather(
    ptr: np.ndarray, idx: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the CSR neighbours of ``nodes`` into one flat array.

    Returns ``(flat, seg_starts)``: ``flat`` concatenates the
    neighbours of each node in order, and ``seg_starts[i]`` is the
    offset of node ``i``'s segment — the index layout expected by
    ``np.{add,maximum,minimum}.reduceat``.  Every node in ``nodes``
    must have at least one neighbour (reduceat cannot represent empty
    segments).
    """
    counts = ptr[nodes + 1] - ptr[nodes]
    seg_starts = np.zeros(len(nodes), dtype=np.int64)
    np.cumsum(counts[:-1], out=seg_starts[1:])
    # Positions into idx: per segment, ptr[node] + offset-within-segment.
    total = int(seg_starts[-1] + counts[-1]) if len(nodes) else 0
    pos = np.arange(total, dtype=np.int64)
    pos += np.repeat(ptr[nodes] - seg_starts, counts)
    return idx[pos], seg_starts


class KDag:
    """An immutable K-DAG: typed tasks, work amounts and precedence edges.

    Parameters
    ----------
    types:
        Length-``n`` integer sequence; ``types[v]`` is the resource type of
        task ``v`` (0-indexed, in ``0..num_types-1``).
    work:
        Length-``n`` positive floats; ``work[v]`` is ``T1(v, alpha)``.
    edges:
        Iterable of ``(u, v)`` pairs meaning *u precedes v*.
        Duplicate edges are rejected; self loops and cycles raise.
    num_types:
        Total number of resource types ``K``.  Defaults to
        ``max(types) + 1``.  May exceed the number of distinct types
        actually present (a job need not use every resource type).

    Notes
    -----
    The node ids are dense ``0..n-1``.  Use :class:`repro.core.builder.
    KDagBuilder` for incremental construction with arbitrary labels.
    """

    __slots__ = (
        "_n",
        "_k",
        "_types",
        "_work",
        "_edges",
        "_child_ptr",
        "_child_idx",
        "_parent_ptr",
        "_parent_idx",
        "_topo",
        "_depth",
        "_levels",
        "_hash",
    )

    def __init__(
        self,
        types: Sequence[int] | np.ndarray,
        work: Sequence[float] | np.ndarray,
        edges: Iterable[tuple[int, int]] = (),
        num_types: int | None = None,
    ) -> None:
        types_arr = np.asarray(types, dtype=np.int64)
        work_arr = np.asarray(work, dtype=np.float64)
        if types_arr.ndim != 1:
            raise GraphError("types must be a 1-D sequence")
        n = types_arr.shape[0]
        if n == 0:
            raise GraphError("a K-DAG must contain at least one task")
        if work_arr.shape != (n,):
            raise GraphError(
                f"work length {work_arr.shape} does not match {n} tasks"
            )
        if np.any(types_arr < 0):
            raise GraphError("task types must be non-negative (0-indexed)")
        if not np.all(np.isfinite(work_arr)) or np.any(work_arr <= 0):
            raise GraphError("task work amounts must be finite and positive")

        k = int(types_arr.max()) + 1 if num_types is None else int(num_types)
        if k < 1:
            raise GraphError(f"num_types must be >= 1, got {k}")
        if int(types_arr.max()) >= k:
            raise GraphError(
                f"task type {int(types_arr.max())} out of range for K={k}"
            )

        edge_arr = _as_edge_array(edges)
        if edge_arr.size:
            if edge_arr.min() < 0 or edge_arr.max() >= n:
                raise GraphError("edge endpoint out of range")
            if np.any(edge_arr[:, 0] == edge_arr[:, 1]):
                raise GraphError("self loops are not allowed")
            # Sort via a packed (u * n + v) code: one int64 sort gives
            # the (u, v)-lexicographic edge order, and a duplicate edge
            # is an equal neighbour in it.
            codes = np.sort(edge_arr[:, 0] * n + edge_arr[:, 1])
            if np.any(codes[1:] == codes[:-1]):
                raise GraphError("duplicate edges are not allowed")
            edge_arr = np.stack([codes // n, codes % n], axis=1)

        self._n = n
        self._k = k
        self._types = types_arr
        self._work = work_arr
        self._edges = edge_arr
        # Edges are (u, v)-sorted, so the child CSR needs no sort; the
        # parent CSR sorts once by the transposed (v * n + u) code.
        src, dst = edge_arr[:, 0], edge_arr[:, 1]
        child_counts = np.bincount(src, minlength=n)
        self._child_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(child_counts, out=self._child_ptr[1:])
        self._child_idx = np.ascontiguousarray(dst)
        parent_order = np.argsort(dst * n + src, kind="stable")
        parent_counts = np.bincount(dst, minlength=n)
        self._parent_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(parent_counts, out=self._parent_ptr[1:])
        self._parent_idx = src[parent_order]
        self._topo, self._depth = self._topological_order()
        self._levels: tuple[np.ndarray, np.ndarray] | None = None
        self._hash: int | None = None

        for arr in (
            self._types,
            self._work,
            self._edges,
            self._child_ptr,
            self._child_idx,
            self._parent_ptr,
            self._parent_idx,
            self._topo,
            self._depth,
        ):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _topological_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Level-order Kahn's algorithm; returns (topo order, depth per node).

        Depth is the edge-count distance from the farthest source, i.e.
        the layer index used by layered workload inspection.  The peel
        is level batched: a node joins the frontier exactly when its
        last parent has been peeled, so its peel round *is* the longest
        edge-count path from a source, and each round is a handful of
        whole-frontier array ops instead of a per-node Python loop.
        The native kernel, when it loads, returns the same two arrays
        (DESIGN.md, "Native offline passes").
        """
        n = self._n
        kernel = native.load_kernel()
        if kernel is not None:
            order, depth, peeled = kernel.topo_levels(
                self._child_ptr, self._child_idx
            )
            if peeled != n:
                raise CycleError(
                    f"edge set contains a cycle ({n - peeled} tasks unreachable)"
                )
            return order, depth
        indeg = np.diff(self._parent_ptr)
        depth = np.zeros(n, dtype=np.int64)
        order = np.empty(n, dtype=np.int64)
        child_ptr, child_idx = self._child_ptr, self._child_idx
        frontier = np.flatnonzero(indeg == 0)
        indeg = indeg.copy()
        pos = 0
        level = 0
        while frontier.size:
            order[pos : pos + frontier.size] = frontier
            depth[frontier] = level
            pos += frontier.size
            counts = child_ptr[frontier + 1] - child_ptr[frontier]
            fat = frontier[counts > 0]
            if fat.size == 0:
                break
            counts = counts[counts > 0]
            # Flat gather of all children of this level's nodes.
            offsets = np.arange(int(counts.sum()), dtype=np.int64)
            offsets += np.repeat(
                child_ptr[fat] - np.concatenate(
                    ([0], np.cumsum(counts[:-1]))
                ),
                counts,
            )
            children = child_idx[offsets]
            indeg -= np.bincount(children, minlength=n)
            frontier = np.unique(children[indeg[children] == 0])
            level += 1
        if pos != n:
            raise CycleError(
                f"edge set contains a cycle ({n - pos} tasks unreachable)"
            )
        return order, depth

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        """Number of tasks (nodes)."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of precedence edges."""
        return int(self._edges.shape[0])

    @property
    def num_types(self) -> int:
        """Number of resource types ``K``."""
        return self._k

    @property
    def types(self) -> np.ndarray:
        """Read-only array of task types, shape ``(n_tasks,)``."""
        return self._types

    @property
    def work(self) -> np.ndarray:
        """Read-only array of task work amounts, shape ``(n_tasks,)``."""
        return self._work

    @property
    def edges(self) -> np.ndarray:
        """Read-only ``(n_edges, 2)`` array of ``(u, v)`` precedence pairs."""
        return self._edges

    @property
    def topological_order(self) -> np.ndarray:
        """A topological order of the node ids (sources first)."""
        return self._topo

    @property
    def depth(self) -> np.ndarray:
        """Layer index of each node: longest edge-count path from a source."""
        return self._depth

    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Level grouping of the nodes: ``(order, level_ptr)``.

        ``order`` lists all node ids sorted by :attr:`depth` (ties by
        id); level ``i`` is ``order[level_ptr[i]:level_ptr[i + 1]]``.
        Because depth is the *longest* path from a source, every edge
        crosses from a strictly lower level to a strictly higher one,
        so all nodes of a level can be processed simultaneously in the
        level-batched offline sweeps (:mod:`repro.core.descendants`).
        The peel already lists the levels in this order, so ``order``
        is :attr:`topological_order`.  Computed lazily and cached on
        the instance.
        """
        if self._levels is None:
            counts = np.bincount(self._depth)
            level_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=level_ptr[1:])
            level_ptr.setflags(write=False)
            self._levels = (self._topo, level_ptr)
        return self._levels

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    @property
    def child_ptr(self) -> np.ndarray:
        """CSR row pointers of the child adjacency, shape ``(n_tasks + 1,)``.

        The children of ``v`` are ``child_idx[child_ptr[v]:child_ptr[v+1]]``.
        Exposed (read-only) so hot loops — the simulation engines, the
        level-batched offline sweeps — can bind the flat arrays once
        instead of calling :meth:`children` per node.
        """
        return self._child_ptr

    @property
    def child_idx(self) -> np.ndarray:
        """Flat CSR child ids matching :attr:`child_ptr` (read-only)."""
        return self._child_idx

    @property
    def parent_ptr(self) -> np.ndarray:
        """CSR row pointers of the parent adjacency (read-only)."""
        return self._parent_ptr

    @property
    def parent_idx(self) -> np.ndarray:
        """Flat CSR parent ids matching :attr:`parent_ptr` (read-only)."""
        return self._parent_idx

    def children(self, v: int) -> np.ndarray:
        """Direct successors of task ``v`` (ascending ids)."""
        return self._child_idx[self._child_ptr[v] : self._child_ptr[v + 1]]

    def parents(self, v: int) -> np.ndarray:
        """Direct predecessors of task ``v`` (ascending ids)."""
        return self._parent_idx[self._parent_ptr[v] : self._parent_ptr[v + 1]]

    def n_children(self, v: int) -> int:
        """Out-degree of task ``v``."""
        return int(self._child_ptr[v + 1] - self._child_ptr[v])

    def n_parents(self, v: int) -> int:
        """In-degree of task ``v``."""
        return int(self._parent_ptr[v + 1] - self._parent_ptr[v])

    def in_degrees(self) -> np.ndarray:
        """In-degree of every task (fresh, writable array)."""
        return np.diff(self._parent_ptr).astype(np.int64)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every task (fresh, writable array)."""
        return np.diff(self._child_ptr).astype(np.int64)

    def sources(self) -> np.ndarray:
        """Tasks with no parents (ready at time 0)."""
        return np.flatnonzero(np.diff(self._parent_ptr) == 0)

    def sinks(self) -> np.ndarray:
        """Tasks with no children."""
        return np.flatnonzero(np.diff(self._child_ptr) == 0)

    def tasks_of_type(self, alpha: int) -> np.ndarray:
        """Ids of the ``alpha``-tasks ``V(J, alpha)``."""
        if not 0 <= alpha < self._k:
            raise GraphError(f"type {alpha} out of range for K={self._k}")
        return np.flatnonzero(self._types == alpha)

    def iter_tasks(self) -> Iterator[int]:
        """Iterate over task ids in ascending order."""
        return iter(range(self._n))

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    def precedes(self, u: int, v: int) -> bool:
        """True if ``u != v`` and a directed path ``u -> ... -> v`` exists.

        This is an O(V + E) BFS; it exists for validation and tests, not
        for inner scheduling loops.
        """
        if u == v:
            return False
        seen = np.zeros(self._n, dtype=bool)
        stack = [u]
        seen[u] = True
        while stack:
            x = stack.pop()
            for c in self.children(x):
                if c == v:
                    return True
                if not seen[c]:
                    seen[c] = True
                    stack.append(int(c))
        return False

    def subgraph_reachable_from(self, roots: Sequence[int]) -> np.ndarray:
        """Boolean mask of tasks reachable from ``roots`` (roots included)."""
        seen = np.zeros(self._n, dtype=bool)
        stack = [int(r) for r in roots]
        for r in stack:
            if not 0 <= r < self._n:
                raise GraphError(f"root {r} out of range")
            seen[r] = True
        while stack:
            x = stack.pop()
            for c in self.children(x):
                if not seen[c]:
                    seen[c] = True
                    stack.append(int(c))
        return seen

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KDag(n_tasks={self._n}, n_edges={self.n_edges}, "
            f"K={self._k}, total_work={float(self._work.sum()):g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KDag):
            return NotImplemented
        return (
            self._n == other._n
            and self._k == other._k
            and np.array_equal(self._types, other._types)
            and np.array_equal(self._work, other._work)
            and np.array_equal(self._edges, other._edges)
        )

    def __hash__(self) -> int:
        # Content hash, computed once and cached: KDags are immutable
        # and the offline-info cache (repro.core.cache) hashes the same
        # job on every scheduler prepare().
        if self._hash is None:
            self._hash = hash(
                (
                    self._n,
                    self._k,
                    self._types.tobytes(),
                    self._work.tobytes(),
                    self._edges.tobytes(),
                )
            )
        return self._hash
