"""Batched lockstep simulation: many instances, one vectorized loop.

The scalar engine (:mod:`repro.sim.engine`) advances one instance per
Python event loop.  A paired-comparison sweep runs hundreds of
(instance, scheduler) pairs whose event loops are structurally
identical — only the numbers differ — so this module runs N of them
*in lockstep*: per round, every active row advances to its own next
completion instant, and each phase of the round (selection, dispatch,
completion, readiness propagation) is a handful of whole-batch array
operations instead of N interpreted loops.

Columnar state (one row per (job, system, scheduler) run):

* node tables — concatenated per-instance task arrays (``types``,
  ``work``, ``indeg``, packed priority keys) indexed by *global* task
  id, with a CSR child adjacency whose indices are global too;
* running state — ``(R, P_total)`` matrices of finish times, event
  push sequences and task ids, one column per processor (``+inf``
  marks an idle column), so "advance to the next completion" is a
  row-wise ``min``;
* per-type free-processor LIFO stacks — ``(R*K, P_max)`` arrays with
  stack pointers, replicating the scalar engine's processor identity
  assignment exactly;
* ready pools — for static-priority schedulers one *globally sorted*
  int64 array of packed ``(row, type, priority rank, FIFO seq, task)``
  keys, so per-round selection of every row's best ready tasks is a
  single ``searchsorted`` + slice plan; for MQB per-(row, type) pool
  arrays scored by the balance objective.

Bit-identity, not just statistical equivalence, with
:func:`repro.sim.engine.simulate` is the correctness contract: the
same floating-point operations run in the same order per row (task
start times, MQB's carry projection arithmetic, tie-breaks, processor
ids, event orderings), asserted per instance across schedulers and
cells by ``tests/sim/test_batch_identity.py``.

Fallback contract: rows the batch engine does not support — schedulers
that declare no ``lockstep`` row kind, MQB on non-integer work amounts
(where float summation *order* in the balance bookkeeping could
diverge), or degenerate batches whose packed keys would overflow 62
bits — run on the engine :func:`repro.capabilities.plan_run` picks,
and are counted on the ``batch.fallback`` telemetry counter.  The
batch path never silently differs: it either reproduces the scalar
engine exactly or delegates to it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import native as _native
from repro.capabilities import plan_run
from repro.core.kdag import KDag
from repro.errors import SchedulingError
from repro.obs.telemetry import Telemetry
from repro.schedulers.base import Scheduler
from repro.schedulers.kgreedy import KGreedy
from repro.schedulers.mqb import MQB
from repro.schedulers.registry import make_scheduler
from repro.sim.result import ScheduleResult
from repro.sim.trace import ScheduleTrace
from repro.system.resources import ResourceConfig

__all__ = ["simulate_batch", "simulate_batch_grid", "batch_supported"]

_BIG_SEQ = np.iinfo(np.int64).max


class _BatchUnsupported(Exception):
    """Internal: this row set cannot run on the batch engine."""


def _excl_cumsum(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=out[1:])
    return out


class _Row:
    """One (job, resources) run plus its scheduler-prepared state."""

    __slots__ = ("job", "resources", "name", "keys")

    def __init__(
        self,
        job: KDag,
        resources: ResourceConfig,
        name: str,
        keys: np.ndarray | None = None,
    ) -> None:
        self.job = job
        self.resources = resources
        self.name = name
        self.keys = keys


class _LockstepBase:
    """Shared round machinery: nodes, processors, events, completions."""

    def __init__(self, rows: Sequence[_Row], record_trace: bool) -> None:
        self.rows = list(rows)
        R = self.R = len(self.rows)
        K = self.K = max(r.job.num_types for r in self.rows)
        self.RK = R * K
        self.record_trace = record_trace

        n_arr = np.array([r.job.n_tasks for r in self.rows], dtype=np.int64)
        self.n_arr = n_arr
        self.n_max = int(n_arr.max())
        self.node_off = np.zeros(R + 1, dtype=np.int64)
        np.cumsum(n_arr, out=self.node_off[1:])
        total = self.total_nodes = int(self.node_off[-1])

        self.types_g = np.empty(total, dtype=np.int64)
        self.work_g = np.empty(total, dtype=np.float64)
        self.indeg_g = np.empty(total, dtype=np.int64)
        self.node_row = np.repeat(np.arange(R, dtype=np.int64), n_arr)
        self.child_ptr_g = np.zeros(total + 1, dtype=np.int64)
        child_parts: list[np.ndarray] = []
        edge_off = 0
        for ri, row in enumerate(self.rows):
            job = row.job
            off = self.node_off[ri]
            self.types_g[off : off + job.n_tasks] = job.types
            self.work_g[off : off + job.n_tasks] = job.work
            self.indeg_g[off : off + job.n_tasks] = job.in_degrees()
            self.child_ptr_g[off + 1 : off + job.n_tasks + 1] = (
                job.child_ptr[1:] + edge_off
            )
            child_parts.append(job.child_idx + off)
            edge_off += job.n_edges
        self.child_idx_g = (
            np.concatenate(child_parts) if child_parts else np.empty(0, np.int64)
        )
        self.posbuf = np.full(total, -1, dtype=np.int64)

        # Processor state.  Column c of the running matrices is
        # processor (c - proc_base[row, alpha]) of its type; the free
        # stacks replicate the scalar engine's LIFO pools, including
        # the initial [P-1 .. 0] fill (so processor 0 pops first).
        counts2 = np.zeros((R, K), dtype=np.int64)
        for ri, row in enumerate(self.rows):
            counts2[ri, : row.resources.num_types] = row.resources.counts
        self.p_max = int(counts2.max())
        self.proc_base2 = np.zeros(R * K, dtype=np.int64)
        cum = np.cumsum(counts2, axis=1)
        self.proc_base2.reshape(R, K)[:, 1:] = cum[:, :-1]
        self.p_total_max = int(cum[:, -1].max())
        self.free_flat = counts2.reshape(-1).copy()
        self.free2 = self.free_flat.reshape(R, K)
        self.sp_flat = counts2.reshape(-1).copy()
        self.stack2 = np.zeros((R * K, max(self.p_max, 1)), dtype=np.int64)
        ramp = np.arange(max(self.p_max, 1), dtype=np.int64)
        self.stack2[:, :] = counts2.reshape(-1)[:, None] - 1 - ramp

        self.fin = np.full((R, self.p_total_max), np.inf, dtype=np.float64)
        self.pseqb = np.zeros((R, self.p_total_max), dtype=np.int64)
        self.rtaskb = np.zeros((R, self.p_total_max), dtype=np.int64)

        self.now = np.zeros(R, dtype=np.float64)
        self.makespan = np.zeros(R, dtype=np.float64)
        self.completed = np.zeros(R, dtype=np.int64)
        self.decisions = np.zeros(R, dtype=np.int64)
        self.seq_counter = np.zeros(R, dtype=np.int64)
        self.pseq_counter = np.zeros(R, dtype=np.int64)
        self._pseq_stride = self.n_max + 1
        self._ncomp = 0

        self._tr: list[list[np.ndarray]] = [[] for _ in range(6)]

    # -- hooks ----------------------------------------------------------
    def _select(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _on_ready(
        self, tasks_g: np.ndarray, rows: np.ndarray, seqs: np.ndarray
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- shared machinery -----------------------------------------------
    def _seed_sources(self) -> None:
        """Announce every row's source tasks in ascending-id order."""
        parts_t, parts_r, parts_s = [], [], []
        for ri, row in enumerate(self.rows):
            src = row.job.sources() + self.node_off[ri]
            parts_t.append(src)
            parts_r.append(np.full(len(src), ri, dtype=np.int64))
            parts_s.append(np.arange(len(src), dtype=np.int64))
            self.seq_counter[ri] = len(src)
        self._on_ready(
            np.concatenate(parts_t),
            np.concatenate(parts_r),
            np.concatenate(parts_s),
        )

    def _trace_add(
        self,
        rows: np.ndarray,
        alphas: np.ndarray,
        tasks_g: np.ndarray,
        procs: np.ndarray,
        start: np.ndarray,
        finish: np.ndarray,
    ) -> None:
        tr = self._tr
        tr[0].append(np.asarray(rows).reshape(-1).copy())
        tr[1].append(np.asarray(tasks_g).reshape(-1).copy())
        tr[2].append(np.asarray(alphas).reshape(-1).copy())
        tr[3].append(np.asarray(procs).reshape(-1).copy())
        tr[4].append(np.asarray(start, dtype=np.float64).reshape(-1).copy())
        tr[5].append(np.asarray(finish, dtype=np.float64).reshape(-1).copy())

    def _stall(self, act: np.ndarray, finite: np.ndarray) -> None:
        ri = int(np.flatnonzero(act & ~finite)[0])
        raise SchedulingError(
            f"{self.rows[ri].name} stalled at t={self.now[ri]}: "
            f"{int(self.n_arr[ri] - self.completed[ri])} unfinished, "
            "nothing running"
        )

    def _complete(self) -> None:
        """Advance every active row to its next completion instant."""
        fin = self.fin
        now_next = fin.min(axis=1)
        act = self.completed < self.n_arr
        finite = now_next != np.inf
        live = act & finite
        nlive = int(live.sum())
        if nlive != int(act.sum()):
            self._stall(act, finite)
        if nlive == 0:
            return
        # A -1 sentinel keeps done rows (all-inf columns) out of the
        # completion mask: inf == inf would select every idle column.
        nn = np.where(live, now_next, -1.0)
        crow, ccol = np.nonzero(fin == nn[:, None])
        # Pop order: (row, event push seq) — the scalar heap's order
        # among simultaneous completions.
        order = np.argsort(crow * self._pseq_stride + self.pseqb[crow, ccol])
        crow = crow[order]
        ccol = ccol[order]
        tasks_g = self.rtaskb[crow, ccol]
        alphas = self.types_g[tasks_g]
        fin[crow, ccol] = np.inf
        t = nn[crow]
        self.now[crow] = t
        self.makespan[crow] = t
        self.completed += np.bincount(crow, minlength=self.R)
        self._ncomp += len(crow)

        # Return processors to their LIFO stacks in pop order.
        g = crow * self.K + alphas
        procs = ccol - self.proc_base2[g]
        ord2 = np.argsort(g, kind="stable")
        g2 = g[ord2]
        cnt_g = np.bincount(g2, minlength=self.RK)
        off = np.arange(len(g2), dtype=np.int64) - _excl_cumsum(cnt_g)[g2]
        self.stack2[g2, self.sp_flat[g2] + off] = procs[ord2]
        self.sp_flat += cnt_g
        self.free_flat += cnt_g

        # Propagate readiness along the children of completed tasks,
        # scanning edges in pop order (the order the scalar engine
        # decrements them in — it fixes new tasks' FIFO seq ranks).
        cptr = self.child_ptr_g
        lo = cptr[tasks_g]
        ccounts = cptr[tasks_g + 1] - lo
        tot = int(ccounts.sum())
        if tot == 0:
            return
        epos = np.arange(tot, dtype=np.int64)
        pos = epos + np.repeat(lo - _excl_cumsum(ccounts), ccounts)
        children = self.child_idx_g[pos]
        np.subtract.at(self.indeg_g, children, 1)
        newly = self.indeg_g[children] == 0
        if not newly.any():
            return
        # A task is ready at its *last* decrementing edge: keep, per
        # child, the occurrence whose scan position is the per-child
        # max (posbuf entries are reset first — a child may be touched
        # across several rounds).  This both dedups multi-parent
        # children and fixes their announcement positions.
        self.posbuf[children] = -1
        np.maximum.at(self.posbuf, children, epos)
        cand = children[newly]
        cand = cand[self.posbuf[cand] == epos[newly]]
        rows_c = self.node_row[cand]
        # cand is in global scan order; a stable row sort yields the
        # (row, announcement) order that assigns FIFO seqs.
        ord3 = np.argsort(rows_c, kind="stable")
        cand = cand[ord3]
        rows_c = rows_c[ord3]
        cnt_r = np.bincount(rows_c, minlength=self.R)
        within = np.arange(len(cand), dtype=np.int64) - _excl_cumsum(cnt_r)[rows_c]
        seqs = self.seq_counter[rows_c] + within
        self.seq_counter += cnt_r
        self._on_ready(cand, rows_c, seqs)

    def run(self) -> int:
        """Drive all rows to completion; return the lockstep round count."""
        rounds = 0
        while self._ncomp < self.total_nodes:
            self._select()
            self._complete()
            rounds += 1
        return rounds

    def results(self) -> list[ScheduleResult]:
        traces = self._build_traces()
        out = []
        for ri, row in enumerate(self.rows):
            out.append(
                ScheduleResult(
                    makespan=float(self.makespan[ri]),
                    scheduler=row.name,
                    job=row.job,
                    resources=row.resources,
                    preemptive=False,
                    trace=traces[ri],
                    decisions=int(self.decisions[ri]),
                )
            )
        return out

    def _build_traces(self) -> list[ScheduleTrace | None]:
        if not self.record_trace:
            return [None] * self.R
        if self._tr[0]:
            rows = np.concatenate(self._tr[0])
            cols = [np.concatenate(p) for p in self._tr[1:]]
        else:
            rows = np.empty(0, dtype=np.int64)
            cols = [np.empty(0) for _ in range(5)]
        # Stable by row keeps each row's (round, dispatch order), which
        # is exactly the scalar trace's append order.
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        tasks, alphas, procs, starts, ends = (c[order] for c in cols)
        bounds = np.searchsorted(rows, np.arange(self.R + 1))
        traces: list[ScheduleTrace | None] = []
        for ri in range(self.R):
            tr = ScheduleTrace()
            off = self.node_off[ri]
            for j in range(int(bounds[ri]), int(bounds[ri + 1])):
                tr.add(
                    int(tasks[j] - off),
                    int(alphas[j]),
                    int(procs[j]),
                    float(starts[j]),
                    float(ends[j]),
                )
            traces.append(tr)
        return traces


class _StaticLockstep(_LockstepBase):
    """Static-priority rows: KGreedy and every ``QueueScheduler``.

    The ready structure is one globally sorted int64 array of packed
    keys ``(row*K + alpha | priority rank | FIFO seq | global task)``;
    because the scalar per-type heaps pop in exact ``(key, seq)``
    order, slicing the first ``min(free, pending)`` entries of each
    (row, type) segment reproduces the scalar selection *and* its
    dispatch order (types ascending, priority order within a type).
    The static part of every task's key is precomputed, so announcing
    a ready task is one gather-add plus a sorted merge.
    """

    def __init__(self, rows: Sequence[_Row], record_trace: bool) -> None:
        super().__init__(rows, record_trace)
        tb_task = max(int(self.total_nodes).bit_length(), 1)
        tb_seq = max(int(self.n_max).bit_length(), 1)
        tb_rank = tb_seq
        tb_group = max(int(self.RK).bit_length(), 1)
        if tb_task + tb_seq + tb_rank + tb_group > 62:
            raise _BatchUnsupported("packed ready keys exceed 62 bits")
        self.tb_task = tb_task
        self._task_mask = (1 << tb_task) - 1
        self._gbounds = np.arange(self.RK + 1, dtype=np.int64) << (
            tb_rank + tb_seq + tb_task
        )
        self._grange = np.arange(self.RK, dtype=np.int64)
        # Packed static key part per global task: group | rank | 0 | task.
        # Dense per-row priority ranks stand in for the float keys —
        # the packed order only needs the keys' *order*.
        rank_g = np.empty(self.total_nodes, dtype=np.int64)
        for ri, row in enumerate(self.rows):
            keys = row.keys
            assert keys is not None
            off = self.node_off[ri]
            uniq = np.unique(keys)
            rank_g[off : off + len(keys)] = np.searchsorted(uniq, keys)
        group_g = self.node_row * self.K + self.types_g
        self.pack_base = (
            ((group_g << tb_rank | rank_g) << tb_seq) << tb_task
        ) | np.arange(self.total_nodes, dtype=np.int64)
        self.ready = np.empty(0, dtype=np.int64)
        self._seed_sources()

    def _on_ready(
        self, tasks_g: np.ndarray, rows: np.ndarray, seqs: np.ndarray
    ) -> None:
        packed = self.pack_base[tasks_g] + (seqs << self.tb_task)
        packed.sort()
        ready = self.ready
        idx = np.searchsorted(ready, packed) + np.arange(
            len(packed), dtype=np.int64
        )
        out = np.empty(ready.size + packed.size, dtype=np.int64)
        out[idx] = packed
        keep = np.ones(out.size, dtype=bool)
        keep[idx] = False
        out[keep] = ready
        self.ready = out

    def _select(self) -> None:
        ready = self.ready
        if ready.size == 0:
            return
        bounds = np.searchsorted(ready, self._gbounds)
        lo = bounds[:-1]
        ntake = np.minimum(bounds[1:] - lo, self.free_flat)
        total = int(ntake.sum())
        if total == 0:
            return
        g_rep = np.repeat(self._grange, ntake)
        ar = np.arange(total, dtype=np.int64)
        o = ar - _excl_cumsum(ntake)[g_rep]
        sel_pos = lo[g_rep] + o
        sel = ready[sel_pos]
        tasks_g = sel & self._task_mask
        rows = g_rep // self.K
        procs = self.stack2[g_rep, self.sp_flat[g_rep] - 1 - o]
        self.sp_flat -= ntake
        self.free_flat -= ntake
        cnt_r = np.bincount(rows, minlength=self.R)
        pseq = self.pseq_counter[rows] + (ar - _excl_cumsum(cnt_r)[rows])
        self.pseq_counter += cnt_r
        self.decisions += cnt_r > 0
        finish = self.now[rows] + self.work_g[tasks_g]
        col = self.proc_base2[g_rep] + procs
        self.fin[rows, col] = finish
        self.pseqb[rows, col] = pseq
        self.rtaskb[rows, col] = tasks_g
        if self.record_trace:
            self._trace_add(
                rows, g_rep - rows * self.K, tasks_g, procs,
                self.now[rows], finish,
            )
        keep = np.ones(ready.size, dtype=bool)
        keep[sel_pos] = False
        self.ready = ready[keep]


class _MQBLockstep(_LockstepBase):
    """MQB-family rows (one shared balance mode / carry / K).

    Selection replicates the scalar interleaved decision round in
    lockstep: per iteration every active row commits one (pass, type)
    step — its next actionable type in the scalar sweep's cyclic
    order — with all rows' pools scored in one flat computation
    (balance vectors, then a single segmented lexsort whose
    most-significant key is the segment id).  A lone remaining row
    drains through a scalar fast path over its pool slice.  Both
    paths commit exactly the scalar engine's pick (all comparisons
    are exact), carrying the projected descendant inflow ``extra``
    forward per row exactly as the scalar round does.
    """

    def __init__(
        self,
        rows: Sequence[_Row],
        record_trace: bool,
        d_rows: Sequence[np.ndarray],
        balance_mode: str,
        carry: bool,
        kernel=None,
    ) -> None:
        super().__init__(rows, record_trace)
        ks = {r.job.num_types for r in rows} | {r.resources.num_types for r in rows}
        if ks != {self.K}:
            raise _BatchUnsupported("MQB batch requires a uniform K")
        self.balance = balance_mode
        self.carry = carry
        self.d_g = np.empty((self.total_nodes, self.K), dtype=np.float64)
        self.parr = np.empty((self.R, self.K), dtype=np.float64)
        for ri, (row, d) in enumerate(zip(self.rows, d_rows)):
            off = self.node_off[ri]
            self.d_g[off : off + row.job.n_tasks] = d
            self.parr[ri] = row.resources.as_array().astype(np.float64)
        self.l = np.zeros((self.R, self.K), dtype=np.float64)
        self.l_flat = self.l.reshape(-1)
        self.extra = np.zeros((self.R, self.K), dtype=np.float64)
        M = 1
        for row in self.rows:
            M = max(M, int(np.bincount(row.job.types, minlength=self.K).max()))
        self.M = M
        self.pool_task = np.zeros(self.RK * M, dtype=np.int64)
        self.pool_seq = np.zeros(self.RK * M, dtype=np.int64)
        self.pool_len_flat = np.zeros(self.RK, dtype=np.int64)
        self.pool_len = self.pool_len_flat.reshape(self.R, self.K)
        self._arange_k = np.arange(self.K, dtype=np.int64)
        # Native kernel dispatch (see repro.native): the pick paths call
        # one C routine per commit batch instead of building/lexsorting
        # the score matrix in numpy.  All buffers it touches are
        # allocated above and never reallocated, so the raw pointers are
        # cached once; picks are bit-identical by the kernel's contract.
        self.native_picks = 0
        self.kernel = kernel
        if kernel is not None:
            from repro import native as _native

            self._kcommit = kernel.pick_commit
            self._mode_code = _native.MODE_CODES[balance_mode]
            self._carry_i = 1 if carry else 0
            self._kp = (
                self.d_g.ctypes.data,
                self.work_g.ctypes.data,
                self.pool_task.ctypes.data,
                self.pool_seq.ctypes.data,
                self.pool_len_flat.ctypes.data,
                self.l.ctypes.data,
                self.extra.ctypes.data,
                self.parr.ctypes.data,
            )
            self._kout = np.empty(self.R, dtype=np.int64)
            self._kout_ptr = self._kout.ctypes.data
            self._kpair = np.empty(2, dtype=np.int64)
            self._kpair_ptr = self._kpair.ctypes.data
        self._seed_sources()

    def _on_ready(
        self, tasks_g: np.ndarray, rows: np.ndarray, seqs: np.ndarray
    ) -> None:
        alphas = self.types_g[tasks_g]
        g = rows * self.K + alphas
        ord_ = np.argsort(g, kind="stable")
        g2 = g[ord_]
        t2 = tasks_g[ord_]
        cnt = np.bincount(g2, minlength=self.RK)
        within = np.arange(len(g2), dtype=np.int64) - _excl_cumsum(cnt)[g2]
        idx = g2 * self.M + self.pool_len_flat[g2] + within
        self.pool_task[idx] = t2
        self.pool_seq[idx] = seqs[ord_]
        self.pool_len_flat += cnt
        # Ready-queue loads; task works are integral (checked at batch
        # entry), so accumulation order cannot perturb the values.
        np.add.at(self.l_flat, g2, self.work_g[t2])

    # -- selection ------------------------------------------------------
    def _select(self) -> None:
        # The scalar assign() sweeps types 0..K-1 repeatedly, one
        # commit per actionable type per pass, until a full pass makes
        # no progress.  Per row that visits its actionable types in
        # ascending *cyclic* order — and since a commit on one type
        # never makes another type actionable, "next actionable type
        # cyclically after the last committed one" reproduces the
        # scalar commit sequence exactly.  The batch loop therefore
        # advances every active row by one commit step per iteration
        # (rows at different types mix in the same vectorized call); a
        # lone remaining row drains through the scalar fast path.
        mask2 = (self.free2 > 0) & (self.pool_len > 0)
        act = mask2.any(axis=1)
        if not act.any():
            return
        self.decisions += act
        self.extra[:] = 0.0
        ptr = np.zeros(self.R, dtype=np.int64)
        while True:
            rows = np.flatnonzero(act)
            if rows.size == 0:
                return
            if rows.size == 1:
                r = int(rows[0])
                m = mask2[r]
                p = int(ptr[r])
                while True:
                    nz = np.flatnonzero(m)
                    if nz.size == 0:
                        return
                    ge = nz[nz >= p]
                    alpha = int(ge[0]) if ge.size else int(nz[0])
                    self._step_one(r, alpha)
                    m[alpha] = bool(
                        self.free2[r, alpha] > 0 and self.pool_len[r, alpha] > 0
                    )
                    p = alpha + 1
            sub = mask2[rows]
            ge = sub & (self._arange_k[None, :] >= ptr[rows, None])
            has_ge = ge.any(axis=1)
            alphas = np.where(
                has_ge, np.argmax(ge, axis=1), np.argmax(sub, axis=1)
            )
            ptr[rows] = alphas + 1
            take_all = self.pool_len[rows, alphas] <= self.free2[rows, alphas]
            pr = rows[~take_all]
            pa = alphas[~take_all]
            tr = rows[take_all]
            ta = alphas[take_all]
            if pr.size == 1:
                self._pick_one(int(pr[0]), int(pa[0]))
            elif pr.size:
                self._pick_multi(pr, pa)
            if tr.size == 1:
                self._take_all_one(int(tr[0]), int(ta[0]))
            elif tr.size:
                self._take_all_multi(tr, ta)
            mask2[rows, alphas] = (self.free2[rows, alphas] > 0) & (
                self.pool_len[rows, alphas] > 0
            )
            act[rows] = mask2[rows].any(axis=1)

    # -- single-row fast paths ------------------------------------------
    def _step_one(self, r: int, alpha: int) -> None:
        if self.pool_len[r, alpha] <= self.free2[r, alpha]:
            self._take_all_one(r, alpha)
        else:
            self._pick_one(r, alpha)

    def _pick_one(self, r: int, alpha: int) -> None:
        g = r * self.K + alpha
        if self.kernel is not None:
            self._kpair[0] = r
            self._kpair[1] = alpha
            rc = self._kcommit(
                *self._kp, self._kpair_ptr, self._kpair_ptr + 8,
                1, self.K, self.M, self._mode_code, self._carry_i,
                self._kout_ptr,
            )
            if rc == 0:
                self.native_picks += 1
                task = int(self._kout[0])
                self.free2[r, alpha] -= 1
                self._dispatch_one(r, alpha, g, task)
                return
        b = int(self.pool_len_flat[g])
        base = g * self.M
        tasks_f = self.pool_task[base : base + b]
        seq_f = self.pool_seq[base : base + b]
        rmat = self.d_g[tasks_f] + (self.l[r] + self.extra[r])
        rmat[:, alpha] -= self.work_g[tasks_f]
        rmat /= self.parr[r]
        # Same comparison-only lexsort as the scalar MQB._pick_best:
        # most-significant key last, earliest FIFO seq wins ties.
        neg_seq = -seq_f
        if self.balance == "lex":
            rmat.sort(axis=1)
            keys = (
                neg_seq,
                *(rmat[:, j] for j in range(self.K - 1, 0, -1)),
                rmat[:, 0],
            )
        elif self.balance == "min":
            keys = (neg_seq, rmat.min(axis=1))
        else:
            keys = (neg_seq, rmat.sum(axis=1))
        slot = int(np.lexsort(keys)[-1])
        task = int(tasks_f[slot])
        if self.carry:
            self.extra[r] += self.d_g[task]
        self.l[r, alpha] -= self.work_g[task]
        last = b - 1
        tasks_f[slot] = tasks_f[last]
        seq_f[slot] = seq_f[last]
        self.pool_len_flat[g] = last
        self.free2[r, alpha] -= 1
        self._dispatch_one(r, alpha, g, task)

    def _take_all_one(self, r: int, alpha: int) -> None:
        g = r * self.K + alpha
        b = int(self.pool_len_flat[g])
        base = g * self.M
        # Commit in FIFO ready order (the scalar pool's insertion
        # order, recovered from the seq tags).
        order = np.argsort(self.pool_seq[base : base + b])
        tasks_s = self.pool_task[base : base + b][order]
        if self.carry:
            extra_r = self.extra[r]
            for t in tasks_s.tolist():  # scalar accumulation order
                extra_r += self.d_g[t]
        self.l[r, alpha] -= self.work_g[tasks_s].sum()
        self.pool_len_flat[g] = 0
        self.free2[r, alpha] -= b
        sp = int(self.sp_flat[g])
        procs = self.stack2[g, sp - b : sp][::-1].copy()
        self.sp_flat[g] = sp - b
        pq = int(self.pseq_counter[r])
        pseq = np.arange(pq, pq + b, dtype=np.int64)
        self.pseq_counter[r] = pq + b
        finish = self.now[r] + self.work_g[tasks_s]
        col = self.proc_base2[g] + procs
        self.fin[r, col] = finish
        self.pseqb[r, col] = pseq
        self.rtaskb[r, col] = tasks_s
        if self.record_trace:
            self._trace_add(
                np.full(b, r), np.full(b, alpha), tasks_s, procs,
                np.full(b, self.now[r]), finish,
            )

    def _dispatch_one(self, r: int, alpha: int, g: int, task: int) -> None:
        sp = int(self.sp_flat[g]) - 1
        proc = int(self.stack2[g, sp])
        self.sp_flat[g] = sp
        pseq = int(self.pseq_counter[r])
        self.pseq_counter[r] = pseq + 1
        finish = self.now[r] + self.work_g[task]
        col = self.proc_base2[g] + proc
        self.fin[r, col] = finish
        self.pseqb[r, col] = pseq
        self.rtaskb[r, col] = task
        if self.record_trace:
            self._trace_add(
                np.array([r]), np.array([alpha]),
                np.array([task]), np.array([proc]),
                np.array([self.now[r]]), np.array([finish]),
            )

    # -- multi-row vectorized paths (each row appears once per call) ----
    def _pick_multi_native(
        self, rows: np.ndarray, alphas: np.ndarray, g: np.ndarray
    ) -> bool:
        """One C call scores + commits every (row, alpha) pair's pick.

        The kernel walks the pairs sequentially, which is equivalent to
        the vectorized formulation because each row appears at most
        once per call — no pair reads another pair's ``l``/``extra``/
        pool updates.  Python keeps the vectorized dispatch tail
        (processor stacks, finish times, trace), which is untouched by
        the backend choice.  Returns False to fall through to the
        numpy path if the kernel rejects the arguments.
        """
        n = len(rows)
        rows_c = np.ascontiguousarray(rows, dtype=np.int64)
        alphas_c = np.ascontiguousarray(alphas, dtype=np.int64)
        rc = self._kcommit(
            *self._kp, rows_c.ctypes.data, alphas_c.ctypes.data,
            n, self.K, self.M, self._mode_code, self._carry_i,
            self._kout_ptr,
        )
        if rc != 0:
            return False
        self.native_picks += n
        wtasks = self._kout[:n]
        self.free2[rows, alphas] -= 1
        sp = self.sp_flat[g] - 1
        procs = self.stack2[g, sp]
        self.sp_flat[g] = sp
        pseq = self.pseq_counter[rows]
        self.pseq_counter[rows] = pseq + 1
        finish = self.now[rows] + self.work_g[wtasks]
        col = self.proc_base2[g] + procs
        self.fin[rows, col] = finish
        self.pseqb[rows, col] = pseq
        self.rtaskb[rows, col] = wtasks
        if self.record_trace:
            self._trace_add(rows, alphas, wtasks, procs, self.now[rows], finish)
        return True

    def _pick_multi(self, rows: np.ndarray, alphas: np.ndarray) -> None:
        g = rows * self.K + alphas
        if self.kernel is not None and self._pick_multi_native(
            rows, alphas, g
        ):
            return
        b = self.pool_len_flat[g]
        seg_starts = _excl_cumsum(b)
        nflat = int(b.sum())
        flat_ar = np.arange(nflat, dtype=np.int64)
        pos = flat_ar + np.repeat(g * self.M - seg_starts, b)
        srows = np.repeat(np.arange(len(rows), dtype=np.int64), b)
        tasks_f = self.pool_task[pos]
        seq_f = self.pool_seq[pos]
        # The balance vector per candidate, with the scalar operation
        # order: (l + extra) computed once per row, broadcast-added to
        # the descendant rows, own work removed from the own-type
        # entry, divided by the processor counts.
        s = self.l[rows] + self.extra[rows]
        rmat = self.d_g[tasks_f] + s[srows]
        rmat[flat_ar, np.repeat(alphas, b)] -= self.work_g[tasks_f]
        rmat /= self.parr[rows][srows]
        # One flat lexsort with the segment id as most-significant key:
        # the last element of each segment is that row's scalar
        # arg-max (earliest FIFO seq on full ties, via -seq).
        neg_seq = -seq_f
        if self.balance == "lex":
            rmat.sort(axis=1)
            keys = (
                neg_seq,
                *(rmat[:, j] for j in range(self.K - 1, 0, -1)),
                rmat[:, 0],
                srows,
            )
        elif self.balance == "min":
            keys = (neg_seq, rmat.min(axis=1), srows)
        else:
            keys = (neg_seq, rmat.sum(axis=1), srows)
        win = np.lexsort(keys)[np.cumsum(b) - 1]
        wtasks = tasks_f[win]
        wslot = pos[win]
        if self.carry:
            self.extra[rows] += self.d_g[wtasks]
        self.l[rows, alphas] -= self.work_g[wtasks]
        # Swap-remove the winners from their pools.
        last = b - 1
        last_flat = g * self.M + last
        self.pool_task[wslot] = self.pool_task[last_flat]
        self.pool_seq[wslot] = self.pool_seq[last_flat]
        self.pool_len_flat[g] = last
        self.free2[rows, alphas] -= 1
        # Dispatch the one winner per row.
        sp = self.sp_flat[g] - 1
        procs = self.stack2[g, sp]
        self.sp_flat[g] = sp
        pseq = self.pseq_counter[rows]
        self.pseq_counter[rows] = pseq + 1
        finish = self.now[rows] + self.work_g[wtasks]
        col = self.proc_base2[g] + procs
        self.fin[rows, col] = finish
        self.pseqb[rows, col] = pseq
        self.rtaskb[rows, col] = wtasks
        if self.record_trace:
            self._trace_add(rows, alphas, wtasks, procs, self.now[rows], finish)

    def _take_all_multi(self, rows: np.ndarray, alphas: np.ndarray) -> None:
        g = rows * self.K + alphas
        b = self.pool_len_flat[g]
        seg_starts = _excl_cumsum(b)
        nflat = int(b.sum())
        flat_ar = np.arange(nflat, dtype=np.int64)
        pos = flat_ar + np.repeat(g * self.M - seg_starts, b)
        srows = np.repeat(np.arange(len(rows), dtype=np.int64), b)
        seq_f = self.pool_seq[pos]
        # "Run them all" commits in FIFO ready order per row.
        ordk = np.argsort(srows * self._pseq_stride + seq_f)
        tasks_s = self.pool_task[pos][ordk]
        if self.carry:
            # extra = ((extra + d[v1]) + d[v2]) + ... — prepend each
            # row's running extra to its segment so the segmented
            # left-to-right reduce reproduces the scalar accumulation
            # order exactly.
            nseg = len(rows)
            arr = np.empty((nflat + nseg, self.K), dtype=np.float64)
            ins = seg_starts + np.arange(nseg, dtype=np.int64)
            arr[ins] = self.extra[rows]
            dmask = np.ones(len(arr), dtype=bool)
            dmask[ins] = False
            arr[dmask] = self.d_g[tasks_s]
            self.extra[rows] = np.add.reduceat(arr, ins, axis=0)
        self.l[rows, alphas] -= np.add.reduceat(self.work_g[tasks_s], seg_starts)
        self.pool_len_flat[g] = 0
        self.free2[rows, alphas] -= b
        # Dispatch all b tasks per row in commit order.
        o = flat_ar - seg_starts[srows]
        g_rep = np.repeat(g, b)
        procs = self.stack2[g_rep, self.sp_flat[g_rep] - 1 - o]
        self.sp_flat[g] -= b
        pseq = np.repeat(self.pseq_counter[rows], b) + o
        self.pseq_counter[rows] += b
        rows_rep = np.repeat(rows, b)
        finish = self.now[rows_rep] + self.work_g[tasks_s]
        col = self.proc_base2[g_rep] + procs
        self.fin[rows_rep, col] = finish
        self.pseqb[rows_rep, col] = pseq
        self.rtaskb[rows_rep, col] = tasks_s
        if self.record_trace:
            self._trace_add(
                rows_rep, np.repeat(alphas, b), tasks_s, procs,
                self.now[rows_rep], finish,
            )


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def batch_supported(scheduler: Scheduler, job: KDag) -> bool:
    """Whether the batch engine can run ``scheduler`` on ``job``.

    Reads the scheduler's ``lockstep`` declaration: static-priority
    rows (KGreedy and every
    :class:`~repro.schedulers.base.QueueScheduler`) always qualify;
    MQB rows qualify on integral work amounts (every library
    workload), where the balance bookkeeping is exact in any
    summation order.  Everything else — e.g. the random control, whose
    per-decision draws are inherently sequential, or the energy
    variants, whose assignment differs from their base classes — runs
    on the scalar engine.
    """
    if scheduler.lockstep == "static":
        return True
    if scheduler.lockstep != "mqb":
        return False
    cls = type(scheduler)
    if cls._pick_best is not MQB._pick_best or cls.assign is not MQB.assign:
        # A subclass with its own scoring or assignment that inherits
        # MQB's declaration (e.g. an unregistered variant) would
        # silently run its base class here.
        return False
    work = job.work
    return bool(np.all(work == np.floor(work)))


def _static_row(sch: Scheduler, job: KDag, resources: ResourceConfig) -> _Row:
    keys = (
        np.zeros(job.n_tasks, dtype=np.float64)
        if isinstance(sch, KGreedy)
        else np.asarray(sch._keys, dtype=np.float64)  # type: ignore[attr-defined]
    )
    return _Row(job, resources, sch.name, keys)


def simulate_batch(
    instances: Sequence[tuple[KDag, ResourceConfig]],
    scheduler: Scheduler | str,
    rngs: Sequence[np.random.Generator | None] | None = None,
    record_trace: bool = False,
    telemetry: Telemetry | None = None,
) -> list[ScheduleResult]:
    """Simulate ``scheduler`` on every instance, batched in lockstep.

    Parameters
    ----------
    instances:
        ``(job, resources)`` pairs; cells may be ragged (different
        task counts, different K).
    scheduler:
        A registry name or a scheduler instance.  It is ``prepare()``-d
        once per instance (consuming ``rngs[i]`` exactly as a scalar
        run would), then its prepared state is read into the columnar
        engine.
    rngs:
        Optional per-instance generators for ``prepare`` (stochastic
        information models); ``None`` entries are fine.
    record_trace:
        When true every result carries a full :class:`ScheduleTrace`,
        bit-identical to the scalar engine's.
    telemetry:
        Observability context; counts ``batch.instances``,
        ``batch.rounds`` and ``batch.fallback``.  Disabled or absent
        telemetry costs nothing (counters are recorded once per batch,
        not per round).

    Returns
    -------
    list[ScheduleResult]
        One result per instance, in input order — each bit-identical
        to ``simulate(job, resources, scheduler, ...)`` on the same
        inputs (rows the engine cannot handle are transparently run
        on the scalar engine; see the module docstring's fallback
        contract).
    """
    grid = simulate_batch_grid(
        instances,
        [scheduler],
        rngs=None if rngs is None else [list(rngs)],
        record_trace=record_trace,
        telemetry=telemetry,
    )
    return grid[0]


def simulate_batch_grid(
    instances: Sequence[tuple[KDag, ResourceConfig]],
    schedulers: Sequence[Scheduler | str],
    rngs: Sequence[Sequence[np.random.Generator | None]] | None = None,
    record_trace: bool = False,
    telemetry: Telemetry | None = None,
) -> list[list[ScheduleResult]]:
    """Simulate a whole (scheduler × instance) grid in lockstep.

    The sweep-shaped entry point: *all* static-priority rows of the
    grid stack into one lockstep engine regardless of which scheduler
    they belong to (a paired comparison of 5 static algorithms over 16
    instances becomes one 80-row engine whose event rounds amortize
    across the whole grid), MQB rows group by (balance mode, carry
    flag, K) — the engine parameters, so all seven MQB information
    variants of Figure 8 share engines — and unsupported pairs fall
    back to the scalar engine per the module's fallback contract.

    ``rngs`` is indexed ``[scheduler][instance]``; each generator is
    consumed by that pair's ``prepare`` exactly as a scalar run would
    consume it, so results are bit-identical to the scalar engine's
    per pair.  Returns ``results[scheduler][instance]``.
    """
    sch_list = [
        make_scheduler(s) if isinstance(s, str) else s for s in schedulers
    ]
    A = len(sch_list)
    N = len(instances)
    if rngs is None:
        rng_grid: list[list[np.random.Generator | None]] = [
            [None] * N for _ in range(A)
        ]
    else:
        rng_grid = [list(r) for r in rngs]
        if len(rng_grid) != A or any(len(r) != N for r in rng_grid):
            raise SchedulingError(
                f"rngs must be a {A}x{N} grid matching (schedulers, instances)"
            )
    obs = telemetry if (telemetry is not None and telemetry.enabled) else None
    results: list[list[ScheduleResult | None]] = [
        [None] * N for _ in range(A)
    ]

    static_pairs: list[tuple[int, int]] = []
    mqb_groups: dict[tuple[str, bool, int], list[tuple[int, int]]] = {}
    fallback_pairs: list[tuple[int, int]] = []
    for a, sch in enumerate(sch_list):
        for i, (job, _resources) in enumerate(instances):
            if sch.lockstep == "static":
                static_pairs.append((a, i))
            elif batch_supported(sch, job):
                key = (sch._balance_mode, sch._carry, job.num_types)
                mqb_groups.setdefault(key, []).append((a, i))
            else:
                fallback_pairs.append((a, i))

    def _run_fallback(pairs: list[tuple[int, int]]) -> None:
        for a, i in pairs:
            job, resources = instances[i]
            results[a][i] = plan_run(sch_list[a])(
                job,
                resources,
                sch_list[a],
                rng=rng_grid[a][i],
                record_trace=record_trace,
                telemetry=telemetry,
            )
        if obs is not None and pairs:
            obs.inc("batch.fallback", len(pairs))

    rounds = 0
    batched = 0
    if static_pairs:
        rows = []
        for a, i in static_pairs:
            job, resources = instances[i]
            sch = sch_list[a]
            sch.prepare(job, resources, rng_grid[a][i])
            rows.append(_static_row(sch, job, resources))
        try:
            engine: _LockstepBase = _StaticLockstep(rows, record_trace)
        except _BatchUnsupported:
            _run_fallback(static_pairs)
        else:
            rounds += engine.run()
            batched += len(static_pairs)
            for (a, i), res in zip(static_pairs, engine.results()):
                results[a][i] = res

    native_picks = 0
    for (balance_mode, carry, k), pairs in mqb_groups.items():
        rows = []
        d_rows = []
        for a, i in pairs:
            job, resources = instances[i]
            sch = sch_list[a]
            # The prepared scheduler only donates its descendant matrix
            # here; detach any stale telemetry so its own (unused)
            # native dispatch does not count fallbacks for this batch.
            sch.attach_telemetry(None)
            sch.prepare(job, resources, rng_grid[a][i])
            rows.append(_Row(job, resources, sch.name))
            d_rows.append(np.asarray(sch._d, dtype=np.float64))  # type: ignore[attr-defined]
        kernel = None
        if _native.requested() and _native.supported(balance_mode, k):
            kernel = _native.load_kernel()
            if kernel is None:
                _native.note_fallback(obs)
        try:
            engine = _MQBLockstep(
                rows, record_trace, d_rows, balance_mode, carry, kernel=kernel
            )
        except _BatchUnsupported:
            _run_fallback(pairs)
        else:
            rounds += engine.run()
            batched += len(pairs)
            native_picks += engine.native_picks
            for (a, i), res in zip(pairs, engine.results()):
                results[a][i] = res

    _run_fallback(fallback_pairs)

    if obs is not None and batched:
        obs.inc("batch.instances", batched)
        obs.inc("batch.rounds", rounds)
        if native_picks:
            obs.inc("native.calls", native_picks)
    return results  # type: ignore[return-value]
