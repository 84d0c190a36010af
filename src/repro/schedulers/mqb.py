"""MQB — Multi-Queue Balancing, the paper's contribution (Section IV-A).

MQB keeps one ready queue per resource type and treats the *shortest*
queue (in x-utilization, ``r_alpha = l_alpha / P_alpha``) as the
bottleneck to maximizing system utilization.  When an ``alpha``-
processor frees up and more than ``P_alpha`` ``alpha``-tasks are ready,
MQB starts the ready task whose typed descendant values, added to the
current queue works, yield the *lexicographically best* ascending-
sorted x-utilization vector — i.e. the task expected to feed the
starved types most.  With at most ``P_alpha`` ready tasks it simply
runs them all (any greedy does).

Two interpretation points the paper leaves open, resolved as follows
and ablatable via constructor arguments:

* **Within a decision round**, after MQB commits a task, its descendant
  values stay added to the projected queue vector that scores the
  remaining picks of the same round (``carry_projection=True``).  This
  stops one round from starting several tasks that all feed the same
  starved type.  Set ``carry_projection=False`` for the memoryless
  variant (each pick scored against the actual queues only).
* **The started task's own work** is removed from its queue in the
  hypothetical vector (it leaves the ready queue when it starts).

``balance_mode`` selects the comparison ("lex" is the paper's; "min"
compares only the smallest x-utilization; "sum" maximizes the total) —
the ablation benchmark quantifies how much the lexicographic order
matters.

Information variants (paper Section V-G) are injected through an
:class:`~repro.schedulers.info.InformationModel`.
"""

from __future__ import annotations

import numpy as np

from repro import native as _native
from repro.core.kdag import KDag
from repro.errors import ConfigurationError, SchedulingError
from repro.schedulers.base import Scheduler
from repro.schedulers.info import ExactInformation, InformationModel
from repro.system.resources import ResourceConfig

__all__ = ["MQB", "best_slot"]

_BALANCE_MODES = ("lex", "min", "sum")


def best_slot(
    dpool: np.ndarray, wpool: np.ndarray, spool: np.ndarray, m: int,
    queued: np.ndarray, alpha: int, parr: np.ndarray, mode: str,
) -> int:
    """The slot of the best of ``m`` pooled alpha-candidates, on numpy.

    ``dpool``/``wpool``/``spool`` hold the candidates' descendant rows,
    own works and FIFO ready seqs in rows ``0..m``; ``queued`` is the
    queue-work vector ``l + extra``.  A candidate scores
    ``(d + queued)``, its own work taken off its queue, over ``parr``,
    and the best score under ``mode`` wins, ties going to the smallest
    seq: the arithmetic and order of the native kernel's picks.
    """
    r = dpool[:m] + queued
    r[:, alpha] -= wpool[:m]
    r /= parr

    # One comparison-only lexsort picks the winner: most-significant
    # key last, FIFO ready sequence (negated: earliest wins the tie)
    # least significant.  Comparisons are exact, so the winner is
    # identical to the narrow-by-column formulation.
    neg_seq = -spool[:m]
    if mode == "lex":
        r.sort(axis=1)
        sort_keys = (neg_seq, *(r[:, j] for j in range(r.shape[1] - 1, 0, -1)), r[:, 0])
    elif mode == "min":
        sort_keys = (neg_seq, r.min(axis=1))
    else:  # sum
        sort_keys = (neg_seq, r.sum(axis=1))
    return int(np.lexsort(sort_keys)[-1])


class MQB(Scheduler):
    """Multi-Queue Balancing scheduler.

    Parameters
    ----------
    info:
        Descendant-information model; defaults to exact full-lookahead
        values (MQB+All+Pre, the paper's plain "MQB").
    balance_mode:
        "lex" (paper), "min" or "sum" — see module docstring.
    carry_projection:
        Whether committed picks' descendant values project into the
        scoring of later picks in the same round (default True).
    """

    name = "mqb"
    requires_offline = True
    lockstep = "mqb"

    def __init__(
        self,
        info: InformationModel | None = None,
        balance_mode: str = "lex",
        carry_projection: bool = True,
    ) -> None:
        super().__init__()
        if balance_mode not in _BALANCE_MODES:
            raise ConfigurationError(
                f"balance_mode must be one of {_BALANCE_MODES}, got {balance_mode!r}"
            )
        self._info = info if info is not None else ExactInformation()
        self._balance_mode = balance_mode
        self._carry = bool(carry_projection)
        self.name = f"mqb+{self._info.full_label()}"
        if self._info.full_label() == "all+pre":
            self.name = "mqb"  # the paper's headline algorithm
        if balance_mode != "lex":
            self.name += f"[{balance_mode}]"
        if not carry_projection:
            self.name += "[nocarry]"

        self._d: np.ndarray | None = None
        self._wcur: np.ndarray | None = None
        self._l: np.ndarray | None = None
        self._parr: np.ndarray | None = None
        # Per-type ready pools, array backed so each pick scores a
        # contiguous slice instead of re-gathering rows of ``_d``:
        # ``_pos[alpha]`` maps task -> row in the per-type buffers
        # (insertion ordered, which batch starts rely on), and
        # ``_dpool``/``_wpool`` hold the matching descendant rows and
        # current works for rows ``0..len(_pos[alpha])``.  Rows are
        # swap-removed on pop; the buffers grow by doubling.
        self._pos: list[dict[int, int]] = []
        self._ptasks: list[list[int]] = []
        self._dpool: list[np.ndarray] = []
        self._wpool: list[np.ndarray] = []
        self._spool: list[np.ndarray] = []
        self._seq = 0
        # Native-kernel dispatch state: :meth:`prepare` sets ``_kpick``,
        # the C entry point or ``None`` for the numpy path; the first
        # pick of a run binds the ``*_ptr`` ints and ``_pp`` per-type
        # pointer triples, which cache ``ndarray.ctypes.data`` so the
        # per-pick call carries no ctypes marshalling beyond plain
        # integers.  A run the C whole-run loop carries binds nothing.
        self._kpick = None
        self._pp: list[tuple[int, int, int]] = []
        self._extra: np.ndarray | None = None

    @property
    def info(self) -> InformationModel:
        """The information model in use."""
        return self._info

    # ------------------------------------------------------------------
    # lifecycle / events
    # ------------------------------------------------------------------
    def prepare(
        self,
        job: KDag,
        resources: ResourceConfig,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().prepare(job, resources, rng)
        d = np.asarray(self._info.descendant_matrix(job, rng), dtype=np.float64)
        if d.shape != (job.n_tasks, job.num_types):
            raise SchedulingError(
                f"information model returned shape {d.shape}, expected "
                f"({job.n_tasks}, {job.num_types})"
            )
        self._d = d
        self._wcur = job.work.astype(np.float64).copy()
        self._l = np.zeros(job.num_types, dtype=np.float64)
        self._parr = resources.as_array().astype(np.float64)
        k = job.num_types
        self._pos = [dict() for _ in range(k)]
        self._ptasks = [[] for _ in range(k)]
        self._dpool = [np.empty((8, k), dtype=np.float64) for _ in range(k)]
        self._wpool = [np.empty(8, dtype=np.float64) for _ in range(k)]
        self._spool = [np.empty(8, dtype=np.int64) for _ in range(k)]
        self._seq = 0
        self._first_seq: dict[int, int] = {}
        self._extra = np.zeros(k, dtype=np.float64)
        self._kpick = None
        self._pp = []
        # Native kernel dispatch: only the base scoring rule may be
        # routed to C — subclasses that override ``_pick_best`` (e.g.
        # the energy-weighted EMQB) keep the polymorphic numpy path.
        if type(self)._pick_best is MQB._pick_best and _native.requested():
            if _native.supported(self._balance_mode, k):
                kernel = _native.load_kernel()
                if kernel is None:
                    _native.note_fallback(self._telemetry)
                else:
                    self._kpick = kernel.pick_pop

    def _bind_pointers(self) -> None:
        """Cache this run's buffer addresses for the per-pick kernel."""
        k = self.job.num_types
        self._k = k
        self._mode_code = _native.MODE_CODES[self._balance_mode]
        self._carry_i = 1 if self._carry else 0
        self._l_ptr = self._l.ctypes.data
        self._extra_ptr = self._extra.ctypes.data
        self._parr_ptr = self._parr.ctypes.data
        self._pp = [
            (
                self._dpool[a].ctypes.data,
                self._wpool[a].ctypes.data,
                self._spool[a].ctypes.data,
            )
            for a in range(k)
        ]

    def task_ready(self, task: int, time: float, work: float) -> None:
        assert self._l is not None and self._wcur is not None
        assert self._d is not None
        alpha = int(self.job.types[task])
        self._wcur[task] = work
        # Sticky FIFO rank: preemptive re-announcements keep the task's
        # original tie-break position (see KGreedy for rationale).
        seq = self._first_seq.setdefault(task, self._seq)
        if seq == self._seq:
            self._seq += 1
        tasks = self._ptasks[alpha]
        row = len(tasks)
        dpool = self._dpool[alpha]
        if row == dpool.shape[0]:
            self._dpool[alpha] = dpool = np.concatenate(
                [dpool, np.empty_like(dpool)]
            )
            self._wpool[alpha] = np.concatenate(
                [self._wpool[alpha], np.empty_like(self._wpool[alpha])]
            )
            self._spool[alpha] = np.concatenate(
                [self._spool[alpha], np.empty_like(self._spool[alpha])]
            )
            if self._pp:
                self._pp[alpha] = (
                    dpool.ctypes.data,
                    self._wpool[alpha].ctypes.data,
                    self._spool[alpha].ctypes.data,
                )
        self._pos[alpha][task] = row
        tasks.append(task)
        dpool[row] = self._d[task]
        self._wpool[alpha][row] = work
        self._spool[alpha][row] = seq
        self._l[alpha] += work

    def pending(self, alpha: int) -> int:
        return len(self._ptasks[alpha])

    def task_finished(self, task: int, time: float) -> None:
        pass

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def _pop(self, alpha: int, task: int) -> None:
        assert self._l is not None and self._wcur is not None
        pos = self._pos[alpha]
        tasks = self._ptasks[alpha]
        row = pos.pop(task)
        last = len(tasks) - 1
        if row != last:
            moved = tasks[last]
            tasks[row] = moved
            pos[moved] = row  # in-place dict update keeps insertion order
            self._dpool[alpha][row] = self._dpool[alpha][last]
            self._wpool[alpha][row] = self._wpool[alpha][last]
            self._spool[alpha][row] = self._spool[alpha][last]
        tasks.pop()
        self._l[alpha] -= self._wcur[task]

    def _pick_best(self, alpha: int, extra: np.ndarray) -> int:
        """Score every ready alpha-task and return the best one.

        ``extra`` is the projected inflow from picks already committed
        this round (zeros when ``carry_projection`` is off).  The
        candidates' descendant rows and works are maintained
        incrementally in the per-type pool buffers across picks, so
        scoring is a slice-plus-broadcast instead of a fresh gather of
        ``_d`` rows; the arithmetic per candidate is unchanged, keeping
        picks bit-identical to the rescan formulation.
        """
        assert self._d is not None and self._l is not None
        assert self._wcur is not None and self._parr is not None
        tasks = self._ptasks[alpha]
        slot = best_slot(
            self._dpool[alpha], self._wpool[alpha], self._spool[alpha],
            len(tasks), self._l + extra, alpha, self._parr, self._balance_mode,
        )
        return tasks[slot]

    def _commit_pick(self, alpha: int, extra: np.ndarray) -> int:
        """Pick the best ready alpha-task, pop it, project its carry.

        The native kernel performs score + pop-swap + ``_l``/``extra``
        updates in one C call over the pool buffers and returns the
        winner's slot; Python mirrors the swap in the task list and
        position dict.  Without a kernel (or for subclasses with their
        own scoring) this is exactly the classic
        ``_pick_best`` / ``_pop`` / carry sequence.
        """
        kpick = self._kpick
        if kpick is not None and extra is self._extra:
            if not self._pp:
                self._bind_pointers()
            tasks = self._ptasks[alpha]
            dptr, wptr, sptr = self._pp[alpha]
            slot = kpick(
                dptr, wptr, sptr, len(tasks), self._k, alpha,
                self._l_ptr, self._extra_ptr, self._parr_ptr,
                self._mode_code, self._carry_i,
            )
            if slot >= 0:
                pos = self._pos[alpha]
                task = tasks[slot]
                del pos[task]
                last = len(tasks) - 1
                if slot != last:
                    moved = tasks[last]
                    tasks[slot] = moved
                    pos[moved] = slot
                tasks.pop()
                tel = self._telemetry
                if tel is not None:
                    tel.inc("native.calls")
                return task
        v = self._pick_best(alpha, extra)
        self._pop(alpha, v)
        if self._carry:
            extra += self._d[v]
        return v

    def select(self, alpha: int, n_slots: int, time: float) -> list[int]:
        """Per-type selection (used when MQB is driven queue-by-queue)."""
        assert self._d is not None
        out: list[int] = []
        extra = self._extra
        extra[:] = 0.0
        pool = self._pos[alpha]  # insertion ordered, like the old dict pool
        while pool and len(out) < n_slots:
            if len(pool) <= n_slots - len(out):
                remaining = list(pool.keys())
                for v in remaining:
                    self._pop(alpha, v)
                    if self._carry:
                        extra += self._d[v]
                out.extend(remaining)
                break
            out.append(self._commit_pick(alpha, extra))
        return out

    def assign(self, free: list[int], time: float) -> list[int]:
        """Interleaved round: one pick per type per pass until saturated.

        Cross-type interleaving matters because every committed pick
        shifts the balance that scores the next one; cycling the types
        approximates the paper's "repeats this process until all
        processors have been assigned".
        """
        assert self._d is not None
        k = self.job.num_types
        free = list(free)
        extra = self._extra
        extra[:] = 0.0
        chosen: list[int] = []
        progress = True
        while progress:
            progress = False
            for alpha in range(k):
                if free[alpha] <= 0:
                    continue
                pool = self._pos[alpha]
                if not pool:
                    continue
                if len(pool) <= free[alpha]:
                    # At most P_alpha ready alpha-tasks: run them all.
                    batch = list(pool.keys())
                    for v in batch:
                        self._pop(alpha, v)
                        if self._carry:
                            extra += self._d[v]
                    chosen.extend(batch)
                    free[alpha] -= len(batch)
                else:
                    chosen.append(self._commit_pick(alpha, extra))
                    free[alpha] -= 1
                progress = True
        return chosen
