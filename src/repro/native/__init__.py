"""Native compiled backend: MQB selection, whole runs, offline passes, trees.

``_mqbkernel.c`` holds five things, consumed through :mod:`ctypes`
(entry points in brackets):

* the hot inner loop of every MQB commit — score each ready candidate
  of one type, compare lexicographically, swap-remove the winner — for
  :class:`repro.schedulers.mqb.MQB` [``repro_mqb_pick_pop``];
* a whole non-preemptive run of :func:`repro.sim.engine.simulate`'s
  loop (:meth:`MQBKernel.run`) for schedulers with a row kind
  (:func:`repro.capabilities.row_kind`): static-priority heaps, or MQB
  rounds with the same pick inline, scoring one head per class of
  bit-identical (type, work, descendant row) ready tasks.  ``simulate``
  calls it once per run; everything else keeps the Python loop
  [``repro_list_schedule``];
* a whole quantum-stepped run of
  :func:`repro.sim.preemptive.simulate_preemptive`'s loop
  (:meth:`MQBKernel.run_preemptive`) for the same schedulers, behind
  the same gate: static heaps, or MQB rounds scoring every queued task
  against its remaining work [``repro_preemptive_schedule``];
* the offline passes, each behind a prologue in its numpy function:
  KDag's level-order peel (:meth:`MQBKernel.topo_levels`), the
  bottom-level, top-level and different-child-distance sweeps
  (:meth:`MQBKernel.bottom_levels`, ``top_levels``,
  ``different_child_distance``), ShiftBT's per-type EDD subproblem
  (:meth:`MQBKernel.edd_schedule`) and the three add sweeps, MQB's
  typed, MaxDP's untyped and MQB+1Step's one-step descendant values
  (:meth:`MQBKernel.descendant_values`, ``untyped_descendant_values``,
  ``one_step_descendant_values``) [``repro_topo_levels``,
  ``repro_bottom_levels``, ``repro_top_levels``,
  ``repro_different_child_distance``, ``repro_edd_schedule``,
  ``repro_descendant_values``];
* :func:`repro.workloads.tree.generate_tree`'s LIFO expansion
  (:meth:`MQBKernel.expand_tree`), drawing through the generator's own
  bit generator [``repro_tree_expand``].

All of them return what the Python and numpy formulation returns, bit
for bit: the picks, runs and add sweeps perform the identical
IEEE-double arithmetic in the identical order, so winners — and
therefore traces, processor ids and decision counts — match the
pure-Python path; the other offline passes are max/min reductions and
strict total orders whose result no visiting order changes; the tree
expansion makes the Python loop's draws through the same bit generator
(DESIGN.md, "Native offline passes").  The add sweeps' order is
numpy's, so :func:`load_kernel` checks it against ``np.add.reduceat``
once per process and, on a mismatch, leaves those three passes on
numpy (:func:`summing_kernel`, ``native_status()["add_sweeps"]``).
The native, offline and tree columns of ``tests/test_differential.py``
assert it.

Backend selection is environment-driven via ``REPRO_NATIVE``:

``auto`` (default)
    Use the kernel when a prebuilt extension or a working C compiler is
    available; fall back to Python and numpy otherwise (one warning
    that names the failure reason).
``1`` / ``on``
    An alias of ``auto`` (:func:`mode` still reports ``"1"``).
``0`` / ``off``
    Never load or build anything; pure Python and numpy.

Three load strategies are tried in order, all memoized process-wide:

1. the setuptools-built extension ``repro.native._mqbkernel`` (importing
   it only locates the shared object; symbols are read via ctypes),
   passed over when stale (another ABI, a missing entry point),
2. a previously cached shared object under ``$XDG_CACHE_HOME/repro/native``
   keyed by a hash of the C source,
3. a lazy ``cc -O2 -fPIC -shared -DREPRO_NO_PYTHON`` build into that
   cache — so a plain source checkout works without ever running
   ``setup.py``.

Schedulers must also respect :func:`supported`: ``sum`` balance mode is
only bit-identical for K < 8, where numpy's pairwise row summation
degenerates to the same sequential left-to-right loop the kernel runs
(at K >= 8 numpy switches to unrolled multi-accumulator summation and
the two can differ in the last ulp).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

__all__ = [
    "MQBKernel",
    "NativeRun",
    "PreemptiveRun",
    "ABI_VERSION",
    "MODE_CODES",
    "mode",
    "requested",
    "supported",
    "load_kernel",
    "summing_kernel",
    "note_fallback",
    "native_status",
]

ABI_VERSION = 8
MODE_CODES = {"lex": 0, "min": 1, "sum": 2}

#: The whole-run loops' row kinds: the C row each runs as, and the
#: per-type vector it adds (``None`` for the plain rows).
_ROW_STATIC, _ROW_MQB = 0, 1
_ROWS = {
    "static": (_ROW_STATIC, None),
    "consolidate": (_ROW_STATIC, "caps"),
    "mqb": (_ROW_MQB, None),
    "emqb": (_ROW_MQB, "weights"),
}

#: The whole-run loops' status codes.
_RUN_OK, _RUN_NO_MEMORY, _RUN_STALLED = 0, -2, -3
_RUN_TRACE_FULL, _RUN_LIVELOCK = -6, -7
#: repro_preemptive_schedule's failures of the run itself, by code.
_PREEMPTIVE_FAILURES = {-4: "budget", _RUN_STALLED: "stalled", -5: "idle"}

#: numpy row sums are plain sequential accumulation only below this K.
_PAIRWISE_SAFE_K = 8
#: the kernel scores into fixed stack buffers of this many doubles.
_MAX_K = 1024

_SOURCE = Path(__file__).with_name("_mqbkernel.c")

_kernel: "MQBKernel | None" = None
_load_attempted = False
_load_error: str | None = None
#: what the load probe found the add sweeps to sum differently from
#: np.add.reduceat, or None
_add_order_error: str | None = None
_warned = False
_fallbacks = 0

_c_ll = ctypes.c_longlong
_c_p = ctypes.c_void_p


class MQBKernel:
    """ctypes binding over one loaded ``_mqbkernel`` shared object."""

    def __init__(self, lib: ctypes.CDLL, path: str, backend: str) -> None:
        self.lib = lib
        self.path = path
        #: how the library was obtained: "extension", "cached" or "compiled".
        self.backend = backend

        abi = lib.repro_native_abi
        abi.restype = _c_ll
        abi.argtypes = ()
        self.abi = int(abi())

        pick_pop = lib.repro_mqb_pick_pop
        pick_pop.restype = _c_ll
        # dpool, wpool, spool, m, K, alpha, l, extra, parr, mode, carry
        pick_pop.argtypes = (
            _c_p, _c_p, _c_p, _c_ll, _c_ll, _c_ll, _c_p, _c_p, _c_p,
            _c_ll, _c_ll,
        )
        self.pick_pop = pick_pop

        # kind, n, K, types, work, child_ptr, child_idx, counts, keys,
        # d, mode, carry, weights, caps: both whole-run loops' leading
        # arguments
        rows = (
            _c_ll, _c_ll, _c_ll, _c_p, _c_p, _c_p, _c_p, _c_p, _c_p,
            _c_p, _c_ll, _c_ll, _c_p, _c_p,
        )
        list_schedule = lib.repro_list_schedule
        list_schedule.restype = _c_ll
        # rows, n_faults, fault_time, fault_fail, fault_alpha,
        # fault_proc, checkpoint, kill_budget, up, timing, trace_cap,
        # trace_task, trace_proc, trace_start, trace_end, trace_killed,
        # out_f, out_i
        list_schedule.argtypes = rows + (
            _c_ll, _c_p, _c_p, _c_p, _c_p, _c_ll, _c_ll, _c_p, _c_ll, _c_ll,
            _c_p, _c_p, _c_p, _c_p, _c_p, _c_p, _c_p,
        )
        self.list_schedule = list_schedule

        preemptive = lib.repro_preemptive_schedule
        preemptive.restype = _c_ll
        # rows, quantum, budget, timing, trace_cap, trace_task,
        # trace_proc, trace_start, trace_end, out_f, out_i
        preemptive.argtypes = rows + (
            ctypes.c_double, _c_ll, _c_ll, _c_ll,
            _c_p, _c_p, _c_p, _c_p, _c_p, _c_p,
        )
        self.preemptive_schedule = preemptive

        topo_levels = lib.repro_topo_levels
        topo_levels.restype = _c_ll
        # n, child_ptr, child_idx, order, depth
        topo_levels.argtypes = (_c_ll, _c_p, _c_p, _c_p, _c_p)
        self._topo_levels = topo_levels

        # n, work or types, ptr, idx, order, out
        sweep_args = (_c_ll, _c_p, _c_p, _c_p, _c_p, _c_p)
        self._sweeps = {}
        for name in ("bottom_levels", "top_levels", "different_child_distance"):
            fn = getattr(lib, "repro_" + name)
            fn.restype = _c_ll
            fn.argtypes = sweep_args
            self._sweeps[name] = fn

        edd = lib.repro_edd_schedule
        edd.restype = _c_ll
        # m, tasks, n, release, due, work, n_machines, seq_out, out_lateness
        edd.argtypes = (
            _c_ll, _c_p, _c_ll, _c_p, _c_p, _c_p, _c_ll, _c_p, _c_p,
        )
        self._edd = edd

        add = lib.repro_descendant_values
        add.restype = _c_ll
        # n, K, types, work, child_ptr, child_idx, order, one_step, out
        add.argtypes = (
            _c_ll, _c_ll, _c_p, _c_p, _c_p, _c_p, _c_p, _c_ll, _c_p,
        )
        self._add = add

        tree = lib.repro_tree_expand
        tree.restype = _c_ll
        # bitgen, m, p, max_depth, max_nodes, forced_depth, cap, depth,
        # parents, frontier, state
        tree.argtypes = (
            _c_p, _c_ll, ctypes.c_double, _c_ll, _c_ll, _c_ll, _c_ll, _c_p,
            _c_p, _c_p, _c_p,
        )
        self._tree_expand = tree

    def _run_args(
        self, kind: str, mode: str, carry: bool, job, counts, keys, d, weights,
        caps,
    ) -> tuple:
        """The arrays both whole-run loops read, checked, and the leading
        arguments of either call (``kind`` through ``caps``); the arrays
        must outlive the call."""
        if kind not in _ROWS:
            raise ValueError(f"native run: unknown row kind {kind!r}")
        if mode not in MODE_CODES:
            raise ValueError(f"native run: unknown balance mode {mode!r}")
        code, vector = _ROWS[kind]
        given = {"weights": weights, "caps": caps}
        for name, value in given.items():
            if (value is not None) != (name == vector):
                raise ValueError(
                    f"native {kind} run: "
                    + (f"needs {name}" if value is None else f"takes no {name}")
                )
        n, k = job.n_tasks, job.num_types
        types, child_ptr, child_idx, counts = (
            _int64(a) for a in (job.types, job.child_ptr, job.child_idx, counts)
        )
        work = _float64(job.work)
        static = code == _ROW_STATIC
        state = _float64(keys if static else d)
        extra = None
        if vector is not None:
            extra = (_float64 if vector == "weights" else _int64)(given[vector])
        if (
            state.shape != ((n,) if static else (n, k))
            or types.shape != (n,) or work.shape != (n,)
            or child_ptr.shape != (n + 1,)
            or child_idx.shape != (int(child_ptr[-1]),)
            or counts.shape != (k,)
            or (extra is not None and extra.shape != (k,))
        ):
            raise ValueError(
                f"native {kind} run: arrays do not match n={n}, K={k}"
            )
        arrays = (types, work, child_ptr, child_idx, counts, state, extra)
        extra_ptr = None if extra is None else extra.ctypes.data
        args = (
            code, n, k, types.ctypes.data, work.ctypes.data,
            child_ptr.ctypes.data, child_idx.ctypes.data, counts.ctypes.data,
            state.ctypes.data if static else None,
            None if static else state.ctypes.data, MODE_CODES[mode],
            1 if carry else 0,
            extra_ptr if vector == "weights" else None,
            extra_ptr if vector == "caps" else None,
        )
        return arrays, args

    def run(
        self, kind: str, job, counts, keys=None, d=None, mode: str = "lex",
        carry: bool = True, weights=None, caps=None, timeline=None,
        checkpoint: bool = False, kill_budget: int = 0,
        record_trace: bool = False, timing: bool = False,
    ) -> "NativeRun":
        """One whole non-preemptive run of ``job`` in C.

        ``kind`` is a row kind: ``"static"`` (``keys``: one priority per
        task), ``"consolidate"`` (``keys`` and ``caps``: a concurrency
        cap per type), ``"mqb"`` (``d``: the ``(n, K)`` descendant
        matrix, balance ``mode`` and ``carry``) or ``"emqb"`` (``d``,
        ``mode``, ``carry`` and ``weights``: a score weight per type).
        ``counts`` are the processor counts.

        A fault run passes ``timeline``, ``(time, fail, alpha, proc)``
        arrays of :meth:`repro.faults.FaultTimeline.events` order
        (``fail`` 1 for a FAIL, 0 for a REPAIR), the recovery policy
        (``checkpoint``) and the livelock guard's ``kill_budget``; its
        trace carries killed flags.

        Raises :class:`ValueError` for an unknown ``kind`` or ``mode``
        and for arrays of the wrong shape, and :class:`OSError` for
        input the loop rejects or a failed allocation; a stall and a
        tripped livelock guard come back as ``NativeRun.stalled`` and
        ``NativeRun.livelock``.
        """
        arrays, args = self._run_args(
            kind, mode, carry, job, counts, keys, d, weights, caps
        )
        n, k = job.n_tasks, job.num_types
        out_f = np.zeros(4, dtype=np.float64)
        out_i = np.zeros(8, dtype=np.int64)
        if timeline is None:
            up, n_fail = None, 0
            faults = (-1, None, None, None, None, 0, 0, None)
        else:
            time, fail, alpha, proc = timeline
            tl = (_float64(time), _int64(fail), _int64(alpha), _int64(proc))
            if any(a.ndim != 1 or a.shape != tl[0].shape for a in tl):
                raise ValueError("native fault run: timeline arrays do not match")
            arrays += tl
            up = np.zeros(k, dtype=np.int64)
            n_fail = int(np.count_nonzero(tl[1]))
            budget = max(min(int(kill_budget), _I64_MAX), -_I64_MAX)
            faults = (
                tl[0].shape[0], *(a.ctypes.data for a in tl),
                1 if checkpoint else 0, budget, up.ctypes.data,
            )
        cap = n + n_fail
        trace, trace_ptrs = _trace_buffers(
            cap if record_trace else None, killed=timeline is not None
        )
        killed_ptr = () if timeline is not None else (None,)
        rc = self.list_schedule(
            *args, *faults, 1 if timing else 0, cap, *trace_ptrs, *killed_ptr,
            out_f.ctypes.data, out_i.ctypes.data,
        )
        if rc not in (_RUN_OK, _RUN_STALLED, _RUN_LIVELOCK):
            raise OSError(
                "native list-scheduling loop failed: "
                + ("allocation failed" if rc == _RUN_NO_MEMORY else "bad input")
            )
        f, i = out_f.tolist(), out_i.tolist()
        if trace is not None:
            trace = tuple(a[: i[1]] for a in trace)
        return NativeRun(
            makespan=f[0], decision_s=f[1], decisions=i[0],
            events_pushed=i[1], heap_peak=i[2], picks=i[3],
            trace=trace, stalled=(f[2], i[4], i[5]) if rc == _RUN_STALLED else None,
            kills=i[6], wasted_work=f[3],
            livelock=i[7] if rc == _RUN_LIVELOCK else None,
            up=None if up is None else up.tolist(),
        )

    def run_preemptive(
        self, kind: str, job, counts, quantum: float, budget: int, keys=None,
        d=None, mode: str = "lex", carry: bool = True, weights=None,
        caps=None, record_trace: bool = False, timing: bool = False,
        trace_cap: int | None = None,
    ) -> "PreemptiveRun":
        """One whole preemptive run of ``job`` in C, ``budget`` quanta at most.

        ``kind``, ``counts``, ``keys``, ``d``, ``mode``, ``carry``,
        ``weights`` and ``caps`` are :meth:`run`'s.  The trace holds
        ``trace_cap`` segments; by default it starts at each task's
        quanta plus one, which every run short of float cancellation
        fits, and doubles until the run fits.  Raises
        :class:`ValueError` for a bad ``kind``, ``mode``, array shape or
        quantum, and :class:`OSError` for input the loop rejects, a
        failed allocation or a trace past a given ``trace_cap``; an
        overrun budget or a stall comes back as
        ``PreemptiveRun.failed``.
        """
        arrays, args = self._run_args(
            kind, mode, carry, job, counts, keys, d, weights, caps
        )
        quantum = float(quantum)
        if not (quantum > 0.0 and np.isfinite(quantum)):
            raise ValueError(f"native preemptive run: bad quantum {quantum}")
        budget = max(min(int(budget), _I64_MAX), -_I64_MAX)
        grow = record_trace and trace_cap is None
        if grow:
            quanta = float(np.ceil(arrays[1] / quantum).sum()) + job.n_tasks
            trace_cap = int(quanta) if quanta < _TRACE_START else _TRACE_START
        elif not record_trace:
            trace_cap = 0
        out_f = np.zeros(3, dtype=np.float64)
        out_i = np.zeros(4, dtype=np.int64)
        while True:
            trace, trace_ptrs = _trace_buffers(trace_cap if record_trace else None)
            rc = self.preemptive_schedule(
                *args, quantum, budget, 1 if timing else 0,
                int(trace_cap), *trace_ptrs, out_f.ctypes.data, out_i.ctypes.data,
            )
            if rc != _RUN_TRACE_FULL or not grow:
                break
            trace_cap *= 2
        if rc not in _PREEMPTIVE_FAILURES and rc != _RUN_OK:
            reason = {
                _RUN_NO_MEMORY: "allocation failed",
                _RUN_TRACE_FULL: f"more than {trace_cap} trace segments",
            }.get(rc, "bad input")
            raise OSError(f"native preemptive loop failed: {reason}")
        f, i = out_f.tolist(), out_i.tolist()
        if trace is not None:
            trace = tuple(a[: i[1]] for a in trace)
        return PreemptiveRun(
            makespan=f[0], decision_s=f[1], decisions=i[0], dispatched=i[1],
            picks=i[2], trace=trace,
            failed=None if rc == _RUN_OK else (_PREEMPTIVE_FAILURES[rc], f[2], i[3]),
        )

    # -- offline passes -------------------------------------------------
    def topo_levels(self, child_ptr, child_idx) -> tuple:
        """KDag's level-order peel over a CSR child adjacency.

        Returns ``(order, depth, peeled)``: levels in ascending order,
        ids ascending within a level, each task's level, and how many
        tasks were peeled (fewer than ``n`` when the edges hold a
        cycle, and then ``order`` and ``depth`` mean nothing).
        """
        ptr, idx = _int64(child_ptr), _int64(child_idx)
        if ptr.ndim != 1 or ptr.size == 0 or idx.shape != (int(ptr[-1]),):
            raise ValueError("native peel: malformed CSR arrays")
        n = ptr.shape[0] - 1
        order = np.empty(n, dtype=np.int64)
        depth = np.empty(n, dtype=np.int64)
        peeled = self._topo_levels(
            n, ptr.ctypes.data, idx.ctypes.data, order.ctypes.data,
            depth.ctypes.data,
        )
        _check_pass(peeled, "peel")
        return order, depth, int(peeled)

    def _sweep(self, name: str, job, values, ptr, idx) -> np.ndarray:
        n = job.n_tasks
        ptr, idx, order = _int64(ptr), _int64(idx), _int64(job.topological_order)
        if (
            values.shape != (n,) or ptr.shape != (n + 1,)
            or idx.shape != (int(ptr[-1]),) or order.shape != (n,)
        ):
            raise ValueError(f"native {name}: arrays do not match n={n}")
        out = np.empty(n, dtype=np.float64)
        _check_pass(
            self._sweeps[name](
                n, values.ctypes.data, ptr.ctypes.data, idx.ctypes.data,
                order.ctypes.data, out.ctypes.data,
            ),
            name,
        )
        return out

    def bottom_levels(self, job) -> np.ndarray:
        """:func:`repro.core.properties._bottom_levels` of ``job``."""
        return self._sweep(
            "bottom_levels", job, _float64(job.work), job.child_ptr, job.child_idx
        )

    def top_levels(self, job) -> np.ndarray:
        """:func:`repro.schedulers.shiftbt.top_levels` of ``job``."""
        return self._sweep(
            "top_levels", job, _float64(job.work), job.parent_ptr, job.parent_idx
        )

    def different_child_distance(self, job) -> np.ndarray:
        """:func:`repro.core.descendants.different_child_distance` of ``job``."""
        return self._sweep(
            "different_child_distance", job, _int64(job.types), job.child_ptr,
            job.child_idx,
        )

    def edd_schedule(self, tasks, release, due, work, n_machines: int):
        """ShiftBT's EDD subproblem of ``tasks`` (ids into the other arrays).

        Returns ``(sequence, max_lateness)`` as an int64 array and a
        float, or ``None`` when a key is NaN (heapq's order then
        decides).  Raises :class:`ValueError` for arrays of the wrong
        shape and :class:`OSError` for input the pass rejects.
        """
        tasks = _int64(tasks)
        release, due, work = (_float64(a) for a in (release, due, work))
        n = release.shape[0] if release.ndim == 1 else -1
        if tasks.ndim != 1 or n < 0 or due.shape != (n,) or work.shape != (n,):
            raise ValueError("native EDD: arrays do not match")
        m = tasks.shape[0]
        seq = np.empty(m, dtype=np.int64)
        lateness = np.empty(1, dtype=np.float64)
        rc = self._edd(
            m, tasks.ctypes.data, n, release.ctypes.data, due.ctypes.data,
            work.ctypes.data, int(n_machines), seq.ctypes.data,
            lateness.ctypes.data,
        )
        if rc == _PASS_NAN_KEY:
            return None
        _check_pass(rc, "EDD")
        return seq, float(lateness[0])

    def _add_sweep(self, job, k: int, types, one_step: bool) -> np.ndarray:
        n = job.n_tasks
        work = _float64(job.work)
        ptr, idx = _int64(job.child_ptr), _int64(job.child_idx)
        order = _int64(job.topological_order)
        if types is not None:
            types = _int64(types)
        if (
            work.shape != (n,) or ptr.shape != (n + 1,)
            or idx.shape != (int(ptr[-1]),) or order.shape != (n,)
            or (types is not None and types.shape != (n,))
        ):
            raise ValueError(f"native descendant values: arrays do not match n={n}")
        out = np.empty((n, k), dtype=np.float64)
        _check_pass(
            self._add(
                n, k, None if types is None else types.ctypes.data,
                work.ctypes.data, ptr.ctypes.data, idx.ctypes.data,
                order.ctypes.data, 1 if one_step else 0, out.ctypes.data,
            ),
            "descendant values",
        )
        return out

    def descendant_values(self, job) -> np.ndarray:
        """:func:`repro.core.descendants.descendant_values` of ``job``."""
        return self._add_sweep(job, job.num_types, job.types, False)

    def untyped_descendant_values(self, job) -> np.ndarray:
        """:func:`repro.core.descendants.untyped_descendant_values` of ``job``:
        the typed pass with one type."""
        return self._add_sweep(job, 1, None, False).reshape(job.n_tasks)

    def one_step_descendant_values(self, job) -> np.ndarray:
        """:func:`repro.core.descendants.one_step_descendant_values` of ``job``."""
        return self._add_sweep(job, job.num_types, job.types, True)

    def expand_tree(
        self, bit_generator, m: int, p: float, max_depth: int,
        max_nodes: int, forced_depth: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`repro.workloads.tree.generate_tree`'s expansion loop.

        Draws as ``Generator.random()`` does, through ``bit_generator``'s
        ``next_double`` and under its lock, so the tree and the
        generator's next state are the Python loop's.  Returns
        ``(depth, parents)``: each node's depth, and node ``u``'s parent
        at ``parents[u - 1]``.  The buffers start at
        ``min(max_nodes, 8192)`` slots and double, up to ``max_nodes``,
        when the tree needs them.
        """
        if not isinstance(bit_generator, np.random.BitGenerator):
            raise ValueError("native tree expansion: not a numpy BitGenerator")
        # Bounds past int64 act as int64's extremes (no tree reaches them).
        m, max_depth, max_nodes, forced_depth = (
            max(min(int(x), _I64_MAX), -_I64_MAX)
            for x in (m, max_depth, max_nodes, forced_depth)
        )
        cap = max(1, min(max_nodes, _TREE_START))
        depth, parents, frontier = (np.zeros(cap, dtype=np.int64) for _ in range(3))
        state = np.array([1, 1], dtype=np.int64)
        with bit_generator.lock:
            bitgen = bit_generator.ctypes.bit_generator
            while True:
                rc = self._tree_expand(
                    bitgen, m, float(p), max_depth, max_nodes, forced_depth,
                    cap, depth.ctypes.data, parents.ctypes.data,
                    frontier.ctypes.data, state.ctypes.data,
                )
                if rc != _TREE_NEED_ROOM:
                    break
                cap = min(2 * cap, max_nodes)
                depth, parents, frontier = (
                    _grown(a, cap) for a in (depth, parents, frontier)
                )
        _check_pass(rc, "tree expansion")
        n = int(state[0])
        return depth[:n], parents[: n - 1]


#: The offline passes' status codes.
_PASS_BAD_INPUT, _PASS_NO_MEMORY, _PASS_NAN_KEY = -1, -2, -3
#: repro_tree_expand's "call again with larger buffers".
_TREE_NEED_ROOM = 1
#: expand_tree's first buffer size (max_nodes when smaller).
_TREE_START = 8192
#: run_preemptive's largest first trace buffer, in segments.
_TRACE_START = 1 << 22
_I64_MAX = 2**63 - 1


def _int64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _float64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _trace_buffers(cap: int | None, killed: bool = False) -> tuple:
    """``(task, proc, start, end)`` arrays of ``cap`` slots, plus a
    ``killed`` one when asked for, and their addresses; or ``None`` and
    null pointers."""
    width = 5 if killed else 4
    if cap is None:
        return None, [None] * width
    trace = (
        np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64),
        np.empty(cap, dtype=np.float64), np.empty(cap, dtype=np.float64),
    )
    if killed:
        trace += (np.empty(cap, dtype=bool),)
    return trace, [a.ctypes.data for a in trace]


def _grown(a: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size, dtype=a.dtype)
    out[: a.shape[0]] = a
    return out


def _check_pass(rc: int, name: str) -> None:
    if rc < 0:
        raise OSError(
            f"native {name} failed: "
            + ("allocation failed" if rc == _PASS_NO_MEMORY else "bad input")
        )


class PreemptiveRun(NamedTuple):
    """What one whole preemptive run in C reports
    (:meth:`MQBKernel.run_preemptive`)."""

    makespan: float
    #: wall seconds inside decision rounds (0.0 unless timed)
    decision_s: float
    decisions: int
    #: trace segments, one per task per quantum it ran in
    dispatched: int
    #: MQB picks scored in C (take-all steps make none)
    picks: int
    #: (task, proc, start, end) arrays in dispatch order, or None
    trace: tuple | None
    #: ("budget" | "stalled" | "idle", time, unfinished) when the run
    #: overran its budget, found every queue empty or chose nothing,
    #: else None
    failed: tuple | None


class NativeRun(NamedTuple):
    """What one whole run in C reports (:meth:`MQBKernel.run`).

    A run that stalled or tripped the livelock guard reports its
    decision rounds, dispatches and picks up to that point."""

    makespan: float
    #: wall seconds inside decision rounds (0.0 unless timed)
    decision_s: float
    decisions: int
    #: dispatches (a killed task's redispatch counts again)
    events_pushed: int
    heap_peak: int
    #: MQB picks scored in C (take-all rounds make none)
    picks: int
    #: (task, proc, start, end) arrays in dispatch order, plus killed
    #: flags in a fault run, or None
    trace: tuple | None
    #: (time, ready, unfinished) when the run stalled, else None
    stalled: tuple | None
    #: a fault run's kills and the work they destroyed (restart policy)
    kills: int = 0
    wasted_work: float = 0.0
    #: the task whose kill passed the livelock guard, else None
    livelock: int | None = None
    #: a fault run's up processors per type at its end, else None
    up: list | None = None


def mode() -> str:
    """Resolved ``REPRO_NATIVE`` setting: ``"auto"``, ``"1"`` or ``"0"``."""
    raw = os.environ.get("REPRO_NATIVE", "auto").strip().lower()
    if raw in ("0", "off", "false", "no", "numpy", "disable", "disabled"):
        return "0"
    if raw in ("1", "on", "true", "yes", "native", "force"):
        return "1"
    return "auto"


def requested() -> bool:
    """Whether the current environment wants the native backend at all."""
    return mode() != "0"


def supported(balance_mode: str, num_types: int) -> bool:
    """Whether the kernel is bit-identical for this mode/type-count."""
    if num_types < 1 or num_types > _MAX_K:
        return False
    if balance_mode == "sum":
        return num_types < _PAIRWISE_SAFE_K
    return balance_mode in ("lex", "min")


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(xdg) / "repro" / "native"


def _find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _source_tag(source: str) -> str:
    plat = sysconfig.get_platform().replace("-", "_").replace(".", "_")
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]
    return f"_mqbkernel-abi{ABI_VERSION}-{digest}-{plat}.so"


def _load_library(path: str, backend: str) -> MQBKernel:
    kernel = MQBKernel(ctypes.CDLL(path), path, backend)
    if kernel.abi != ABI_VERSION:
        raise OSError(
            f"native kernel ABI mismatch: built {kernel.abi}, "
            f"expected {ABI_VERSION} ({path})"
        )
    return kernel


def _try_extension() -> MQBKernel | None:
    """The setuptools-built ``repro.native._mqbkernel`` extension."""
    try:
        from repro.native import _mqbkernel  # type: ignore[attr-defined]
    except ImportError:
        return None
    path = getattr(_mqbkernel, "__file__", None)
    if not path:
        return None
    return _load_library(path, "extension")


def _build_shared_object() -> MQBKernel | None:
    """Compile the C source into the user cache and load it."""
    source = _SOURCE.read_text(encoding="utf-8")
    cache = _cache_dir()
    target = cache / _source_tag(source)
    if target.exists():
        return _load_library(str(target), "cached")
    cc = _find_compiler()
    if cc is None:
        raise OSError("no C compiler found (tried $CC, cc, gcc, clang)")
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
    os.close(fd)
    try:
        cmd = [
            cc, "-O2", "-fPIC", "-shared", "-DREPRO_NO_PYTHON",
            str(_SOURCE), "-o", tmp,
        ]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            detail = (proc.stderr or proc.stdout or "").strip()
            raise OSError(f"{cc} failed ({detail[:400]})")
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return _load_library(str(target), "compiled")


def load_kernel() -> MQBKernel | None:
    """The process-wide kernel, or ``None`` if it cannot be obtained.

    Never raises; the failure reason is kept for :func:`native_status`
    and the one-time fallback warning.  Returns ``None`` immediately
    (without attempting any build) when ``REPRO_NATIVE=0``.  A loaded
    kernel's add sweeps are checked against ``np.add.reduceat`` here,
    once (:func:`summing_kernel`).
    """
    global _kernel, _load_attempted, _load_error, _add_order_error
    if not requested():
        return None
    if _load_attempted:
        return _kernel
    _load_attempted = True
    kernel = None
    try:
        try:
            kernel = _try_extension()
        except (OSError, AttributeError):
            # A stale in-place build (another ABI, a missing symbol):
            # today's source, cached or compiled, replaces it.
            kernel = None
        if kernel is None:
            kernel = _build_shared_object()
    except Exception as exc:  # noqa: BLE001 - fallback must never raise
        kernel = None
        _load_error = f"{type(exc).__name__}: {exc}"
    if kernel is not None:
        # Probed before it is published: no caller sees the kernel
        # without the probe's verdict.
        try:
            _add_order_error = _probe_add_order(kernel)
        except Exception as exc:  # noqa: BLE001 - the probe must never raise
            _add_order_error = f"{type(exc).__name__}: {exc}"
    _kernel = kernel
    return _kernel


def summing_kernel() -> MQBKernel | None:
    """:func:`load_kernel`'s kernel when its add sweeps sum each parent's
    children as ``np.add.reduceat`` does on this host, else ``None``."""
    kernel = load_kernel()
    return kernel if _add_order_error is None else None


#: The load probe's segment lengths, in all three regimes of numpy's
#: pairwise summation: sequential below 8 terms, 8 strided accumulators
#: up to 128, a recursive split above.
_PROBE_SEGMENTS = (1, 7, 8, 9, 128, 129, 130, 300)
#: The probe's typed run: children's types cycle over this many columns.
_PROBE_K = 3


def _probe_job():
    """Parents ``0..7`` with ``_PROBE_SEGMENTS`` children each: sinks
    of in-degree 1 with non-dyadic works and cycling types."""
    lens = np.array(_PROBE_SEGMENTS, dtype=np.int64)
    parents, children = lens.shape[0], int(lens.sum())
    n = parents + children
    ptr = np.full(n + 1, children, dtype=np.int64)
    ptr[0] = 0
    np.cumsum(lens, out=ptr[1 : parents + 1])
    ids = np.arange(n, dtype=np.int64)
    return SimpleNamespace(
        n_tasks=n,
        types=np.where(ids < parents, 0, ids % _PROBE_K),
        work=(1.0 + ids % 29) / 7.0 + ids / 3.0,
        child_ptr=ptr,
        child_idx=ids[parents:],
        topological_order=ids,
        num_types=_PROBE_K,
    ), ptr[:parents]


def _probe_add_order(kernel: MQBKernel) -> str | None:
    """``None`` when the kernel's add sweeps sum the probe's segments as
    ``np.add.reduceat`` does (1-D for the untyped pass, per column of a
    2-D array for the typed ones), else what differed.

    Every child is a sink of in-degree 1, so its contribution is its
    work, or its one-hot work row, exactly, and each parent's value is
    the plain segment sum.
    """
    job, seg = _probe_job()
    parents = seg.shape[0]
    kids = job.child_idx
    onehot = np.zeros((job.n_tasks, job.num_types), dtype=np.float64)
    onehot[np.arange(job.n_tasks), job.types] = job.work
    checks = (
        ("untyped", kernel.untyped_descendant_values(job),
         np.add.reduceat(job.work[kids], seg)),
        ("typed", kernel.descendant_values(job),
         np.add.reduceat(onehot[kids], seg, axis=0)),
    )
    for name, got, want in checks:
        bits = got[:parents].view(np.int64) == want.view(np.int64)
        same = bits.reshape(parents, -1).all(axis=1)
        if not same.all():
            lengths = [n for n, ok in zip(_PROBE_SEGMENTS, same) if not ok]
            return (
                f"the {name} add sweep differs from np.add.reduceat (numpy "
                f"{np.__version__}) on segments of {lengths} terms"
            )
    return None


def note_fallback(telemetry=None) -> None:
    """Record one numpy fallback of a run that wanted the native kernel.

    Emits a single process-wide warning (first call only) and counts
    ``native.fallbacks`` on ``telemetry`` when one is attached, so
    ``repro profile`` can report how often the kernel was requested but
    unavailable.
    """
    global _warned, _fallbacks
    _fallbacks += 1
    if not _warned:
        _warned = True
        reason = _load_error or "kernel unavailable"
        warnings.warn(
            f"repro: native MQB kernel requested (REPRO_NATIVE={mode()}) "
            f"but unavailable — using the pure-numpy path ({reason})",
            RuntimeWarning,
            stacklevel=2,
        )
    if telemetry is not None and getattr(telemetry, "enabled", False):
        telemetry.inc("native.fallbacks")


def native_status() -> dict:
    """Introspection snapshot for diagnostics and tests."""
    return {
        "mode": mode(),
        "loaded": _kernel is not None,
        "backend": _kernel.backend if _kernel is not None else None,
        "path": _kernel.path if _kernel is not None else None,
        "attempted": _load_attempted,
        "error": _load_error,
        # whether the add sweeps run in C (the load probe passed)
        "add_sweeps": _kernel is not None and _add_order_error is None,
        "add_sweeps_error": _add_order_error,
        "fallbacks": _fallbacks,
    }


def _reset_for_tests() -> tuple:
    """Clear memoized loader state; returns a token for :func:`_restore`."""
    global _kernel, _load_attempted, _load_error, _add_order_error, _warned
    global _fallbacks
    token = (
        _kernel, _load_attempted, _load_error, _add_order_error, _warned,
        _fallbacks,
    )
    _kernel = None
    _load_attempted = False
    _load_error = None
    _add_order_error = None
    _warned = False
    _fallbacks = 0
    return token


def _restore(token: tuple) -> None:
    """Undo :func:`_reset_for_tests`."""
    global _kernel, _load_attempted, _load_error, _add_order_error, _warned
    global _fallbacks
    (
        _kernel, _load_attempted, _load_error, _add_order_error, _warned,
        _fallbacks,
    ) = token
