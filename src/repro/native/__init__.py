"""Native compiled backend: MQB selection, whole runs and offline passes.

``_mqbkernel.c`` holds three things, consumed through :mod:`ctypes`
(entry points in brackets):

* the hot inner loop of every MQB commit — score each ready candidate
  of one type, compare lexicographically, swap-remove the winner — for
  the scalar scheduler (:class:`repro.schedulers.mqb.MQB`) and the
  batched lockstep engine (:mod:`repro.sim.batch`)
  [``repro_mqb_pick_pop``, ``repro_mqb_pick_commit``];
* a whole non-preemptive run of :func:`repro.sim.engine.simulate`'s
  loop (:meth:`MQBKernel.run`) for schedulers with a row kind
  (:func:`repro.capabilities.row_kind`): static-priority heaps, or MQB
  rounds with the same pick inline, scoring one head per class of
  bit-identical (type, work, descendant row) ready tasks.  ``simulate``
  calls it once per run; everything else keeps the Python loop
  [``repro_list_schedule``];
* the order-free offline passes, each behind a prologue in its numpy
  function: KDag's level-order peel (:meth:`MQBKernel.topo_levels`),
  the bottom-level, top-level and different-child-distance sweeps
  (:meth:`MQBKernel.bottom_levels`, ``top_levels``,
  ``different_child_distance``) and ShiftBT's per-type EDD subproblem
  (:meth:`MQBKernel.edd_schedule`) [``repro_topo_levels``,
  ``repro_bottom_levels``, ``repro_top_levels``,
  ``repro_different_child_distance``, ``repro_edd_schedule``].

All of them return what the Python and numpy formulation returns, bit
for bit: the picks and runs perform the identical IEEE-double
arithmetic in the identical order, so winners — and therefore traces,
processor ids and decision counts — match the pure-Python path; the
offline passes are max/min reductions and strict total orders whose
result no visiting order changes (DESIGN.md, "Native offline passes").
The native and offline columns of ``tests/test_differential.py``
assert it.

Backend selection is environment-driven via ``REPRO_NATIVE``:

``auto`` (default)
    Use the kernel when a prebuilt extension or a working C compiler is
    available; fall back to Python and numpy otherwise (one warning).
``1`` / ``on``
    Same dispatch, but the fallback is considered noteworthy — the
    warning names the failure reason.
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
from typing import NamedTuple

import numpy as np

__all__ = [
    "MQBKernel",
    "NativeRun",
    "ABI_VERSION",
    "MODE_CODES",
    "mode",
    "requested",
    "forced",
    "supported",
    "load_kernel",
    "note_fallback",
    "native_status",
]

ABI_VERSION = 4
MODE_CODES = {"lex": 0, "min": 1, "sum": 2}

#: repro_list_schedule's status codes.
_RUN_OK, _RUN_NO_MEMORY, _RUN_STALLED = 0, -2, -3

#: numpy row sums are plain sequential accumulation only below this K.
_PAIRWISE_SAFE_K = 8
#: the kernel scores into fixed stack buffers of this many doubles.
_MAX_K = 1024

_SOURCE = Path(__file__).with_name("_mqbkernel.c")

_kernel: "MQBKernel | None" = None
_load_attempted = False
_load_error: str | None = None
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

        pick_commit = lib.repro_mqb_pick_commit
        pick_commit.restype = _c_ll
        # d_g, work_g, pool_task, pool_seq, pool_len, l, extra, parr,
        # rows, alphas, n, K, M, mode, carry, out_tasks
        pick_commit.argtypes = (
            _c_p, _c_p, _c_p, _c_p, _c_p, _c_p, _c_p, _c_p, _c_p, _c_p,
            _c_ll, _c_ll, _c_ll, _c_ll, _c_ll, _c_p,
        )
        self.pick_commit = pick_commit

        list_schedule = lib.repro_list_schedule
        list_schedule.restype = _c_ll
        # kind, n, K, types, work, child_ptr, child_idx, counts, keys,
        # d, mode, carry, timing, trace_task, trace_proc, trace_start,
        # trace_end, out_f, out_i
        list_schedule.argtypes = (
            _c_ll, _c_ll, _c_ll, _c_p, _c_p, _c_p, _c_p, _c_p, _c_p,
            _c_p, _c_ll, _c_ll, _c_ll, _c_p, _c_p, _c_p, _c_p, _c_p, _c_p,
        )
        self.list_schedule = list_schedule

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

    def run(
        self, kind: str, job, counts, keys=None, d=None, mode: str = "lex",
        carry: bool = True, record_trace: bool = False, timing: bool = False,
    ) -> "NativeRun":
        """One whole non-preemptive run of ``job`` in C.

        ``kind`` is ``"static"`` (``keys``: one priority per task) or
        ``"mqb"`` (``d``: the ``(n, K)`` descendant matrix, balance
        ``mode`` and ``carry``).  ``counts`` are the processor counts.
        Raises :class:`ValueError` for arrays of the wrong shape and
        :class:`OSError` for input the loop rejects or a failed
        allocation; a stall comes back as ``NativeRun.stalled``.
        """
        n, k = job.n_tasks, job.num_types
        types, child_ptr, child_idx, counts = (
            np.ascontiguousarray(a, dtype=np.int64)
            for a in (job.types, job.child_ptr, job.child_idx, counts)
        )
        work = np.ascontiguousarray(job.work, dtype=np.float64)
        static = kind == "static"
        state = np.ascontiguousarray(keys if static else d, dtype=np.float64)
        if (
            state.shape != ((n,) if static else (n, k))
            or types.shape != (n,) or work.shape != (n,)
            or child_ptr.shape != (n + 1,)
            or child_idx.shape != (int(child_ptr[-1]),)
            or counts.shape != (k,)
        ):
            raise ValueError(
                f"native {kind} run: arrays do not match n={n}, K={k}"
            )
        keys_ptr = state.ctypes.data if static else None
        d_ptr = None if static else state.ctypes.data
        out_f = np.zeros(3, dtype=np.float64)
        out_i = np.zeros(6, dtype=np.int64)
        if record_trace:
            trace = (
                np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64),
                np.empty(n, dtype=np.float64), np.empty(n, dtype=np.float64),
            )
            trace_ptrs = [a.ctypes.data for a in trace]
        else:
            trace = None
            trace_ptrs = [None] * 4
        rc = self.list_schedule(
            0 if static else 1, n, k, types.ctypes.data, work.ctypes.data,
            child_ptr.ctypes.data, child_idx.ctypes.data,
            counts.ctypes.data, keys_ptr, d_ptr, MODE_CODES[mode],
            1 if carry else 0, 1 if timing else 0, *trace_ptrs,
            out_f.ctypes.data, out_i.ctypes.data,
        )
        if rc not in (_RUN_OK, _RUN_STALLED):
            raise OSError(
                "native list-scheduling loop failed: "
                + ("allocation failed" if rc == _RUN_NO_MEMORY else "bad input")
            )
        f, i = out_f.tolist(), out_i.tolist()
        return NativeRun(
            makespan=f[0], decision_s=f[1], decisions=i[0],
            events_pushed=i[1], heap_peak=i[2], picks=i[3],
            trace=trace, stalled=None if rc == _RUN_OK else (f[2], i[4], i[5]),
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


#: The offline passes' status codes.
_PASS_BAD_INPUT, _PASS_NO_MEMORY, _PASS_NAN_KEY = -1, -2, -3


def _int64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _float64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _check_pass(rc: int, name: str) -> None:
    if rc < 0:
        raise OSError(
            f"native {name} failed: "
            + ("allocation failed" if rc == _PASS_NO_MEMORY else "bad input")
        )


class NativeRun(NamedTuple):
    """What one whole run in C reports (:meth:`MQBKernel.run`)."""

    makespan: float
    #: wall seconds inside decision rounds (0.0 unless timed)
    decision_s: float
    decisions: int
    events_pushed: int
    heap_peak: int
    #: MQB picks scored in C (take-all rounds make none)
    picks: int
    #: (task, proc, start, end) arrays in dispatch order, or None
    trace: tuple | None
    #: (time, ready, unfinished) when the run stalled, else None
    stalled: tuple | None


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


def forced() -> bool:
    """Whether ``REPRO_NATIVE`` explicitly demands the native backend."""
    return mode() == "1"


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
    (without attempting any build) when ``REPRO_NATIVE=0``.
    """
    global _kernel, _load_attempted, _load_error
    if not requested():
        return None
    if _load_attempted:
        return _kernel
    _load_attempted = True
    try:
        try:
            _kernel = _try_extension()
        except (OSError, AttributeError):
            # A stale in-place build (another ABI, a missing symbol):
            # today's source, cached or compiled, replaces it.
            _kernel = None
        if _kernel is None:
            _kernel = _build_shared_object()
    except Exception as exc:  # noqa: BLE001 - fallback must never raise
        _kernel = None
        _load_error = f"{type(exc).__name__}: {exc}"
    return _kernel


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
        "fallbacks": _fallbacks,
    }


def _reset_for_tests() -> tuple:
    """Clear memoized loader state; returns a token for :func:`_restore`."""
    global _kernel, _load_attempted, _load_error, _warned, _fallbacks
    token = (_kernel, _load_attempted, _load_error, _warned, _fallbacks)
    _kernel = None
    _load_attempted = False
    _load_error = None
    _warned = False
    _fallbacks = 0
    return token


def _restore(token: tuple) -> None:
    """Undo :func:`_reset_for_tests`."""
    global _kernel, _load_attempted, _load_error, _warned, _fallbacks
    _kernel, _load_attempted, _load_error, _warned, _fallbacks = token
