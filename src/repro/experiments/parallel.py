"""One cached, sharded sweep primitive.

Every experiment here is a sweep: a matrix of ``n_rows`` numbers per
instance over ``n_instances`` instances, each column a pure function
of the instance index.  A :class:`Sweep` declares what is swept and
:func:`run_sweep` runs it; the paired comparison, the robustness,
decentral, energy and stream studies and the service's ``/sweep`` are
all built on the pair.  Determinism is structural, not incidental:

* instance ``i`` derives **all** of its randomness from its index
  (``SeedSequence([seed, i])`` or similar) — nothing depends on which
  worker runs it, what ran before it in that worker, or how instances
  are chunked;
* every chunk's block is written back at its instance indices, so
  completion order cannot reorder anything;
* callers reduce the fully assembled ``(n_rows, n_instances)`` matrix
  once, by the same code for every worker count.

Hence results are **bit-for-bit identical** for every worker count and
chunk partition (asserted by ``tests/experiments/test_parallel.py``).

The runner's order is fixed:

1. **hits** — with a fingerprint and ``REPRO_CACHE`` on, the parent
   resolves every instance against :mod:`repro.resultcache` and fills
   (and counts) the hits before anything else, so hits never occupy a
   pool slot and an all-hit sweep builds no pool;
2. **misses** — in-process for one worker or one remaining instance,
   one instance per chunk; otherwise on a process pool,
   ``_CHUNKS_PER_WORKER`` chunks per worker;
3. **persistence** — each chunk's columns are stored as the chunk
   lands, so an interrupted sweep resumes from its last landed chunk
   (the last finished instance, for one worker);
4. **telemetry** — in-process chunks record into the caller's
   telemetry; pool chunks each profile under their own and the parent
   merges the snapshots in chunk order, so counter totals are the same
   for every worker count.

:class:`SweepRun` holds steps 1 and 3, which the service's sweep path
shares, awaiting the chunks on its own pool.

Worker selection: an explicit ``n_workers`` argument wins; otherwise
the ``REPRO_WORKERS`` environment variable (an integer, or ``auto``
for the CPU count); otherwise serial.  The offline-info cache
(:mod:`repro.core.cache`) is per process — each worker warms its own,
which costs one pass per (job, quantity) per worker and nothing more.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.telemetry import Telemetry
from repro.resultcache.integrate import open_sweep_cache, segments_of

__all__ = [
    "Sweep",
    "SweepRun",
    "run_sweep",
    "resolve_workers",
    "plan_chunks",
    "terminate_pool",
]

#: Chunks per worker the remaining instances are split into (smaller
#: chunks balance load across heterogeneous instance costs; larger
#: chunks amortize per-task dispatch overhead).
_CHUNKS_PER_WORKER = 4


def resolve_workers(n_workers: int | None = None) -> int:
    """Effective worker count: explicit argument, else ``REPRO_WORKERS``.

    ``REPRO_WORKERS`` accepts a positive integer or ``auto`` (the CPU
    count); unset or empty means serial (1).
    """
    if n_workers is not None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        return int(n_workers)
    raw = os.environ.get("REPRO_WORKERS", "").strip().lower()
    if not raw:
        return 1
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_WORKERS must be an integer or 'auto', got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(f"REPRO_WORKERS must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class Sweep:
    """What a sweep computes; :func:`run_sweep` decides how.

    ``chunk(start, stop, telemetry)`` returns the float64
    ``(n_rows, stop - start)`` block of instances ``start..stop-1``.
    It must derive all randomness from the instance index, record into
    ``telemetry`` (possibly ``None`` or disabled) without being
    influenced by it, and be picklable — a module-level function,
    possibly wrapped in :func:`functools.partial`.

    ``fingerprint`` is the result-cache base fingerprint
    (:mod:`repro.resultcache.keys`), or ``None`` for an uncached sweep.
    """

    fingerprint: dict | None
    n_rows: int
    n_instances: int
    chunk: Callable[[int, int, Telemetry | None], np.ndarray]

    def __post_init__(self) -> None:
        if self.n_instances < 1:
            raise ConfigurationError(
                f"n_instances must be >= 1, got {self.n_instances}"
            )


def plan_chunks(
    segments: Sequence[tuple[int, int]], chunk_size: int
) -> list[tuple[int, int]]:
    """Split instance segments into dispatchable ``(start, stop)`` chunks.

    Every chunk covers at least one instance, so the plan can never
    contain more chunks than there are remaining instances — the
    invariant that keeps a mostly-cached sweep from building a pool
    (or a chunk list) larger than its actual work.
    """
    return [
        (s, min(s + chunk_size, stop))
        for start, stop in segments
        for s in range(start, stop, chunk_size)
    ]


class SweepRun:
    """One run of a :class:`Sweep`: its matrix, cache hits and misses.

    Construction opens the result cache and fills every hit into
    :attr:`out` (counting it); :attr:`segments` are the misses.
    :meth:`chunks` plans them and :meth:`land` writes a computed block
    back and persists it.
    """

    def __init__(self, sweep: Sweep, telemetry: Telemetry | None = None) -> None:
        self.sweep = sweep
        self.out = np.empty((sweep.n_rows, sweep.n_instances), dtype=np.float64)
        self.cache = None
        if sweep.fingerprint is not None:
            self.cache = open_sweep_cache(
                sweep.fingerprint, sweep.n_rows, telemetry=telemetry
            )
        if self.cache is None:
            self.segments = [(0, sweep.n_instances)]
        else:
            self.segments = segments_of(self.cache.fill_hits(self.out))
        self.remaining = sum(stop - start for start, stop in self.segments)

    def chunks(self, slots: int | None = None) -> list[tuple[int, int]]:
        """The misses as ``(start, stop)`` chunks.

        One instance per chunk by default, so an interrupted serial
        sweep resumes from its last finished instance; for ``slots``
        pool slots, ``_CHUNKS_PER_WORKER`` chunks per slot.
        """
        if slots is None:
            return plan_chunks(self.segments, 1)
        size = max(1, -(-self.remaining // (slots * _CHUNKS_PER_WORKER)))
        return plan_chunks(self.segments, size)

    def land(self, start: int, block: np.ndarray) -> None:
        """Write a computed block back at ``start`` and persist its columns."""
        self.out[:, start : start + block.shape[1]] = block
        if self.cache is not None:
            self.cache.write_chunk(start, block)


def terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: cancel queued work, kill live workers.

    ``ProcessPoolExecutor.shutdown`` always waits for chunks that have
    already started; on the failure path that means a Ctrl-C (or one
    broken chunk) leaves the parent hanging — or, if the parent dies,
    orphaned worker processes still burning CPU.  Terminating the
    workers after ``shutdown(wait=False, cancel_futures=True)`` is the
    documented-safe way out: every chunk is idempotent (pure function
    of its instance range), so nothing is lost but in-flight work.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except (OSError, AttributeError):  # already dead / exotic impl
            pass
    for proc in list(processes.values()):
        try:
            proc.join(timeout=5.0)
        except (OSError, AssertionError):
            pass


def _pool_chunk(chunk: Callable, profile: bool, start: int, stop: int):
    """Pool worker: one chunk's block, with its telemetry snapshot if profiled."""
    if not profile:
        return chunk(start, stop, None), None
    telemetry = Telemetry()
    block = chunk(start, stop, telemetry)
    return block, telemetry.snapshot().to_dict()


def run_sweep(
    sweep: Sweep,
    n_workers: int | None = None,
    telemetry: Telemetry | None = None,
) -> np.ndarray:
    """Run ``sweep``; return its assembled ``(n_rows, n_instances)`` matrix.

    Hits first, then the misses in-process (one worker, or one
    remaining instance) or on a process pool, each chunk persisted as
    it lands — see the module docstring.  A failed or interrupted pool
    chunk cancels the queued chunks, kills the running workers and
    propagates; chunks that landed before it stay persisted.
    """
    workers = resolve_workers(n_workers)
    run = SweepRun(sweep, telemetry)
    if workers == 1 or run.remaining <= 1:
        for start, stop in run.chunks():
            run.land(start, sweep.chunk(start, stop, telemetry))
        return run.out

    bounds = run.chunks(workers)
    profile = telemetry is not None and telemetry.enabled
    snapshots: dict[int, dict | None] = {}
    pool = ProcessPoolExecutor(max_workers=min(workers, len(bounds)))
    try:
        pending = {
            pool.submit(_pool_chunk, sweep.chunk, profile, start, stop): start
            for start, stop in bounds
        }
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                start = pending.pop(future)
                block, snapshots[start] = future.result()
                run.land(start, block)
    except BaseException:
        terminate_pool(pool)
        raise
    pool.shutdown(wait=True)
    if profile:
        for start in sorted(snapshots):
            telemetry.merge_snapshot(snapshots[start])
    return run.out
