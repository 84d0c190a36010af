"""Request execution on a shared pool, with result dedup.

One :class:`ServiceExecutor` owns the daemon's compute: a single
process pool (:class:`~concurrent.futures.ProcessPoolExecutor`) shared
by every request, or — with ``n_workers=0`` — the event loop's default
thread pool, which is what the tests and the smoke path use (same
code, no fork cost; simulation results are identical either way
because the work functions are pure).

Deduplication happens at two layers, both keyed by
:func:`~repro.service.protocol.request_fingerprint`:

* **in-flight** — a second request arriving while an identical one is
  computing *joins* its task (``dedup.joined``) instead of spawning a
  duplicate computation.  Joiners await through ``asyncio.shield``, so
  one waiter hitting its deadline never cancels the shared work.
* **completed** — results land in a bounded in-memory LRU; a warm
  repeat is answered without touching the pool (``cache.hits`` /
  ``cache.misses`` / ``cache.writes`` telemetry, same counter family
  as the persistent result cache).

Sweeps additionally go through the *persistent* result cache exactly
like CLI sweeps do: a sweep request is the same
:func:`~repro.experiments.runner.comparison_sweep` that
:func:`~repro.experiments.runner.run_comparison` runs, driven through
the same :class:`~repro.experiments.parallel.SweepRun` steps — hits
first, only the misses sharded across the shared pool, each chunk
persisted as it lands.  Distinct sweep requests that overlap
instance-wise therefore still share per-instance work across requests
— and across daemon restarts.

Work functions are module-level (picklable) and take/return plain JSON
dicts, so the same functions drive process workers, thread workers and
direct unit tests.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter
from typing import Callable

import numpy as np

from repro.capabilities import plan_run
from repro.energy.metrics import energy_breakdown
from repro.energy.models import power_config
from repro.errors import ConfigurationError
from repro.experiments.parallel import SweepRun, terminate_pool
from repro.experiments.runner import _stats_from_ratios, comparison_sweep
from repro.multijob.arrival import poisson_stream
from repro.multijob.engine import simulate_stream
from repro.multijob.schedulers import make_stream_scheduler
from repro.obs.telemetry import Telemetry
from repro.schedulers.registry import make_scheduler
from repro.service.protocol import (
    ProtocolError,
    Request,
    ScheduleRequest,
    StreamRequest,
    SweepRequest,
    parse_request,
    request_fingerprint,
)
from repro.workloads.generator import sample_instance, sample_system, workload_cell

__all__ = [
    "ServiceExecutor",
    "run_schedule_request",
    "run_stream_request",
]


def run_schedule_request(payload: dict) -> dict:
    """Execute one ``schedule`` request payload; return its result dict.

    Seeding mirrors ``repro demo`` exactly (sample from
    ``default_rng(seed)``, simulate with a fresh ``default_rng(seed)``)
    so responses are bit-identical to a direct run of the engine
    :func:`~repro.capabilities.plan_run` picks — the contract
    ``tests/service/test_service_http.py`` asserts per scheduler.  A
    refused combination raises its
    :class:`~repro.errors.ConfigurationError` before sampling; the
    executor answers it with ``bad_request``.
    """
    request = parse_request(payload)
    assert isinstance(request, ScheduleRequest)
    spec = workload_cell(request.cell)
    scheduler = make_scheduler(request.scheduler)
    want_energy = request.power is not None
    engine = plan_run(
        scheduler, preemptive=request.preemptive, energy=want_energy
    )
    options = {"quantum": request.quantum} if request.preemptive else {}
    job, system = sample_instance(spec, np.random.default_rng(request.seed))
    result = engine(
        job, system, scheduler, rng=np.random.default_rng(request.seed),
        record_trace=want_energy, **options,
    )
    energy: dict | None = None
    if want_energy:
        power = power_config(request.power, system.num_types)
        bd = energy_breakdown(result.trace, system, power)
        energy = {
            "power": request.power,
            "total": bd["total"],
            "busy": bd["busy"],
            "idle": bd["idle"],
            "sleep": bd["sleep"],
            "wake": bd["wake"],
            "n_gaps": bd["n_gaps"],
            "n_shutdowns": bd["n_shutdowns"],
        }
    return {
        "cell": request.cell,
        "scheduler": result.scheduler,
        "seed": request.seed,
        "preemptive": request.preemptive,
        "n_tasks": int(job.n_tasks),
        "n_edges": int(job.n_edges),
        "counts": list(system.counts),
        "makespan": result.makespan,
        "lower_bound": result.lower_bound(),
        "ratio": result.completion_time_ratio(),
        "decisions": int(result.decisions),
        **({"energy": energy} if energy is not None else {}),
    }


def run_stream_request(payload: dict) -> dict:
    """Execute one ``stream`` request payload; return its result dict.

    Seeding: one ``default_rng(seed)`` draws the system, then the
    stream — deterministic and reproducible from the payload alone.
    """
    request = parse_request(payload)
    assert isinstance(request, StreamRequest)
    spec = workload_cell(request.cell)
    rng = np.random.default_rng(request.seed)
    system = sample_system(spec, rng)
    stream = poisson_stream(
        spec, request.n_jobs, request.mean_interarrival, rng
    )
    result = simulate_stream(stream, system, make_stream_scheduler(request.policy))
    flows = result.flow_times
    return {
        "cell": request.cell,
        "policy": result.scheduler,
        "n_jobs": request.n_jobs,
        "mean_interarrival": request.mean_interarrival,
        "seed": request.seed,
        "counts": list(system.counts),
        "makespan": result.makespan,
        "mean_flow_time": result.mean_flow_time,
        "max_flow_time": float(flows.max()),
        "total_work": result.stream.total_work(),
        "completion_times": list(result.completion_times),
    }


#: Default work functions by request kind.  ``sweep`` is absent on
#: purpose: the executor shards sweeps across the pool itself.
_WORK_FNS: dict[str, Callable[[dict], dict]] = {
    "schedule": run_schedule_request,
    "stream": run_stream_request,
}


class ServiceExecutor:
    """Shared-pool request executor with two-layer dedup (see module doc).

    ``n_workers=0`` executes on the event loop's default thread pool;
    ``n_workers >= 1`` builds one shared
    :class:`~concurrent.futures.ProcessPoolExecutor`.  ``work_fns``
    overrides the per-kind work functions (tests inject slow/fake work
    to exercise dedup and queueing deterministically).
    """

    def __init__(
        self,
        n_workers: int = 0,
        cache_entries: int = 256,
        telemetry: Telemetry | None = None,
        work_fns: dict[str, Callable[[dict], dict]] | None = None,
    ) -> None:
        if n_workers < 0:
            raise ConfigurationError(f"n_workers must be >= 0, got {n_workers}")
        if cache_entries < 0:
            raise ConfigurationError(
                f"cache_entries must be >= 0, got {cache_entries}"
            )
        self.n_workers = int(n_workers)
        self.cache_entries = int(cache_entries)
        self._telemetry = telemetry if telemetry is not None else Telemetry()
        self._work_fns = dict(_WORK_FNS)
        if work_fns:
            self._work_fns.update(work_fns)
        self._pool: ProcessPoolExecutor | None = None
        self._inflight: dict[str, asyncio.Task] = {}
        self._cache: OrderedDict[str, dict] = OrderedDict()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Build the shared pool (no-op in thread mode)."""
        if self.n_workers >= 1 and self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.n_workers)

    @property
    def in_flight(self) -> int:
        """Unique computations currently running (after dedup)."""
        return len(self._inflight)

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait for in-flight work, then shut the pool down.

        Returns ``True`` on a clean drain.  On timeout the pool is torn
        down hard (:func:`~repro.experiments.parallel.terminate_pool`)
        so shutdown can never hang behind a stuck worker.
        """
        tasks = list(self._inflight.values())
        clean = True
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=timeout)
            clean = not pending
        if self._pool is not None:
            if clean:
                self._pool.shutdown(wait=True)
            else:
                terminate_pool(self._pool)
            self._pool = None
        return clean

    def close(self) -> None:
        """Synchronous hard teardown (test/atexit convenience)."""
        if self._pool is not None:
            terminate_pool(self._pool)
            self._pool = None

    # -- the in-memory response cache -----------------------------------
    def _cache_get(self, key: str) -> dict | None:
        result = self._cache.get(key)
        if result is not None:
            self._cache.move_to_end(key)
        return result

    def _cache_put(self, key: str, result: dict) -> None:
        if self.cache_entries == 0:
            return
        self._cache[key] = result
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_entries:
            self._cache.pop(next(iter(self._cache)))
        self._telemetry.inc("cache.writes")

    # -- execution ------------------------------------------------------
    async def execute(self, request: Request) -> tuple[dict, str]:
        """Run (or dedup) one validated request; return ``(result, source)``.

        ``source`` is ``"cached"`` (warm repeat, no work), ``"joined"``
        (attached to an identical in-flight computation) or ``"fresh"``.
        An unsupported combination (:class:`ConfigurationError`)
        surfaces as :class:`ProtocolError` code ``bad_request``, any
        other worker failure as ``internal``; errors are never cached,
        so a retry recomputes.
        """
        key = request_fingerprint(request)
        cached = self._cache_get(key)
        if cached is not None:
            self._telemetry.inc("cache.hits")
            return cached, "cached"
        task = self._inflight.get(key)
        if task is not None:
            self._telemetry.inc("dedup.joined")
            return await asyncio.shield(task), "joined"
        self._telemetry.inc("cache.misses")
        task = asyncio.get_running_loop().create_task(self._compute(key, request))
        self._inflight[key] = task
        # If every waiter is cancelled (deadlines), the computation
        # still finishes and caches; consume its outcome so an orphaned
        # failure never warns "exception was never retrieved".
        task.add_done_callback(
            lambda t: t.exception() if not t.cancelled() else None
        )
        return await asyncio.shield(task), "fresh"

    async def _compute(self, key: str, request: Request) -> dict:
        t0 = perf_counter()
        try:
            if request.kind == "sweep" and "sweep" not in self._work_fns:
                assert isinstance(request, SweepRequest)
                result = await self._execute_sweep(request)
            else:
                result = await self._run_in_pool(
                    self._work_fns[request.kind], request.to_payload()
                )
        except ProtocolError:
            self._telemetry.inc(f"exec.error.{request.kind}")
            self._inflight.pop(key, None)
            raise
        except ConfigurationError as exc:
            self._telemetry.inc(f"exec.error.{request.kind}")
            self._inflight.pop(key, None)
            raise ProtocolError("bad_request", str(exc)) from exc
        except Exception as exc:
            self._telemetry.inc(f"exec.error.{request.kind}")
            self._inflight.pop(key, None)
            raise ProtocolError(
                "internal", f"{type(exc).__name__}: {exc}"
            ) from exc
        self._telemetry.inc(f"exec.ok.{request.kind}")
        self._telemetry.add_time(
            f"service.exec.{request.kind}", perf_counter() - t0
        )
        self._cache_put(key, result)
        self._inflight.pop(key, None)
        return result

    async def _run_in_pool(self, fn: Callable, *args) -> dict:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, fn, *args)

    async def _execute_sweep(self, request: SweepRequest) -> dict:
        """Run one sweep's chunks on the shared pool, through the result cache.

        The steps of :func:`~repro.experiments.parallel.run_sweep` on
        the shared pool: cache hits are filled in up front and each
        landed chunk is persisted, both off the event loop (they are
        file reads and writes); the misses are planned into
        ``_CHUNKS_PER_WORKER`` chunks per pool slot, which run wherever
        the pool has capacity.  The assembled matrix is collapsed by
        the exact serial-path code, so responses are bit-identical to
        :func:`run_comparison` for any pool size and interleaving.
        """
        algorithms = tuple(request.algorithms)
        sweep = comparison_sweep(
            workload_cell(request.cell), algorithms, request.n_instances,
            request.seed, request.preemptive, request.quantum,
        )
        loop = asyncio.get_running_loop()
        run = await loop.run_in_executor(None, SweepRun, sweep, self._telemetry)

        async def run_chunk(start: int, stop: int) -> None:
            block = await self._run_in_pool(sweep.chunk, start, stop, None)
            await loop.run_in_executor(None, run.land, start, block)

        await asyncio.gather(
            *(run_chunk(s, e) for s, e in run.chunks(max(1, self.n_workers)))
        )
        stats = _stats_from_ratios(algorithms, run.out, request.preemptive)
        return {
            "cell": request.cell,
            "algorithms": list(algorithms),
            "n_instances": request.n_instances,
            "seed": request.seed,
            "preemptive": request.preemptive,
            "series": [s.to_dict() for s in stats],
        }
