"""Determinism and plumbing tests for the sweep runner.

The load-bearing property is exact: for any worker count and any chunk
partition, :func:`run_sweep` (and so :func:`run_comparison`) must
return *bit-for-bit* the same result as the serial loop.  Equality
below is ``==`` on floats, never ``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import parallel as parallel_mod
from repro.experiments.parallel import (
    Sweep,
    SweepRun,
    plan_chunks,
    resolve_workers,
    run_sweep,
)
from repro.experiments.runner import (
    _stats_from_ratios,
    comparison_sweep,
    run_comparison,
)
from repro.resultcache.integrate import SweepCache, open_sweep_cache
from repro.resultcache.keys import ENGINE_REV
from repro.workloads.params import EPParams, IRParams, WorkloadSpec

TINY_EP = WorkloadSpec(
    "ep", "layered", "small",
    params=EPParams(branches_range=(3, 5), chain_length_range=(8, 12)),
)
TINY_IR = WorkloadSpec(
    "ir", "random", "small",
    params=IRParams(
        iterations_range=(2, 3), maps_range=(4, 8),
        reduces_range=(2, 3), fanin_range=(1, 2),
    ),
)

ALGS = ["kgreedy", "mqb", "lspan"]


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Enable the result cache, rooted in a fresh per-test directory."""
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _fingerprint(kind: str) -> dict:
    return {"kind": kind, "engine_rev": ENGINE_REV}


def _forbid_pool(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("this sweep must not build a process pool")

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", forbidden)


class TestBitIdentical:
    @pytest.mark.parametrize("spec", [TINY_EP, TINY_IR], ids=["ep", "ir"])
    @pytest.mark.parametrize("workers", [2, 8])
    def test_matches_serial_exactly(self, spec, workers):
        serial = run_comparison(spec, ALGS, 10, seed=11, n_workers=1)
        par = run_comparison(spec, ALGS, 10, seed=11, n_workers=workers)
        # SeriesStats is a frozen dataclass of floats: == is bitwise.
        assert par == serial

    def test_chunk_size_one_matches_serial(self):
        # 7 instances over 2 workers plan ceil(7 / (2 * 4)) = 1 per chunk.
        sweep = comparison_sweep(TINY_EP, ALGS, 7, seed=12)
        assert SweepRun(sweep).chunks(2) == [(i, i + 1) for i in range(7)]
        serial = run_comparison(TINY_EP, ALGS, 7, seed=12, n_workers=1)
        par = run_comparison(TINY_EP, ALGS, 7, seed=12, n_workers=2)
        assert par == serial

    def test_preemptive_matches_serial(self):
        serial = run_comparison(
            TINY_EP, ALGS, 6, seed=13, preemptive=True, n_workers=1
        )
        par = run_comparison(
            TINY_EP, ALGS, 6, seed=13, preemptive=True, n_workers=2
        )
        assert par == serial

    def test_run_comparison_delegates_on_n_workers(self):
        """run_comparison(n_workers=N>1) routes through the pool path."""
        a = run_comparison(TINY_IR, ["kgreedy"], 8, seed=14)
        b = run_comparison(TINY_IR, ["kgreedy"], 8, seed=14, n_workers=3)
        assert a == b


class TestChunkAssembly:
    """Chunks computed out of order must assemble identically."""

    def _ratios_via_chunks(self, bounds):
        sweep = comparison_sweep(TINY_EP, ALGS, 9, 21)
        run = SweepRun(sweep)
        for start, stop in bounds:
            run.land(start, sweep.chunk(start, stop, None))
        return _stats_from_ratios(ALGS, run.out, False)

    def test_interleaved_and_reversed_chunk_order(self):
        forward = plan_chunks([(0, 9)], 2)
        reference = self._ratios_via_chunks(forward)
        assert self._ratios_via_chunks(list(reversed(forward))) == reference
        interleaved = forward[::2] + forward[1::2]
        assert self._ratios_via_chunks(interleaved) == reference
        # And it all equals the serial runner.
        assert reference == run_comparison(TINY_EP, ALGS, 9, 21, n_workers=1)

    def test_chunk_bounds_cover_range_exactly(self):
        bounds = plan_chunks([(0, 10)], 3)
        assert bounds == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert plan_chunks([(0, 4)], 100) == [(0, 4)]


def _identity_block(start: int, stop: int, telemetry=None) -> np.ndarray:
    """1-row block whose entries are the instance indices themselves."""
    return np.arange(start, stop, dtype=np.float64)[None, :]


class TestChunkPlanning:
    """Chunk counts must be clamped to the remaining instances."""

    def test_never_more_chunks_than_instances(self):
        # n_instances < n_workers: the plan (and hence the pool) must
        # shrink to the work, not the worker count.
        chunks = plan_chunks([(0, 3)], 1)
        assert len(chunks) == 3
        for workers in (8, 64):
            size = max(1, -(-3 // (workers * 4)))
            assert len(plan_chunks([(0, 3)], size)) <= 3
            run = SweepRun(Sweep(None, 1, 3, _identity_block))
            assert run.chunks(workers) == [(0, 1), (1, 2), (2, 3)]

    def test_segments_chunk_independently(self):
        assert plan_chunks([(0, 2), (5, 9)], 3) == [(0, 2), (5, 8), (8, 9)]
        assert plan_chunks([], 4) == []

    def test_small_sweep_more_workers_than_instances(self):
        # Regression (ISSUE 4): n_instances < n_workers must still
        # assemble the exact serial matrix.
        out = run_sweep(Sweep(None, 1, 3, _identity_block), n_workers=8)
        assert out.tolist() == [[0.0, 1.0, 2.0]]
        stats = run_comparison(TINY_EP, ["kgreedy"], 2, seed=44, n_workers=16)
        assert stats == run_comparison(TINY_EP, ["kgreedy"], 2, seed=44, n_workers=1)

    def test_segments_restrict_computation(self, cache_dir):
        """Only the cache-miss segments are computed; hits fill the rest."""
        fingerprint = _fingerprint("identity")
        cache = open_sweep_cache(fingerprint, 1)
        for i in (0, 3, 4):
            cache.write_instance(i, np.array([-1.0]))
        computed = []

        def chunk(start, stop, telemetry):
            computed.append((start, stop))
            return _identity_block(start, stop)

        out = run_sweep(Sweep(fingerprint, 1, 6, chunk), n_workers=1)
        assert out.tolist() == [[-1.0, 1.0, 2.0, -1.0, -1.0, 5.0]]
        assert computed == [(1, 2), (2, 3), (5, 6)]

    def test_one_remaining_instance_runs_in_process(
        self, cache_dir, monkeypatch
    ):
        fingerprint = _fingerprint("identity")
        cache = open_sweep_cache(fingerprint, 1)
        for i in (0, 1, 3, 4):
            cache.write_instance(i, np.array([float(i)]))
        _forbid_pool(monkeypatch)
        out = run_sweep(Sweep(fingerprint, 1, 5, _identity_block), n_workers=4)
        assert out.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0]]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_land_persists_every_computed_block(
        self, cache_dir, monkeypatch, workers
    ):
        persisted: dict[int, list[float]] = {}
        write_chunk = SweepCache.write_chunk

        def spy(self, start, block):
            persisted[start] = block[0].tolist()
            write_chunk(self, start, block)

        monkeypatch.setattr(SweepCache, "write_chunk", spy)
        # One instance per chunk: in-process always, on the pool by
        # ceil(4 / (2 * 4)).
        run_sweep(Sweep(_fingerprint("identity"), 1, 4, _identity_block), workers)
        assert persisted == {i: [float(i)] for i in range(4)}


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(2) == 2

    def test_unset_env_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_empty_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert resolve_workers() == 1

    def test_env_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers() == 4

    def test_env_auto(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert resolve_workers() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", ["0", "-2", "two", "1.5"])
    def test_env_rejects_garbage(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ConfigurationError):
            resolve_workers()

    def test_explicit_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(0)

    def test_env_routes_run_comparison(self, monkeypatch):
        """REPRO_WORKERS alone (no argument) engages the parallel path."""
        serial = run_comparison(TINY_EP, ["kgreedy"], 6, seed=31, n_workers=1)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert run_comparison(TINY_EP, ["kgreedy"], 6, seed=31) == serial


class TestValidation:
    def test_bad_instances(self):
        with pytest.raises(ConfigurationError):
            run_comparison(TINY_EP, ALGS, 0, seed=1, n_workers=2)
        with pytest.raises(ConfigurationError):
            Sweep(None, 1, 0, _identity_block)

    def test_single_instance_falls_back_to_serial(self, monkeypatch):
        serial = run_comparison(TINY_EP, ALGS, 1, seed=2, n_workers=1)
        _forbid_pool(monkeypatch)
        assert run_comparison(TINY_EP, ALGS, 1, seed=2, n_workers=4) == serial


def _failing_block(start: int, stop: int, telemetry=None) -> np.ndarray:
    """Worker that computes the first chunks, then blows up at index 6."""
    if start >= 6:
        raise RuntimeError(f"injected failure in chunk [{start}, {stop})")
    return _identity_block(start, stop)


class TestPoolShutdown:
    """A failed (or interrupted) sweep must not leak worker processes."""

    def test_worker_failure_propagates(self):
        with pytest.raises(RuntimeError, match="injected failure"):
            run_sweep(Sweep(None, 1, 12, _failing_block), n_workers=2)

    def test_worker_failure_reaps_children(self):
        import multiprocessing
        import time

        before = {p.pid for p in multiprocessing.active_children()}
        with pytest.raises(RuntimeError):
            run_sweep(Sweep(None, 1, 12, _failing_block), n_workers=2)
        # _terminate_pool joins with a timeout; give stragglers a beat.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked = {
                p.pid for p in multiprocessing.active_children()
            } - before
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked

    def test_failure_does_not_hang_on_running_chunks(self):
        """Slow in-flight chunks must not stall the failure path: the
        call returns promptly instead of waiting out the whole pool."""
        import time

        t0 = time.monotonic()
        with pytest.raises(RuntimeError):
            run_sweep(
                Sweep(None, 1, 16, _failing_block_after_slow_start),
                n_workers=4,
            )
        assert time.monotonic() - t0 < 10.0


def _failing_block_after_slow_start(
    start: int, stop: int, telemetry=None
) -> np.ndarray:
    import time

    if start == 0:
        raise RuntimeError("fail fast")
    time.sleep(0.3)
    return _identity_block(start, stop)
