"""Executor dedup: in-flight joining, the LRU response cache, errors."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.obs.telemetry import Telemetry
from repro.service.executor import ServiceExecutor, run_schedule_request
from repro.service.protocol import ProtocolError, ScheduleRequest

CELL = "small-layered-ep"


def make_executor(telemetry=None, work_fns=None, cache_entries=8):
    return ServiceExecutor(
        n_workers=0,
        cache_entries=cache_entries,
        telemetry=telemetry,
        work_fns=work_fns,
    )


class TestDedup:
    def test_concurrent_identical_requests_compute_once(self):
        """Two identical in-flight requests share one computation."""
        telemetry = Telemetry()
        calls = []
        release = threading.Event()

        def slow_work(payload: dict) -> dict:
            calls.append(payload["seed"])
            assert release.wait(timeout=30.0)
            return {"seed": payload["seed"]}

        executor = make_executor(telemetry, work_fns={"schedule": slow_work})
        request = ScheduleRequest(cell=CELL, seed=3)

        async def main():
            first = asyncio.ensure_future(executor.execute(request))
            # Let the first request reach the pool before the second
            # arrives, so the second deterministically joins it.
            while executor.in_flight == 0:
                await asyncio.sleep(0.001)
            second = asyncio.ensure_future(executor.execute(request))
            await asyncio.sleep(0.01)
            release.set()
            return await asyncio.gather(first, second)

        (r1, s1), (r2, s2) = asyncio.run(main())
        assert calls == [3]  # one computation, not two
        assert r1 == r2 == {"seed": 3}
        assert (s1, s2) == ("fresh", "joined")
        counters = telemetry.snapshot().counters
        assert counters["cache.misses"] == 1
        assert counters["dedup.joined"] == 1
        assert counters.get("cache.hits", 0) == 0

    def test_warm_repeat_is_cached(self):
        telemetry = Telemetry()
        calls = []

        def work(payload: dict) -> dict:
            calls.append(payload["seed"])
            return {"seed": payload["seed"]}

        executor = make_executor(telemetry, work_fns={"schedule": work})
        request = ScheduleRequest(cell=CELL, seed=5)

        async def main():
            first = await executor.execute(request)
            second = await executor.execute(request)
            return first, second

        (r1, s1), (r2, s2) = asyncio.run(main())
        assert calls == [5]
        assert (s1, s2) == ("fresh", "cached")
        assert r1 == r2
        counters = telemetry.snapshot().counters
        assert counters["cache.hits"] == 1
        assert counters["cache.misses"] == 1
        assert counters["cache.writes"] == 1

    def test_different_fingerprints_do_not_dedup(self):
        calls = []

        def work(payload: dict) -> dict:
            calls.append(payload["seed"])
            return {"seed": payload["seed"]}

        executor = make_executor(work_fns={"schedule": work})

        async def main():
            await executor.execute(ScheduleRequest(cell=CELL, seed=1))
            await executor.execute(ScheduleRequest(cell=CELL, seed=2))

        asyncio.run(main())
        assert sorted(calls) == [1, 2]

    def test_lru_evicts_oldest(self):
        calls = []

        def work(payload: dict) -> dict:
            calls.append(payload["seed"])
            return {"seed": payload["seed"]}

        executor = make_executor(work_fns={"schedule": work}, cache_entries=2)

        async def main():
            for seed in (1, 2, 3):  # 3 evicts 1
                await executor.execute(ScheduleRequest(cell=CELL, seed=seed))
            _, source_2 = await executor.execute(ScheduleRequest(cell=CELL, seed=2))
            _, source_1 = await executor.execute(ScheduleRequest(cell=CELL, seed=1))
            return source_2, source_1

        source_2, source_1 = asyncio.run(main())
        assert source_2 == "cached"
        assert source_1 == "fresh"  # evicted, recomputed
        assert calls == [1, 2, 3, 1]


class TestErrors:
    def test_worker_failure_maps_to_internal(self):
        def broken(payload: dict) -> dict:
            raise RuntimeError("boom")

        executor = make_executor(work_fns={"schedule": broken})

        async def main():
            await executor.execute(ScheduleRequest(cell=CELL, seed=1))

        with pytest.raises(ProtocolError) as excinfo:
            asyncio.run(main())
        assert excinfo.value.code == "internal"
        assert "boom" in excinfo.value.message

    def test_preemptive_decentral_sweep_is_bad_request(self):
        from repro.service.protocol import SweepRequest

        telemetry = Telemetry()
        executor = make_executor(telemetry)
        request = SweepRequest(
            cell=CELL, algorithms=("kgreedy", "dmqb"), n_instances=3,
            preemptive=True,
        )

        async def main():
            await executor.execute(request)

        with pytest.raises(ProtocolError) as excinfo:
            asyncio.run(main())
        assert excinfo.value.code == "bad_request"
        assert "preemptive" in excinfo.value.message
        assert telemetry.counters["exec.error.sweep"] == 1

    def test_errors_are_never_cached(self):
        telemetry = Telemetry()
        attempts = []

        def flaky(payload: dict) -> dict:
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return {"ok": True}

        executor = make_executor(telemetry, work_fns={"schedule": flaky})
        request = ScheduleRequest(cell=CELL, seed=1)

        async def main():
            with pytest.raises(ProtocolError):
                await executor.execute(request)
            return await executor.execute(request)

        result, source = asyncio.run(main())
        assert result == {"ok": True}
        assert source == "fresh"  # the failure did not poison the cache
        assert len(attempts) == 2
        counters = telemetry.snapshot().counters
        assert counters["exec.error.schedule"] == 1
        assert counters["exec.ok.schedule"] == 1


class TestRealWork:
    def test_schedule_work_fn_is_deterministic(self):
        payload = ScheduleRequest(cell=CELL, scheduler="mqb", seed=9).to_payload()
        a = run_schedule_request(payload)
        b = run_schedule_request(payload)
        assert a == b
        assert a["makespan"] > 0
        assert a["ratio"] >= 1.0

    def test_power_adds_energy_fields_without_changing_the_schedule(self):
        base = run_schedule_request(
            ScheduleRequest(cell=CELL, scheduler="kgreedy", seed=9).to_payload()
        )
        powered = run_schedule_request(
            ScheduleRequest(
                cell=CELL, scheduler="kgreedy", seed=9, power="shutdown"
            ).to_payload()
        )
        assert "energy" not in base
        assert powered["makespan"] == base["makespan"]
        assert powered["decisions"] == base["decisions"]
        energy = powered["energy"]
        assert energy["power"] == "shutdown"
        assert energy["total"] >= energy["busy"] > 0
        assert energy["total"] == pytest.approx(
            energy["busy"] + energy["idle"] + energy["sleep"] + energy["wake"]
        )
        assert energy["n_gaps"] >= energy["n_shutdowns"] >= 0

    def test_power_works_preemptively(self):
        result = run_schedule_request(
            ScheduleRequest(
                cell=CELL, scheduler="mqb", seed=2, preemptive=True,
                power="baseline",
            ).to_payload()
        )
        assert result["energy"]["total"] > 0

    def test_power_with_decentral_scheduler_is_bad_request(self):
        telemetry = Telemetry()
        executor = make_executor(telemetry)
        request = ScheduleRequest(cell=CELL, scheduler="dkgreedy", power="baseline")

        with pytest.raises(ProtocolError) as excinfo:
            asyncio.run(executor.execute(request))
        assert excinfo.value.code == "bad_request"
        assert excinfo.value.message == (
            "dkgreedy: decentralized schedulers do not support energy accounting"
        )
        assert telemetry.counters["exec.error.schedule"] == 1

    def test_sweep_runs_through_shared_pool_path(self):
        """The built-in sweep path (no injected work fn) shards itself."""
        telemetry = Telemetry()
        executor = make_executor(telemetry)
        from repro.service.protocol import SweepRequest

        request = SweepRequest(
            cell=CELL, algorithms=("kgreedy", "mqb"), n_instances=3, seed=4
        )

        async def main():
            return await executor.execute(request)

        result, source = asyncio.run(main())
        assert source == "fresh"
        assert [s["key"] for s in result["series"]] == ["kgreedy", "mqb"]
        assert all(s["n"] == 3 for s in result["series"])
        assert telemetry.snapshot().counters["exec.ok.sweep"] == 1
