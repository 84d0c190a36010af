"""Unit tests for the multi-job stream extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro import KDag, ResourceConfig, native
from repro.core.cache import clear_offline_cache
from repro.errors import ConfigurationError, SchedulingError
from repro.experiments.stream import STREAM_LOADS, run_stream
from repro.multijob import (
    GlobalKGreedy,
    GlobalMQB,
    JobFCFS,
    JobStream,
    SmallestRemainingFirst,
    poisson_stream,
    simulate_stream,
)
from repro.multijob.schedulers import STREAM_POLICIES, StreamScheduler
from repro.workloads.params import EPParams, WorkloadSpec

POLICIES = [GlobalKGreedy, JobFCFS, SmallestRemainingFirst, GlobalMQB]


def tiny_job(work=(2.0, 3.0), types=(0, 1)):
    return KDag(types=list(types), work=list(work), num_types=2)


def chain_job(works, jtype=0):
    n = len(works)
    return KDag(
        types=[jtype] * n, work=list(works),
        edges=[(i, i + 1) for i in range(n - 1)], num_types=2,
    )


class TestJobStream:
    def test_valid(self):
        s = JobStream((tiny_job(), tiny_job()), (0.0, 5.0))
        assert len(s) == 2
        assert s.num_types == 2
        assert s.total_work() == 10.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            JobStream((), ())

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            JobStream((tiny_job(),), (0.0, 1.0))

    def test_decreasing_arrivals_rejected(self):
        with pytest.raises(ConfigurationError):
            JobStream((tiny_job(), tiny_job()), (5.0, 1.0))

    def test_negative_arrival_rejected(self):
        with pytest.raises(ConfigurationError):
            JobStream((tiny_job(),), (-1.0,))

    def test_k_mismatch_rejected(self):
        other = KDag(types=[0], work=[1.0], num_types=3)
        with pytest.raises(ConfigurationError, match="share K"):
            JobStream((tiny_job(), other), (0.0, 0.0))


class TestPoissonStream:
    def test_first_arrival_zero(self, rng):
        spec = WorkloadSpec("ep", "layered", "small",
                            params=EPParams(branches_range=(2, 3),
                                            chain_length_range=(4, 8)))
        s = poisson_stream(spec, 5, 10.0, rng)
        assert s.arrivals[0] == 0.0
        assert len(s) == 5

    def test_zero_interarrival(self, rng):
        spec = WorkloadSpec("ep", "layered", "small",
                            params=EPParams(branches_range=(2, 2),
                                            chain_length_range=(4, 4)))
        s = poisson_stream(spec, 3, 0.0, rng)
        assert all(t == 0.0 for t in s.arrivals)

    def test_invalid_args(self, rng):
        spec = WorkloadSpec("ep", "layered", "small")
        with pytest.raises(ConfigurationError):
            poisson_stream(spec, 0, 1.0, rng)
        with pytest.raises(ConfigurationError):
            poisson_stream(spec, 2, -1.0, rng)


class TestEngineBasics:
    @pytest.mark.parametrize("cls", POLICIES)
    def test_single_job_stream_matches_job_structure(self, cls):
        job = chain_job([1.0, 2.0, 3.0])
        s = JobStream((job,), (0.0,))
        r = simulate_stream(s, ResourceConfig((1, 1)), cls())
        assert r.completion_times == (6.0,)
        assert r.mean_flow_time == 6.0
        assert r.makespan == 6.0

    @pytest.mark.parametrize("cls", POLICIES)
    def test_arrival_delays_start(self, cls):
        job = chain_job([2.0])
        s = JobStream((job, job), (0.0, 10.0))
        r = simulate_stream(s, ResourceConfig((1, 1)), cls())
        assert r.completion_times[0] == 2.0
        assert r.completion_times[1] == 12.0
        assert list(r.flow_times) == [2.0, 2.0]

    @pytest.mark.parametrize("cls", POLICIES)
    def test_contention_serializes(self, cls):
        job = chain_job([4.0])
        s = JobStream((job, job), (0.0, 0.0))
        r = simulate_stream(s, ResourceConfig((1, 1)), cls())
        assert r.makespan == 8.0

    def test_work_conservation_across_policies(self, rng):
        """All policies finish the stream; makespan bounded by serial."""
        spec = WorkloadSpec("ep", "layered", "small",
                            params=EPParams(branches_range=(2, 4),
                                            chain_length_range=(4, 8)))
        stream = poisson_stream(spec, 4, 5.0, np.random.default_rng(3))
        system = ResourceConfig((2, 2, 2, 2))
        serial = stream.arrivals[-1] + stream.total_work()
        for cls in POLICIES:
            r = simulate_stream(stream, system, cls())
            assert r.makespan <= serial + 1e-9
            assert np.all(r.flow_times > 0)


class TestPolicyBehaviour:
    def test_fcfs_finishes_first_job_first(self):
        # Two identical single-type jobs at t=0; FCFS runs job 0's
        # tasks strictly first.
        job = KDag(types=[0, 0], work=[2.0, 2.0], num_types=2)
        s = JobStream((job, job), (0.0, 0.0))
        r = simulate_stream(s, ResourceConfig((1, 1)), JobFCFS())
        assert r.completion_times[0] < r.completion_times[1]
        assert r.completion_times[0] == 4.0

    def test_srpt_prefers_short_job(self):
        long_job = KDag(types=[0] * 6, work=[3.0] * 6, num_types=2)
        short_job = KDag(types=[0], work=[1.0], num_types=2)
        s = JobStream((long_job, short_job), (0.0, 0.0))
        r = simulate_stream(s, ResourceConfig((1, 1)), SmallestRemainingFirst())
        assert r.completion_times[1] == 1.0  # short job first

    def test_fcfs_vs_srpt_flow_time(self):
        """SRPT's mean flow time beats FCFS when a short job queues
        behind a long one."""
        long_job = KDag(types=[0] * 8, work=[4.0] * 8, num_types=2)
        short_job = KDag(types=[0], work=[1.0], num_types=2)
        s = JobStream((long_job, short_job), (0.0, 0.0))
        system = ResourceConfig((1, 1))
        fcfs = simulate_stream(s, system, JobFCFS())
        srpt = simulate_stream(s, system, SmallestRemainingFirst())
        assert srpt.mean_flow_time < fcfs.mean_flow_time

    def test_global_mqb_balances_types(self, rng):
        spec = WorkloadSpec("ep", "layered", "small",
                            params=EPParams(branches_range=(3, 5),
                                            chain_length_range=(8, 12)))
        stream = poisson_stream(spec, 3, 2.0, np.random.default_rng(5))
        system = ResourceConfig((2, 2, 2, 2))
        r = simulate_stream(stream, system, GlobalMQB())
        kg = simulate_stream(stream, system, GlobalKGreedy())
        # MQB's stream makespan is competitive with job-blind FIFO.
        assert r.makespan <= 1.3 * kg.makespan

    def test_select_type_mismatch_detected(self):
        class Liar(GlobalKGreedy):
            name = "liar"

            def select(self, alpha, n_slots, time):
                picked = super().select(alpha, n_slots, time)
                # Claim the pick came from another pool.
                return picked

            def pending(self, alpha):
                # Report pending on the wrong type to trigger a bad pull.
                return super().pending(1 - alpha)

        job = KDag(types=[0], work=[1.0], num_types=2)
        s = JobStream((job,), (0.0,))
        with pytest.raises(SchedulingError):
            simulate_stream(s, ResourceConfig((1, 1)), Liar())


class ReferenceGlobalMQB(GlobalMQB):
    """GlobalMQB's select as it was before the pool buffers: a dict pool
    per type, every candidate scored in Python, one sort each."""

    def prepare(self, stream, resources, rng=None) -> None:
        StreamScheduler.prepare(self, stream, resources, rng)
        self._pools = [{} for _ in range(stream.num_types)]
        self._l = np.zeros(stream.num_types)
        self._parr = resources.as_array().astype(np.float64)
        self._d = {}
        self._seq = 0

    def task_ready(self, jid, task, time):
        job = self.stream.jobs[jid]
        alpha = int(job.types[task])
        self._pools[alpha][(jid, task)] = self._seq
        self._seq += 1
        self._l[alpha] += float(job.work[task])

    def pending(self, alpha):
        return len(self._pools[alpha])

    def select(self, alpha, n_slots, time):
        pool = self._pools[alpha]
        out = []
        extra = np.zeros(self.stream.num_types)
        while pool and len(out) < n_slots:
            if len(pool) <= n_slots - len(out):
                batch = list(pool.keys())
                for jid, task in batch:
                    self._pop(alpha, jid, task)
                    extra += self._d[jid][task]
                out.extend(batch)
                break
            best = None
            best_key = None
            for (jid, task), seq in pool.items():
                job = self.stream.jobs[jid]
                hypo = self._l + extra + self._d[jid][task]
                hypo[alpha] -= float(job.work[task])
                key = (tuple(-x for x in np.sort(hypo / self._parr)), seq)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (jid, task)
            jid, task = best
            self._pop(alpha, jid, task)
            extra += self._d[jid][task]
            out.append(best)
        return out

    def _pop(self, alpha, jid, task):
        del self._pools[alpha][(jid, task)]
        self._l[alpha] -= float(self.stream.jobs[jid].work[task])


@pytest.mark.parametrize("backend", ["0", "1"])
def test_global_mqb_matches_its_reference(backend, monkeypatch):
    # run_stream at both loads: the pool buffers, with picks on numpy's
    # lexsort (REPRO_NATIVE=0) or in the kernel, reproduce the
    # per-candidate Python scoring.
    assert len(STREAM_LOADS) == 2
    if backend == "1" and native.load_kernel() is None:
        pytest.skip(f"native kernel unavailable: {native.native_status()['error']}")
    for seed in (1, 4, 2018):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setitem(STREAM_POLICIES, GlobalMQB.name, ReferenceGlobalMQB)
        clear_offline_cache()
        want = run_stream(2, seed)
        monkeypatch.setenv("REPRO_NATIVE", backend)
        monkeypatch.setitem(STREAM_POLICIES, GlobalMQB.name, GlobalMQB)
        clear_offline_cache()
        assert run_stream(2, seed) == want, seed
