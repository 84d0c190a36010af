"""Engine microbenchmarks: simulation throughput and offline passes.

These are true performance benchmarks (multiple rounds, statistics) —
they guard the harness against regressions that would make the 5000-
instance paper-scale sweeps impractical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ResourceConfig, make_scheduler, simulate
from repro.core.cache import cached_descendant_values, clear_offline_cache
from repro.core.descendants import descendant_values, remaining_span
from repro.experiments.runner import run_comparison
from repro.workloads.generator import WORKLOAD_CELLS, sample_instance


@pytest.fixture(scope="module")
def ir_instance():
    rng = np.random.default_rng(42)
    return sample_instance(WORKLOAD_CELLS["medium-layered-ir"], rng)


@pytest.fixture(scope="module")
def ep_instance():
    rng = np.random.default_rng(42)
    return sample_instance(WORKLOAD_CELLS["small-layered-ep"], rng)


def test_engine_throughput_kgreedy_ir(benchmark, ir_instance):
    job, system = ir_instance
    benchmark(lambda: simulate(job, system, make_scheduler("kgreedy")))


def test_engine_throughput_mqb_ir(benchmark, ir_instance):
    job, system = ir_instance
    rng = np.random.default_rng(0)
    benchmark(lambda: simulate(job, system, make_scheduler("mqb"), rng=rng))


def test_engine_throughput_shiftbt_ep(benchmark, ep_instance):
    job, system = ep_instance
    benchmark(lambda: simulate(job, system, make_scheduler("shiftbt")))


def test_descendant_values_pass(benchmark, ir_instance):
    job, _ = ir_instance
    benchmark(lambda: descendant_values(job))


def test_remaining_span_pass(benchmark, ir_instance):
    job, _ = ir_instance
    benchmark(lambda: remaining_span(job))


def test_instance_sampling(benchmark):
    rng = np.random.default_rng(1)
    spec = WORKLOAD_CELLS["medium-layered-tree"]
    benchmark(lambda: sample_instance(spec, rng))


def test_descendant_values_cache_hit(benchmark, ir_instance):
    """The memoized lookup a paired comparison pays after the first run."""
    job, _ = ir_instance
    clear_offline_cache()
    cached_descendant_values(job)  # warm
    benchmark(lambda: cached_descendant_values(job))


def test_mqb_prepare_with_cache(benchmark, ir_instance):
    """Full prepare() on a warm cache: noise-free models skip the pass."""
    job, system = ir_instance
    scheduler = make_scheduler("mqb")
    clear_offline_cache()
    scheduler.prepare(job, system)  # warm the cache
    benchmark(lambda: scheduler.prepare(job, system))


def test_paired_sweep_serial(benchmark):
    """End-to-end paired comparison (the unit parallel sweeps shard)."""
    spec = WORKLOAD_CELLS["small-layered-ep"]
    benchmark.pedantic(
        lambda: run_comparison(spec, ["kgreedy", "mqb"], 4, seed=0, n_workers=1),
        rounds=3, iterations=1,
    )
