"""Cached ≡ fresh and instance-granular resume, for every cached sweep kind.

Every cached sweep runs through one runner
(:func:`repro.experiments.parallel.run_sweep`, or the service's
:class:`~repro.experiments.parallel.SweepRun` steps), so the same two
properties are checked here for each kind:

* **round trip** — a cold run (computes and persists) and a warm run
  (pure lookups) are both bit-identical to a cache-disabled run, for
  one and two workers; the warm run is all hits and never samples an
  instance.  Comparison caches are also read back under the other
  ``REPRO_NATIVE`` backend: fingerprints do not carry it, which is
  sound because both backends are bit-identical.
* **resume** — a one-worker sweep interrupted after ``K`` finished
  instances has persisted exactly those ``K``, so its re-run finds
  ``K`` hits and returns the uninterrupted result.
"""

from __future__ import annotations

import asyncio
import importlib

import pytest

from repro import native
from repro.energy.models import power_config
from repro.experiments.decentral import run_decentral_comparison
from repro.experiments.energy import run_energy_comparison
from repro.experiments.robustness import run_robustness_comparison
from repro.experiments.runner import run_comparison
from repro.obs.telemetry import Telemetry
from repro.service.executor import ServiceExecutor
from repro.service.protocol import SweepRequest
from repro.workloads.params import EPParams, WorkloadSpec

TINY_EP = WorkloadSpec(
    "ep", "layered", "small",
    params=EPParams(branches_range=(3, 5), chain_length_range=(8, 12)),
)
ALGS = ("kgreedy", "mqb", "lspan")
SEED = 2026
N = 8


def _comparison(preemptive=False):
    def run(n, workers, telemetry):
        return run_comparison(
            TINY_EP, ALGS, n, SEED, preemptive=preemptive,
            n_workers=workers, telemetry=telemetry,
        )
    return run


def _robustness(n, workers, telemetry):
    return run_robustness_comparison(
        TINY_EP, ("kgreedy", "mqb"), (0.0, 0.5), n, SEED,
        n_workers=workers, telemetry=telemetry,
    )


def _decentral(n, workers, telemetry):
    return run_decentral_comparison(
        3, n, SEED, n_workers=workers, telemetry=telemetry
    )


def _energy(n, workers, telemetry):
    return run_energy_comparison(
        TINY_EP, power_config("hetero", TINY_EP.num_types), n, SEED,
        algorithms=("kgreedy", "mqb", "emqb[w=0.5,power=hetero]"),
        n_workers=workers, telemetry=telemetry,
    )


def _service(n, workers, telemetry):
    """One sweep request on a fresh executor (its response cache is empty)."""
    executor = ServiceExecutor(
        n_workers=workers,
        telemetry=telemetry if telemetry is not None else Telemetry(),
    )
    request = SweepRequest(
        cell="small-layered-ep", algorithms=ALGS, n_instances=n, seed=SEED
    )
    result, source = asyncio.run(executor.execute(request))
    assert source == "fresh"
    return result


KINDS = {
    "comparison": _comparison(),
    "preemptive": _comparison(preemptive=True),
    "robustness": _robustness,
    "decentral": _decentral,
    "energy": _energy,
    "service": _service,
}
COMPARISONS = ("comparison", "preemptive")

#: (kind, workers); the service runs in thread mode (``n_workers=0``).
CASES = [
    (kind, workers)
    for kind in KINDS
    if kind != "service"
    for workers in (1, 2)
] + [("service", 0)]


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Enable the result cache, rooted in a fresh per-test directory."""
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _uncached(monkeypatch, run, *args):
    monkeypatch.setenv("REPRO_CACHE", "0")
    try:
        return run(*args)
    finally:
        monkeypatch.setenv("REPRO_CACHE", "1")


def _assert_all_hits(telemetry: Telemetry, kind: str) -> None:
    counters = telemetry.counters
    assert counters.get("cache.hits") == N
    # The executor's response cache counts its own miss in the same
    # counter family: a fresh executor always misses it once.
    assert counters.get("cache.misses", 0) == (1 if kind == "service" else 0)
    assert "cache.invalidated" not in counters
    if kind in COMPARISONS:
        assert "sweep.instances" not in counters


@pytest.mark.parametrize(
    "kind,workers", CASES, ids=[f"{k}-{w}" for k, w in CASES]
)
def test_cached_equals_fresh(kind, workers, cache_dir, monkeypatch):
    run = KINDS[kind]
    truth = _uncached(monkeypatch, run, N, workers, None)
    cold = run(N, workers, Telemetry())
    warm_t = Telemetry()
    warm = run(N, workers, warm_t)
    assert cold == truth
    assert warm == truth
    _assert_all_hits(warm_t, kind)
    if kind not in COMPARISONS:
        return

    flip = "0" if native.requested() and native.load_kernel() else "1"
    monkeypatch.setenv("REPRO_NATIVE", flip)
    native_t = Telemetry()
    assert run(N, workers, native_t) == truth
    _assert_all_hits(native_t, kind)


#: Instances a resumed sweep has finished, of ``RESUME_N``.
RESUME_K = 5
RESUME_N = 16

#: The sampling function each cached kind's chunk calls per instance.
SAMPLERS = {
    "comparison": ("repro.experiments.runner", "sample_instance"),
    "robustness": ("repro.experiments.robustness", "sample_instance"),
    "decentral": ("repro.experiments.decentral", "sample_job"),
    "energy": ("repro.experiments.energy", "sample_instance"),
}


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
def test_interrupted_one_worker_sweep_resumes_per_instance(
    kind, cache_dir, monkeypatch
):
    run = KINDS[kind]
    truth = _uncached(monkeypatch, run, RESUME_N, 1, None)

    module = importlib.import_module(SAMPLERS[kind][0])
    name = SAMPLERS[kind][1]
    sample = getattr(module, name)
    sampled = []

    def interrupted(*args, **kwargs):
        if len(sampled) == RESUME_K:
            raise KeyboardInterrupt
        sampled.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(module, name, interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(RESUME_N, 1, None)
    monkeypatch.setattr(module, name, sample)

    resumed = Telemetry()
    assert run(RESUME_N, 1, resumed) == truth
    assert resumed.counters["cache.hits"] == RESUME_K
    assert resumed.counters["cache.misses"] == RESUME_N - RESUME_K
