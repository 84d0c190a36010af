"""Unit tests for the paired-comparison runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.capabilities import plan_run
from repro.errors import ConfigurationError
from repro.experiments import parallel as parallel_mod
from repro.experiments.runner import _instance_ratios, run_comparison
from repro.obs.telemetry import Telemetry
from repro.schedulers.registry import make_scheduler
from repro.workloads.params import EPParams, WorkloadSpec


TINY_EP = WorkloadSpec(
    "ep", "layered", "small",
    params=EPParams(branches_range=(3, 5), chain_length_range=(8, 12)),
)


class TestRunComparison:
    def test_returns_stats_in_order(self):
        stats = run_comparison(TINY_EP, ["kgreedy", "mqb"], 5, seed=1)
        assert [s.key for s in stats] == ["kgreedy", "mqb"]
        assert all(s.n == 5 for s in stats)

    def test_ratios_at_least_one(self):
        stats = run_comparison(TINY_EP, ["kgreedy"], 5, seed=2)
        assert stats[0].mean >= 1.0 - 1e-9
        assert stats[0].maximum >= stats[0].mean

    def test_reproducible(self):
        a = run_comparison(TINY_EP, ["mqb"], 4, seed=3)
        b = run_comparison(TINY_EP, ["mqb"], 4, seed=3)
        assert a[0].mean == b[0].mean
        assert a[0].maximum == b[0].maximum

    def test_seed_changes_results(self):
        a = run_comparison(TINY_EP, ["kgreedy"], 4, seed=4)
        b = run_comparison(TINY_EP, ["kgreedy"], 4, seed=5)
        assert a[0].mean != b[0].mean

    def test_preemptive_suffix(self):
        stats = run_comparison(TINY_EP, ["kgreedy"], 2, seed=6, preemptive=True)
        assert stats[0].key == "kgreedy (P)"

    def test_invalid_instances(self):
        with pytest.raises(ConfigurationError):
            run_comparison(TINY_EP, ["kgreedy"], 0, seed=7)

    def test_worker_count_validated(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="n_workers must be >= 1, got 0"):
            run_comparison(TINY_EP, ["kgreedy"], 2, seed=7, n_workers=0)
        monkeypatch.setenv("REPRO_WORKERS", "-3")
        with pytest.raises(ConfigurationError, match="REPRO_WORKERS must be >= 1, got -3"):
            run_comparison(TINY_EP, ["kgreedy"], 2, seed=7)

    def test_single_instance_has_zero_std(self):
        stats = run_comparison(TINY_EP, ["kgreedy"], 1, seed=8)
        assert stats[0].std == 0.0
        assert stats[0].stderr == 0.0

    def test_to_dict(self):
        s = run_comparison(TINY_EP, ["kgreedy"], 2, seed=9)[0]
        d = s.to_dict()
        assert set(d) == {"key", "mean", "max", "std", "stderr", "n"}


class TestPreemptiveDecentralRejected:
    """A preemptive sweep of a decentralized scheduler fails before any work."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejected_before_cache_sampling_or_pool(
        self, tmp_path, monkeypatch, workers
    ):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

        def forbidden(*args, **kwargs):
            raise AssertionError("a rejected sweep must not build a pool")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", forbidden)
        telemetry = Telemetry()
        with pytest.raises(ConfigurationError, match="preemptive"):
            run_comparison(
                TINY_EP, ["kgreedy", "dkgreedy"], 4, seed=1, preemptive=True,
                n_workers=workers, telemetry=telemetry,
            )
        # No instance sampled, no cache lookup counted or written.
        assert telemetry.counters == {}
        assert not (tmp_path / "cache").exists()


class TestSchedulerReuse:
    """Comparison chunks construct schedulers once and reuse them.

    prepare() must fully reset per-run state, so a scheduler instance
    that just finished one instance produces the same ratios as a
    freshly constructed one — bit for bit, including the stochastic
    information models (their noise comes from the per-instance rng,
    not construction-time state).
    """

    ALGS = ["kgreedy", "mqb", "lspan", "mqb+all+exp", "mqb+1step+noise"]

    def _fresh_reference(self, n):
        """Ratios with a brand-new scheduler per (instance, algorithm)."""
        ratios = np.empty((len(self.ALGS), n), dtype=np.float64)
        for i in range(n):
            schedulers = [make_scheduler(a) for a in self.ALGS]
            engines = [plan_run(s) for s in schedulers]
            _instance_ratios(TINY_EP, schedulers, engines, i, 77, ratios[:, i])
        return ratios

    def test_reused_equals_fresh_construction(self):
        n = 6
        reference = self._fresh_reference(n)
        schedulers = [make_scheduler(a) for a in self.ALGS]  # reused across i
        engines = [plan_run(s) for s in schedulers]
        reused = np.empty_like(reference)
        for i in range(n):
            _instance_ratios(TINY_EP, schedulers, engines, i, 77, reused[:, i])
        np.testing.assert_array_equal(reused, reference)

    def test_run_comparison_matches_fresh_reference(self):
        n = 6
        reference = self._fresh_reference(n)
        stats = run_comparison(TINY_EP, self.ALGS, n, seed=77)
        for a, s in enumerate(stats):
            assert s.mean == float(reference[a].mean())
            assert s.maximum == float(reference[a].max())
