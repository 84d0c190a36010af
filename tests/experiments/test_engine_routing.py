"""Engine selection: ``engine=`` / ``REPRO_ENGINE`` routing of sweeps.

The batch engine must be a pure drop-in: identical SeriesStats from
``run_comparison`` for either engine value and any worker count,
selection via argument or environment variable, and — when the batch
engine owns the whole miss grid — no process pool at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import parallel as parallel_mod
from repro.experiments.runner import resolve_engine, run_comparison
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads.generator import WORKLOAD_CELLS

SPEC = WORKLOAD_CELLS["small-layered-ep"]
ALGS = ("kgreedy", "lspan", "mqb")
SEED = 424242


class TestResolveEngine:
    def test_default_is_scalar(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine() == "scalar"
        assert resolve_engine(None) == "scalar"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        assert resolve_engine() == "batch"
        monkeypatch.setenv("REPRO_ENGINE", " SCALAR ")
        assert resolve_engine() == "scalar"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        assert resolve_engine("scalar") == "scalar"

    def test_invalid_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="engine"):
            resolve_engine("gpu")
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(ConfigurationError, match="engine"):
            resolve_engine()


class TestBatchSweepIdentity:
    def test_stats_identical_to_scalar(self):
        scalar = run_comparison(SPEC, ALGS, 6, SEED)
        batch = run_comparison(SPEC, ALGS, 6, SEED, engine="batch")
        assert batch == scalar

    def test_env_var_routes_run_comparison(self, monkeypatch):
        scalar = run_comparison(SPEC, ALGS, 4, SEED)
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        tel = Telemetry()
        batch = run_comparison(SPEC, ALGS, 4, SEED, telemetry=tel)
        assert batch == scalar
        assert tel.counters["batch.instances"] > 0

    def test_fallback_algorithms_still_identical(self):
        algs = ("kgreedy", "random")
        scalar = run_comparison(SPEC, algs, 4, SEED)
        tel = Telemetry()
        batch = run_comparison(SPEC, algs, 4, SEED, engine="batch", telemetry=tel)
        assert batch == scalar
        assert tel.counters["batch.fallback"] == 4  # random's rows
        assert tel.counters["batch.instances"] == 4  # kgreedy's rows

    def test_preemptive_ignores_batch_engine(self):
        # The batch engine is non-preemptive only; preemptive sweeps
        # run scalar regardless of the requested engine.
        scalar = run_comparison(SPEC, ("kgreedy",), 2, SEED, preemptive=True)
        batch = run_comparison(
            SPEC, ("kgreedy",), 2, SEED, preemptive=True, engine="batch"
        )
        assert batch == scalar


class TestParallelPoolSkip:
    def test_batch_engine_never_builds_a_pool(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("batch sweep must not create a process pool")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", boom)
        scalar = run_comparison(SPEC, ALGS, 4, SEED)
        batch = run_comparison(SPEC, ALGS, 4, SEED, n_workers=8, engine="batch")
        assert batch == scalar

    def test_env_var_routes_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        monkeypatch.setattr(
            parallel_mod, "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("pool built")),
        )
        scalar = run_comparison(SPEC, ALGS, 4, SEED, engine="scalar")
        assert run_comparison(SPEC, ALGS, 4, SEED, n_workers=8) == scalar

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_worker_count_validated_for_either_engine(self, engine, monkeypatch):
        # The batch engine runs one worker but still rejects a bad
        # count, with the scalar engine's message.
        with pytest.raises(ConfigurationError, match="n_workers must be >= 1, got 0"):
            run_comparison(SPEC, ALGS, 2, SEED, n_workers=0, engine=engine)
        monkeypatch.setenv("REPRO_WORKERS", "-3")
        with pytest.raises(ConfigurationError, match="REPRO_WORKERS must be >= 1, got -3"):
            run_comparison(SPEC, ALGS, 2, SEED, engine=engine)


class TestTelemetryCost:
    def test_disabled_telemetry_changes_nothing(self):
        from repro import make_scheduler, simulate_batch
        from repro.workloads.generator import sample_instance

        instances = [
            sample_instance(SPEC, np.random.default_rng([5, i])) for i in range(3)
        ]
        bare = simulate_batch(instances, make_scheduler("mqb"))
        nulled = simulate_batch(
            instances, make_scheduler("mqb"), telemetry=NULL_TELEMETRY
        )
        assert [r.makespan for r in bare] == [r.makespan for r in nulled]
        # Disabled telemetry records nothing — the counters the enabled
        # path would populate must stay absent.
        assert NULL_TELEMETRY.counters == {}
