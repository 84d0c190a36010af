"""Unit tests for the robustness experiment."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments import parallel as parallel_mod
from repro.experiments.robustness import (
    FAILURE_RATES,
    run_robustness,
    run_robustness_comparison,
)
from repro.obs.telemetry import Telemetry
from repro.schedulers.registry import PAPER_ALGORITHMS
from repro.workloads.generator import WORKLOAD_CELLS

SPEC = WORKLOAD_CELLS["small-layered-ep"]
RATES = (0.0, 0.5)


class TestComparison:
    def test_parallel_identical_to_serial(self):
        # Acceptance: the sweep produces identical results for any
        # worker count (exact float equality, not approx).
        serial = run_robustness_comparison(
            SPEC, PAPER_ALGORITHMS, RATES, 4, 2018, n_workers=1
        )
        parallel = run_robustness_comparison(
            SPEC, PAPER_ALGORITHMS, RATES, 4, 2018, n_workers=2
        )
        assert serial == parallel

    def test_lambda_zero_inflation_is_exactly_one(self):
        out = run_robustness_comparison(
            SPEC, PAPER_ALGORITHMS, RATES, 2, 2018, n_workers=1
        )
        for name in PAPER_ALGORITHMS:
            assert out["inflation"][name][0] == 1.0
            assert out["wasted"][name][0] == 0.0
            assert out["kills"][name][0] == 0.0

    def test_failures_inflate_makespans(self):
        out = run_robustness_comparison(
            SPEC, PAPER_ALGORITHMS, RATES, 3, 2018, n_workers=1
        )
        assert any(
            out["inflation"][name][1] > 1.0 for name in PAPER_ALGORITHMS
        )
        assert all(
            out["kills"][name][1] >= 0.0 for name in PAPER_ALGORITHMS
        )

    def test_checkpoint_wastes_nothing(self):
        out = run_robustness_comparison(
            SPEC, PAPER_ALGORITHMS, RATES, 2, 2018,
            policy="checkpoint", n_workers=1,
        )
        for name in PAPER_ALGORITHMS:
            assert out["wasted"][name] == [0.0, 0.0]

    def test_fault_seed_changes_fault_runs_only(self):
        a = run_robustness_comparison(
            SPEC, ("kgreedy",), RATES, 2, 2018, fault_seed=1, n_workers=1
        )
        b = run_robustness_comparison(
            SPEC, ("kgreedy",), RATES, 2, 2018, fault_seed=2, n_workers=1
        )
        assert a["inflation"]["kgreedy"][0] == b["inflation"]["kgreedy"][0] == 1.0
        assert a["inflation"]["kgreedy"][1] != b["inflation"]["kgreedy"][1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_instances": 0},
            {"rates": (-0.5,)},
            {"rates": (float("inf"),)},
            {"mttr_factor": 0.0},
            {"horizon_factor": -1.0},
        ],
    )
    def test_bad_config(self, kwargs):
        base = dict(
            spec=SPEC, algorithms=("kgreedy",), rates=RATES,
            n_instances=2, seed=1,
        )
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            run_robustness_comparison(**base)


class TestDecentralRejected:
    """A fault sweep of a decentralized scheduler fails before any work.

    The fault engine runs the centralized loop, which would report a
    decentralized scheduler's centralized numbers under its name.
    """

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
        with pytest.raises(
            ConfigurationError,
            match="dkgreedy: decentralized schedulers do not support fault injection",
        ):
            run_robustness_comparison(
                SPEC, ("kgreedy", "dkgreedy"), RATES, 3, 1,
                n_workers=workers, telemetry=telemetry,
            )
        # No instance sampled, no cache lookup counted or written.
        assert telemetry.counters == {}
        assert not (tmp_path / "cache").exists()


class TestRunRobustness:
    @pytest.mark.slow
    def test_result_shape(self):
        result = run_robustness(n_instances=1, mtbf=4.0, fault_seed=3)
        assert result["figure"] == "robustness"
        assert result["kind"] == "lines"
        assert len(result["panels"]) == 3
        for panel in result["panels"]:
            assert panel["x"] == [0.0, 0.25]  # mtbf=4 -> single rate 1/4
            assert set(panel["series"]) == set(PAPER_ALGORITHMS)
            assert set(panel["wasted"]) == set(PAPER_ALGORITHMS)
            for means in panel["series"].values():
                assert means[0] == 1.0
        assert result["config"]["fault_seed"] == 3

    def test_default_rate_grid(self):
        assert FAILURE_RATES == (0.0, 0.25, 0.5, 1.0)

    def test_bad_mtbf(self):
        with pytest.raises(ConfigurationError, match="mtbf"):
            run_robustness(n_instances=1, mtbf=0.0)
