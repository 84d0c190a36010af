"""Energy Pareto experiment: registration, sharding, cache, rejection.

Same contract family as the decentral sweep tests: bit-identical for
every worker count, answerable from the result cache on a warm repeat,
invalidated by any power-model flip — plus the refusal of
decentralized schedulers and of engine selection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.energy.models import power_config
from repro.errors import ConfigurationError
from repro.experiments.energy import (
    ENERGY_METRICS,
    ENERGY_POWER_SWEEP,
    energy_algorithm_names,
    pareto_front,
    run_energy,
    run_energy_comparison,
)
from repro.experiments.figures import DEFAULT_INSTANCES, EXPERIMENTS
from repro.obs.telemetry import Telemetry
from repro.schedulers.registry import PAPER_ALGORITHMS
from repro.workloads.generator import WORKLOAD_CELLS

SEED = 654
SPEC = WORKLOAD_CELLS["small-layered-ep"]
ALGS = ("kgreedy", "mqb", "emqb[w=1]", "kgreedy-consolidate[r=0.5]")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Enable the result cache, rooted in a fresh per-test directory."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    return root


def _power(name: str = "hetero"):
    return power_config(name, SPEC.num_types)


class TestRegistration:
    def test_registered_with_default_budget(self):
        assert EXPERIMENTS["energy"] is run_energy
        assert DEFAULT_INSTANCES["energy"] == 12

    def test_sweep_covers_enough_power_configs(self):
        assert len(ENERGY_POWER_SWEEP) >= 3

    def test_algorithm_list_is_paper_plus_variants(self):
        names = energy_algorithm_names("hetero")
        assert names[: len(PAPER_ALGORITHMS)] == PAPER_ALGORITHMS
        extras = names[len(PAPER_ALGORITHMS):]
        assert len(extras) >= 2
        assert any(n.startswith("emqb") for n in extras)
        assert any(n.startswith("kgreedy-consolidate") for n in extras)


class TestParetoFront:
    def test_dominated_points_removed(self):
        points = {
            "a": (1.0, 3.0),
            "b": (2.0, 2.0),
            "c": (3.0, 1.0),
            "d": (3.0, 3.0),  # dominated by b
        }
        assert pareto_front(points) == ["a", "b", "c"]

    def test_duplicates_both_survive(self):
        # Equal points do not dominate each other (<= in both but < in
        # neither), so both stay on the front.
        points = {"a": (1.0, 1.0), "b": (1.0, 1.0)}
        assert pareto_front(points) == ["a", "b"]

    def test_single_point_is_the_front(self):
        assert pareto_front({"solo": (5.0, 5.0)}) == ["solo"]


class TestComparison:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            run_energy_comparison(SPEC, _power(), 0, SEED)

    def test_rejects_decentral_algorithms(self):
        telemetry = Telemetry()
        with pytest.raises(
            ConfigurationError,
            match="dkgreedy: decentralized schedulers do not support energy accounting",
        ):
            run_energy_comparison(
                SPEC, _power(), 2, SEED,
                algorithms=("kgreedy", "dkgreedy"), telemetry=telemetry,
            )
        # Refused before any instance was sampled or simulated.
        assert telemetry.counters == {}

    def test_worker_count_invariance(self):
        serial = run_energy_comparison(
            SPEC, _power(), 4, SEED, algorithms=ALGS, n_workers=1
        )
        sharded = run_energy_comparison(
            SPEC, _power(), 4, SEED, algorithms=ALGS, n_workers=2
        )
        assert serial == sharded

    def test_stats_shape_and_sanity(self):
        stats = run_energy_comparison(
            SPEC, _power(), 3, SEED, algorithms=ALGS
        )
        assert stats["n_instances"] == 3
        for name in ALGS:
            assert set(stats[name]) == set(ENERGY_METRICS)
            assert stats[name]["ratio"] >= 1.0 - 1e-9
            assert stats[name]["energy"] >= 1.0 - 1e-9  # busy floor
            assert stats[name]["profit"] <= 1.0 + 1e-9  # total value cap

    def test_warm_repeat_is_pure_cache_hits(self, cache_dir):
        cold = run_energy_comparison(SPEC, _power(), 3, SEED, algorithms=ALGS)
        warm_t = Telemetry()
        warm = run_energy_comparison(
            SPEC, _power(), 3, SEED, algorithms=ALGS, telemetry=warm_t
        )
        assert warm == cold
        assert warm_t.counters.get("cache.hits") == 3
        assert "cache.misses" not in warm_t.counters

    def test_power_flip_misses_the_cache(self, cache_dir):
        run_energy_comparison(SPEC, _power("hetero"), 2, SEED, algorithms=ALGS)
        t = Telemetry()
        run_energy_comparison(
            SPEC, _power("idle-heavy"), 2, SEED, algorithms=ALGS, telemetry=t
        )
        assert t.counters.get("cache.misses") == 2
        assert "cache.hits" not in t.counters

    def test_profit_knob_flip_misses_the_cache(self, cache_dir):
        run_energy_comparison(SPEC, _power(), 2, SEED, algorithms=ALGS)
        t = Telemetry()
        run_energy_comparison(
            SPEC, _power(), 2, SEED, algorithms=ALGS,
            deadline_factor=2.0, telemetry=t,
        )
        assert t.counters.get("cache.misses") == 2

    def test_telemetry_counts_runs_and_gaps(self):
        t = Telemetry()
        run_energy_comparison(
            SPEC, _power("shutdown"), 2, SEED, algorithms=ALGS,
            n_workers=1, telemetry=t,
        )
        assert t.counters.get("energy.runs") == 2 * len(ALGS)
        assert t.counters.get("energy.gaps", 0) > 0


class TestRunEnergy:
    def test_rejects_unknown_cell(self):
        with pytest.raises(ConfigurationError):
            run_energy(n_instances=1, cell="no-such-cell")

    def test_rejects_empty_power_sweep(self):
        with pytest.raises(ConfigurationError):
            run_energy(n_instances=1, power_names=())

    def test_result_shape(self):
        result = run_energy(
            n_instances=2, seed=SEED, cell="small-layered-ep",
            power_names=("baseline", "shutdown"),
        )
        assert result["figure"] == "energy"
        assert result["kind"] == "table"
        n_algs = len(energy_algorithm_names("baseline"))
        assert len(result["rows"]) == 2 * n_algs
        assert set(result["fronts"]) == {"baseline", "shutdown"}
        for front in result["fronts"].values():
            assert front  # never empty: some point is non-dominated
        starred = [r for r in result["rows"] if r[-1] == "*"]
        assert len(starred) == sum(len(f) for f in result["fronts"].values())
        assert result["config"]["power_configs"] == ["baseline", "shutdown"]
        np.testing.assert_allclose(
            [r[3] for r in result["rows"]],
            np.maximum([r[3] for r in result["rows"]], 1.0),
        )
