"""Decentral overhead experiment: registration, sharding, cache, shape.

The sweep must be bit-identical for every worker count (paired seeding
by instance index), answerable from the result cache on a warm repeat,
and safe with **ragged cells** — large-``P`` cells clamp to fewer
instances, so consecutive cell sweeps in one experiment see different
instance counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.decentral import (
    DECENTRAL_P_GRID,
    clamp_decentral_instances,
    decentral_spec,
    run_decentral,
    run_decentral_comparison,
)
from repro.experiments.figures import DEFAULT_INSTANCES, EXPERIMENTS
from repro.experiments.parallel import plan_chunks
from repro.obs.telemetry import Telemetry

SEED = 321


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Enable the result cache, rooted in a fresh per-test directory."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    return root


class TestRegistration:
    def test_registered_with_default_budget(self):
        assert EXPERIMENTS["decentral"] is run_decentral
        assert DEFAULT_INSTANCES["decentral"] == 8

    def test_default_grid_reaches_the_thousands(self):
        assert DECENTRAL_P_GRID[-1] >= 1024


class TestClamp:
    def test_small_cells_keep_full_budget(self):
        assert clamp_decentral_instances(8, 4) == 8
        assert clamp_decentral_instances(8, 64) == 8

    def test_large_cells_clamped_but_never_zero(self):
        assert clamp_decentral_instances(8, 256) == 4
        assert clamp_decentral_instances(8, 1024) == 2
        assert clamp_decentral_instances(1, 1024) == 1


class TestRaggedChunkPlanning:
    """Regression: chunk plans for cells of differing instance counts.

    Every chunk must cover at least one instance and the plan must
    tile the segments exactly — also when a clamped cell leaves a
    single-instance segment, or segments are disjoint cache-miss
    remnants.
    """

    @pytest.mark.parametrize(
        "segments",
        [
            [(0, 8)],
            [(0, 1)],          # fully clamped cell
            [(0, 3), (5, 8)],  # cache-miss remnants
            [(2, 3), (7, 8)],  # singleton remnants
        ],
    )
    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 8])
    def test_chunks_tile_segments_exactly(self, segments, chunk_size):
        chunks = plan_chunks(segments, chunk_size)
        assert all(stop > start for start, stop in chunks)
        covered = sorted(i for s, t in chunks for i in range(s, t))
        expected = sorted(i for s, t in segments for i in range(s, t))
        assert covered == expected
        assert len(chunks) <= len(expected)


class TestComparisonCell:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            run_decentral_comparison(0, 4, SEED)
        with pytest.raises(ConfigurationError):
            run_decentral_comparison(4, 0, SEED)

    def test_worker_count_invariance(self):
        serial = run_decentral_comparison(3, 4, SEED, n_workers=1)
        sharded = run_decentral_comparison(3, 4, SEED, n_workers=2)
        assert serial == sharded

    def test_cell_shape(self):
        cell = run_decentral_comparison(3, 2, SEED)
        assert set(cell["ratio"]) == {"kgreedy", "mqb", "dkgreedy", "dmqb"}
        assert set(cell["overhead"]) == {
            "dkgreedy / kgreedy", "dmqb / mqb",
        }
        assert all(v >= 1.0 - 1e-9 for v in cell["ratio"].values())
        assert all(v > 0.0 for v in cell["overhead"].values())

    def test_warm_repeat_is_pure_cache_hits(self, cache_dir):
        cold_t = Telemetry()
        cold = run_decentral_comparison(3, 4, SEED, telemetry=cold_t)
        warm_t = Telemetry()
        warm = run_decentral_comparison(3, 4, SEED, telemetry=warm_t)
        assert warm == cold
        assert warm_t.counters.get("cache.hits") == 4
        assert "cache.misses" not in warm_t.counters

    def test_policy_change_misses_the_cache(self, cache_dir):
        from repro.decentral.policies import StealPolicy

        run_decentral_comparison(3, 2, SEED)
        t = Telemetry()
        run_decentral_comparison(
            3, 2, SEED, policy=StealPolicy(amount="half"), telemetry=t
        )
        assert t.counters.get("cache.misses") == 2
        assert "cache.hits" not in t.counters


class TestRunDecentral:
    def test_result_shape_with_ragged_cells(self):
        # A grid spanning the clamp boundary: instance counts differ
        # per cell, and each cell still computes for 2 workers.
        result = run_decentral(
            n_instances=4, seed=SEED, p_grid=(2, 3), n_workers=2
        )
        assert result["figure"] == "decentral"
        assert result["kind"] == "lines"
        names = [p["name"] for p in result["panels"]]
        assert names == ["overhead", "ratio"]
        for panel in result["panels"]:
            assert panel["x"] == [2, 3]
            assert all(len(s) == 2 for s in panel["series"].values())
        assert result["config"]["steal"] == {
            "victims": "random", "amount": "one", "cost": 0.0,
        }

    def test_clamped_instance_counts_recorded(self):
        result = run_decentral(n_instances=4, seed=SEED, p_grid=(2,))
        assert result["config"]["instances_per_p"] == {"2": 4}
        assert result["config"]["n_instances"] == 4

    def test_workload_width_tracks_p(self):
        spec = decentral_spec(64)
        assert spec.effective_params.branches_range == (128, 128)
