"""Tests for the memoized offline-information cache.

The cache must be invisible except for speed: values equal the pure
passes, hits return the shared read-only array, and a different job —
however similar — can never be served another job's matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import descendants as desc
from repro.core.cache import (
    cached_descendant_values,
    cached_different_child_distance,
    cached_due_dates,
    cached_lower_bound,
    cached_one_step_descendant_values,
    cached_remaining_span,
    cached_untyped_descendant_values,
    clear_offline_cache,
    offline_cache_info,
)
from repro.core.kdag import KDag
from repro.core.properties import lower_bound
from repro.schedulers.info import (
    ExactInformation,
    ExponentialInformation,
    NoisyInformation,
)

PAIRS = [
    (cached_descendant_values, desc.descendant_values),
    (cached_one_step_descendant_values, desc.one_step_descendant_values),
    (cached_untyped_descendant_values, desc.untyped_descendant_values),
    (cached_remaining_span, desc.remaining_span),
    (cached_different_child_distance, desc.different_child_distance),
    (cached_due_dates, desc.due_dates),
]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_offline_cache()
    yield
    clear_offline_cache()


class TestCorrectnessAndIdentity:
    @pytest.mark.parametrize("cached, pure", PAIRS, ids=lambda p: p.__name__)
    def test_equals_pure_pass(self, cached, pure, fig1_job):
        np.testing.assert_array_equal(cached(fig1_job), pure(fig1_job))

    @pytest.mark.parametrize("cached, pure", PAIRS, ids=lambda p: p.__name__)
    def test_hit_returns_same_object(self, cached, pure, diamond_job):
        first = cached(diamond_job)
        assert cached(diamond_job) is first

    @pytest.mark.parametrize("cached, pure", PAIRS, ids=lambda p: p.__name__)
    def test_result_is_read_only(self, cached, pure, diamond_job):
        arr = cached(diamond_job)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[..., 0] = 99.0

    def test_equal_content_shares_entry(self, diamond_job):
        twin = KDag(
            types=diamond_job.types.tolist(),
            work=diamond_job.work.tolist(),
            edges=[(int(u), int(v)) for u, v in diamond_job.edges],
            num_types=diamond_job.num_types,
        )
        assert twin is not diamond_job and twin == diamond_job
        assert cached_descendant_values(twin) is cached_descendant_values(
            diamond_job
        )

    def test_new_job_never_served_stale_entry(self, diamond_job):
        """A structurally different job gets its own fresh matrix."""
        baseline = cached_descendant_values(diamond_job)
        heavier = KDag(
            types=diamond_job.types.tolist(),
            work=(diamond_job.work * 2.0).tolist(),
            edges=[(int(u), int(v)) for u, v in diamond_job.edges],
            num_types=diamond_job.num_types,
        )
        fresh = cached_descendant_values(heavier)
        assert fresh is not baseline
        np.testing.assert_array_equal(fresh, desc.descendant_values(heavier))
        assert not np.array_equal(fresh, baseline)


class TestBookkeeping:
    def test_clear_and_info_counters(self, diamond_job, chain_job):
        cached_remaining_span(diamond_job)
        cached_remaining_span(diamond_job)
        cached_remaining_span(chain_job)
        info = offline_cache_info()["remaining_span"]
        assert info == {"hits": 1, "misses": 2, "currsize": 2}
        clear_offline_cache()
        info = offline_cache_info()["remaining_span"]
        assert info == {"hits": 0, "misses": 0, "currsize": 0}

    def test_due_dates_reuses_remaining_span_entry(self, fig1_job):
        cached_due_dates(fig1_job)
        assert offline_cache_info()["remaining_span"]["misses"] == 1
        # A direct remaining-span query is now a hit, not a recompute.
        cached_remaining_span(fig1_job)
        assert offline_cache_info()["remaining_span"]["hits"] >= 1

    def test_lower_bound_reuses_remaining_span_entry(self, fig1_job):
        cached_remaining_span(fig1_job)
        for procs in ((1, 1, 1), (2, 3, 1)):
            # T_inf(J) comes from the cached span entry: a hit, not a sweep.
            assert cached_lower_bound(fig1_job, procs) == lower_bound(fig1_job, procs)
        info = offline_cache_info()["remaining_span"]
        assert (info["hits"], info["misses"]) == (2, 1)


class TestStochasticModelsStayFresh:
    """Exp/Noise must redraw noise per prepare; only base values cache."""

    @pytest.mark.parametrize(
        "model_cls", [ExponentialInformation, NoisyInformation]
    )
    def test_fresh_noise_per_prepare(self, model_cls, fig1_job):
        model = model_cls()
        rng = np.random.default_rng(42)
        a = model.descendant_matrix(fig1_job, rng)
        b = model.descendant_matrix(fig1_job, rng)
        assert not np.array_equal(a, b)  # same cached base, fresh noise

    @pytest.mark.parametrize(
        "model_cls", [ExponentialInformation, NoisyInformation]
    )
    def test_same_seed_reproduces(self, model_cls, fig1_job):
        model = model_cls()
        a = model.descendant_matrix(fig1_job, np.random.default_rng(7))
        b = model.descendant_matrix(fig1_job, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_noisy_matrix_is_writable_copy(self, fig1_job):
        """Noise layering must not touch the shared cached base."""
        base = cached_descendant_values(fig1_job)
        before = base.copy()
        out = NoisyInformation().descendant_matrix(
            fig1_job, np.random.default_rng(0)
        )
        assert out is not base
        np.testing.assert_array_equal(base, before)

    def test_exact_model_returns_cached_object(self, fig1_job):
        model = ExactInformation()
        assert model.descendant_matrix(fig1_job, None) is cached_descendant_values(
            fig1_job
        )
