"""Memoized offline information, keyed on K-DAG content.

Every offline scheduler's ``prepare`` starts by recomputing one of the
:mod:`repro.core.descendants` passes for its job.  A paired comparison
(:func:`repro.experiments.runner.run_comparison`) runs six-plus
algorithm variants on *the same* job, and Figure 8 runs seven MQB
variants whose stochastic information models all perturb the *same*
true descendant matrix — so without memoization the identical offline
pass runs many times per instance.  This module caches each pass per
job.

Keying: :class:`~repro.core.kdag.KDag` is immutable and hashes/compares
by content (types, work, edges — the only inputs the passes read), so

* a cache hit returns the *same* (read-only) array object every time,
* two structurally identical jobs share one entry, and
* a new or mutated job (different content) can never be served a stale
  matrix — its key simply differs.

The content hash is computed once per job and cached on the instance
(:meth:`KDag.__hash__`), so repeated lookups cost an O(n) equality
check, negligible next to the passes themselves.

Stochastic information models (MQB+Exp / MQB+Noise) draw fresh noise
on *top* of the cached true values on every ``prepare`` — only the
deterministic base passes are memoized (see
:class:`repro.schedulers.info.InformationModel`).

The cache is per process (each parallel sweep worker warms its own)
and bounded LRU; size via ``REPRO_CACHE_SIZE`` (default 128 jobs,
``0`` disables caching entirely).
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.core import descendants as _desc
from repro.core import properties as _props
from repro.core.kdag import KDag

__all__ = [
    "cached_descendant_values",
    "cached_one_step_descendant_values",
    "cached_untyped_descendant_values",
    "cached_remaining_span",
    "cached_different_child_distance",
    "cached_due_dates",
    "cached_lower_bound",
    "clear_offline_cache",
    "offline_cache_info",
]


def _cache_size() -> int | None:
    raw = os.environ.get("REPRO_CACHE_SIZE", "").strip()
    if not raw:
        return 128
    size = int(raw)
    return max(size, 0)


_CACHE_SIZE = _cache_size()


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _memoized(fn: Callable[[KDag], np.ndarray]):
    cached = lru_cache(maxsize=_CACHE_SIZE)(lambda job: _frozen(fn(job)))
    cached.__doc__ = f"Memoized :func:`repro.core.descendants.{fn.__name__}`."
    return cached


cached_descendant_values = _memoized(_desc.descendant_values)
cached_one_step_descendant_values = _memoized(_desc.one_step_descendant_values)
cached_untyped_descendant_values = _memoized(_desc.untyped_descendant_values)
cached_remaining_span = _memoized(_desc.remaining_span)
cached_different_child_distance = _memoized(_desc.different_child_distance)


@lru_cache(maxsize=_CACHE_SIZE)
def cached_due_dates(job: KDag) -> np.ndarray:
    """Memoized due dates, sharing the remaining-span entry.

    ``T_inf(J)`` is the maximum remaining span, so due dates derive
    from the cached span array without a second bottom-level sweep.
    """
    rs = cached_remaining_span(job)
    return _frozen(rs.max() - rs)


@lru_cache(maxsize=_CACHE_SIZE)
def cached_lower_bound(job: KDag, processors: tuple[int, ...]) -> float:
    """Memoized :func:`repro.core.properties.lower_bound`.

    A paired comparison computes the *same* ``L(J)`` once per
    algorithm when turning makespans into completion-time ratios;
    keying on (job content, processor counts) collapses those into
    one lookup per instance.  ``T_inf(J)`` is the maximum remaining
    span, read from that cached entry like :func:`cached_due_dates`.
    """
    t_inf = float(cached_remaining_span(job).max())
    return float(max(t_inf, _props.work_per_processor(job, processors).max()))


_ALL_CACHES = (
    cached_descendant_values,
    cached_one_step_descendant_values,
    cached_untyped_descendant_values,
    cached_remaining_span,
    cached_different_child_distance,
    cached_due_dates,
    cached_lower_bound,
)


def clear_offline_cache() -> None:
    """Drop every memoized offline-information entry (all passes)."""
    for cache in _ALL_CACHES:
        cache.cache_clear()


def offline_cache_info() -> dict[str, dict[str, int]]:
    """Hit/miss/size counters per pass, for tests and diagnostics."""
    out: dict[str, dict[str, int]] = {}
    names = (
        "descendant_values",
        "one_step_descendant_values",
        "untyped_descendant_values",
        "remaining_span",
        "different_child_distance",
        "due_dates",
        "lower_bound",
    )
    for name, cache in zip(names, _ALL_CACHES):
        info = cache.cache_info()
        out[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "currsize": info.currsize,
        }
    return out
