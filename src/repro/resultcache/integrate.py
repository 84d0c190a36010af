"""Glue between the result cache and the sweep runner.

:class:`SweepCache` binds one sweep's base fingerprint to a
:class:`~repro.resultcache.store.ResultStore` and speaks the runner's
language — instance indices and ``(n_rows, n_instances)`` matrices.
:class:`~repro.experiments.parallel.SweepRun` uses it for two of the
runner's steps:

* :meth:`fill_hits` resolves every instance up front, writes cached
  columns straight into the output matrix, and returns the *miss*
  indices.  Only those are computed (cache hits never occupy a pool
  slot); an all-hit sweep never builds a process pool at all.
* :meth:`write_chunk` persists the columns of each chunk as it lands
  in the parent — which is what makes an interrupted sweep resumable
  from its last landed chunk (its last finished instance, for a
  one-worker sweep).

Cache traffic is counted into the sweep's
:class:`~repro.obs.telemetry.Telemetry` under ``cache.hits``,
``cache.misses``, ``cache.invalidated`` (corrupt record replaced) and
``cache.writes`` — ``repro profile`` surfaces the hit rate.
"""

from __future__ import annotations

import numpy as np

from repro.obs.telemetry import Telemetry
from repro.resultcache.keys import instance_key
from repro.resultcache.store import ResultStore, open_store

__all__ = ["SweepCache", "open_sweep_cache", "segments_of"]


def segments_of(indices: list[int]) -> list[tuple[int, int]]:
    """Maximal contiguous ``(start, stop)`` runs of a sorted index list."""
    segments: list[tuple[int, int]] = []
    for i in indices:
        if segments and segments[-1][1] == i:
            segments[-1] = (segments[-1][0], i + 1)
        else:
            segments.append((i, i + 1))
    return segments


class SweepCache:
    """One sweep's view of the result store."""

    def __init__(
        self,
        store: ResultStore,
        base_fields: dict,
        n_rows: int,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.store = store
        self.base_fields = base_fields
        self.n_rows = n_rows
        self._obs = telemetry if (telemetry is not None and telemetry.enabled) else None

    def _count(self, status: str) -> None:
        if self._obs is not None:
            self._obs.inc(
                {"hit": "cache.hits", "miss": "cache.misses",
                 "invalid": "cache.invalidated"}[status]
            )

    def key_for(self, instance: int) -> str:
        return instance_key(self.base_fields, instance)

    def write_instance(self, instance: int, column: np.ndarray) -> None:
        """Persist one freshly computed instance column."""
        fields = {**self.base_fields, "instance": int(instance)}
        self.store.put(self.key_for(instance), fields, column)
        if self._obs is not None:
            self._obs.inc("cache.writes")

    def fill_hits(self, out: np.ndarray) -> list[int]:
        """Write every cached column into ``out``; return miss indices."""
        misses: list[int] = []
        for i in range(out.shape[1]):
            column, status = self.store.lookup(self.key_for(i), self.n_rows)
            self._count(status)
            if column is None:
                misses.append(i)
            else:
                out[:, i] = column
        return misses

    def write_chunk(self, start: int, block: np.ndarray) -> None:
        """Persist the columns of one completed ``(start, ...)`` chunk."""
        for j in range(block.shape[1]):
            self.write_instance(start + j, block[:, j])


def open_sweep_cache(
    base_fields: dict, n_rows: int, telemetry: Telemetry | None = None
) -> SweepCache | None:
    """A :class:`SweepCache`, or ``None`` when ``REPRO_CACHE`` disables it."""
    store = open_store()
    if store is None:
        return None
    return SweepCache(store, base_fields, n_rows, telemetry=telemetry)
