"""Estimators shared by every workload: percentiles, medians, rates, digests.

Pure functions over plain lists, so the benchmark's own tests can pin
their behaviour without starting the system.
"""

from __future__ import annotations

import hashlib
import json
import math

#: A percentile above the median needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, p):
    """The ``p``-th percentile (0-100) by linear interpolation, or ``None``.

    ``None`` ("missing") for an empty sample, and for a tail percentile
    (``p > 50``) with fewer than :data:`MIN_TAIL_SAMPLES` samples beyond
    it: such a tail would be an interpolation between a handful of
    points, not a measurement.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None
    if p > 50 and n * (100.0 - p) / 100.0 < MIN_TAIL_SAMPLES:
        return None
    pos = (n - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    """Median of ``values`` (``None`` when empty)."""
    return percentile(values, 50)


def median_rate(units, durations):
    """Median over equal rounds of ``units / duration`` (``None`` if none)."""
    rates = [u / d for u, d in zip(units, durations) if d > 0]
    return median(rates)


def window_rates(times, start, end, window):
    """Completions per second in each full ``window`` of ``[start, end)``.

    ``times`` are completion instants; a trailing partial window is
    dropped so every rate has the same base.
    """
    n = int((end - start) // window)
    counts = [0] * n
    for t in times:
        k = int((t - start) // window)
        if 0 <= k < n:
            counts[k] += 1
    return [c / window for c in counts]


def canonical(obj) -> str:
    """Canonical JSON text (sorted keys, exact float repr)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    """Short content digest of a JSON-serializable result."""
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()[:16]
