"""The host-speed probe follows the host, not the program next to it.

The compute workloads scale every round by a probe run in the program's
own process, so a change to the program must not move the probe, or
the scaling would hide part of that change.
"""

import gc
import heapq
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402
from compute import probe  # noqa: E402
from run import speed_factors  # noqa: E402

#: Objects an operation under test keeps alive, as a program holding a
#: growing heap would.
RETAINED = []


def _busy(n):
    heap = []
    for i in range(n):
        heapq.heappush(heap, (i * 7919 % 1000, i))
    while heap:
        heapq.heappop(heap)


def _light():
    _busy(20_000)


def _heavy():
    _busy(40_000)
    RETAINED.extend([i] for i in range(20_000))


def _count_collections(fn):
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(on_gc)
    try:
        fn()
    finally:
        gc.callbacks.remove(on_gc)
    return len(starts)


def test_no_collection_runs_inside_the_probe():
    live = [[i] for i in range(200_000)]  # a large heap the collector would walk
    assert gc.isenabled()
    assert _count_collections(probe) == 0
    assert gc.isenabled()
    # As many live allocations outside the probe do trigger collections.
    assert _count_collections(lambda: [(i, i) for i in range(3000)]) > 0
    del live


def test_extra_work_and_a_growing_heap_in_an_operation_show_after_scaling():
    # Each round as compute.py times it: a probe, then the operation.
    scaled = {_light: [], _heavy: []}
    raw = {_light: [], _heavy: []}
    try:
        for _ in range(12):
            for op in (_light, _heavy):
                t0 = time.perf_counter()
                probe()
                probe_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                op()
                dt = time.perf_counter() - t0
                raw[op].append(dt)
                scaled[op].append(dt * speed_factors([probe_s], 1)[0])
    finally:
        RETAINED.clear()
    raw_ratio = stats.median(raw[_heavy]) / stats.median(raw[_light])
    scaled_ratio = stats.median(scaled[_heavy]) / stats.median(scaled[_light])
    # Twice the work plus allocations: the scaled time keeps the slowdown.
    assert raw_ratio > 1.6
    assert scaled_ratio > 1.6
    assert scaled_ratio > 0.8 * raw_ratio
