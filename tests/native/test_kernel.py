"""Native MQB kernel: parity with numpy, dispatch gating, telemetry.

The heavyweight bit-identity matrix is the native column of
``tests/test_differential.py`` (CI compiles the kernel before the
suite); these tests cover the unit-level contract — direct
kernel calls against a numpy replica of ``MQB._pick_best`` + ``_pop``,
the subclass/dimension dispatch gates, and the ``native.*`` telemetry
counters — and skip cleanly on hosts where no kernel can be built.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ResourceConfig, make_scheduler, simulate
from repro import native
from repro.obs.events import EventStream
from repro.obs.telemetry import Telemetry
from repro.schedulers.mqb import MQB
from tests.conftest import make_random_job


@pytest.fixture
def kernel(monkeypatch):
    """The loaded kernel, or a skip on hosts without one."""
    monkeypatch.setenv("REPRO_NATIVE", "auto")
    k = native.load_kernel()
    if k is None:
        pytest.skip(f"native kernel unavailable: {native.native_status()['error']}")
    return k


def _numpy_pick(dpool, wpool, spool, l, extra, parr, alpha, mode):
    """Replica of MQB._pick_best's numpy formulation (returns the slot)."""
    r = dpool + (l + extra)
    r[:, alpha] -= wpool
    r = r / parr
    neg_seq = -spool
    if mode == "lex":
        rs = np.sort(r, axis=1)
        keys = (
            neg_seq,
            *(rs[:, j] for j in range(rs.shape[1] - 1, 0, -1)),
            rs[:, 0],
        )
    elif mode == "min":
        keys = (neg_seq, r.min(axis=1))
    else:
        keys = (neg_seq, r.sum(axis=1))
    return int(np.lexsort(keys)[-1])


class TestKernelParity:
    @pytest.mark.parametrize("mode", ["lex", "min", "sum"])
    def test_pick_pop_matches_numpy_fuzz(self, kernel, mode, rng):
        for trial in range(120):
            K = int(rng.integers(2, 8 if mode == "sum" else 13))
            m = int(rng.integers(1, 50))
            carry = bool(trial % 2)
            dpool = np.round(rng.uniform(0, 50, size=(m, K)), 3)
            wpool = np.round(rng.uniform(1, 9, size=m), 3)
            spool = rng.permutation(m).astype(np.int64)
            l = np.round(rng.uniform(0, 30, size=K), 3)
            extra = np.round(rng.uniform(0, 5, size=K), 3)
            parr = rng.integers(1, 9, size=K).astype(np.float64)
            alpha = int(rng.integers(0, K))
            if m > 3:  # exercise the FIFO-seq tiebreak
                dpool[1] = dpool[0]
                wpool[1] = wpool[0]

            ref = _numpy_pick(dpool, wpool, spool, l, extra, parr, alpha, mode)
            d2, w2, s2 = dpool.copy(), wpool.copy(), spool.copy()
            l2, e2 = l.copy(), extra.copy()
            slot = kernel.pick_pop(
                d2.ctypes.data, w2.ctypes.data, s2.ctypes.data, m, K, alpha,
                l2.ctypes.data, e2.ctypes.data, parr.ctypes.data,
                native.MODE_CODES[mode], int(carry),
            )
            assert slot == ref
            # Committed state: l, extra, and the swap-removed pools.
            lref = l.copy()
            lref[alpha] -= wpool[ref]
            assert np.array_equal(l2, lref)
            eref = extra + (dpool[ref] if carry else 0.0)
            assert np.array_equal(e2, eref)
            last = m - 1
            dref, wref, sref = dpool.copy(), wpool.copy(), spool.copy()
            if ref != last:
                dref[ref], wref[ref], sref[ref] = dref[last], wref[last], sref[last]
            assert np.array_equal(d2[:last], dref[:last])
            assert np.array_equal(w2[:last], wref[:last])
            assert np.array_equal(s2[:last], sref[:last])

    @pytest.mark.parametrize(
        "name", ["mqb", "mqb[min]", "mqb[sum]", "mqb[nocarry]"]
    )
    def test_simulate_parity_random_jobs(self, kernel, name, rng, monkeypatch):
        system = ResourceConfig((2, 3, 2))
        for i in range(4):
            job = make_random_job(rng, n=60, k=3)
            monkeypatch.setenv("REPRO_NATIVE", "0")
            ref = simulate(job, system, make_scheduler(name), record_trace=True)
            monkeypatch.setenv("REPRO_NATIVE", "1")
            nat = simulate(job, system, make_scheduler(name), record_trace=True)
            assert nat.makespan == ref.makespan
            assert nat.decisions == ref.decisions
            assert nat.trace.segments == ref.trace.segments


class TestDispatchGates:
    def test_mqb_routes_native(self, kernel, rng, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "1")
        job = make_random_job(rng, n=30, k=3)
        sch = make_scheduler("mqb")
        sch.prepare(job, ResourceConfig((2, 2, 2)))
        assert sch._kpick is not None

    def test_pointers_bound_on_first_pick(self, kernel, rng, monkeypatch):
        # A run the C whole-run loop carries never reads the per-pick
        # buffer addresses, so prepare leaves them unbound; the Python
        # loop's first pick binds them.
        monkeypatch.setenv("REPRO_NATIVE", "1")
        job, system = make_random_job(rng, n=60, k=3), ResourceConfig((2, 2, 2))
        whole = make_scheduler("mqb")
        simulate(job, system, whole)
        assert whole._kpick is not None and whole._pp == []
        loop = make_scheduler("mqb")
        tel = Telemetry(events=EventStream())
        simulate(job, system, loop, telemetry=tel)
        assert tel.counters["native.calls"] > 0 and len(loop._pp) == 3

    def test_disabled_env_routes_numpy(self, kernel, rng, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        job = make_random_job(rng, n=30, k=3)
        sch = make_scheduler("mqb")
        sch.prepare(job, ResourceConfig((2, 2, 2)))
        assert sch._kpick is None

    def test_emqb_override_not_routed(self, kernel, rng, monkeypatch):
        # EMQB overrides _pick_best (energy-weighted scoring); routing
        # it through the base kernel would silently drop the override.
        monkeypatch.setenv("REPRO_NATIVE", "1")
        job = make_random_job(rng, n=30, k=3)
        sch = make_scheduler("emqb[w=0.5]")
        sch.prepare(job, ResourceConfig((2, 2, 2)))
        assert sch._kpick is None

    def test_pick_best_subclass_not_routed(self, kernel, rng, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "1")

        class Tweaked(MQB):
            def _pick_best(self, alpha, extra):
                return super()._pick_best(alpha, extra)

        job = make_random_job(rng, n=30, k=3)
        sch = Tweaked()
        sch.prepare(job, ResourceConfig((2, 2, 2)))
        assert sch._kpick is None

    def test_sum_mode_gated_above_pairwise_k(self, kernel, rng, monkeypatch):
        # numpy's row sums stop being plain sequential loops at K >= 8,
        # so native sum-mode dispatch must refuse there (lex is fine).
        assert native.supported("sum", 7)
        assert not native.supported("sum", 8)
        assert native.supported("lex", 8)
        monkeypatch.setenv("REPRO_NATIVE", "1")
        job = make_random_job(rng, n=40, k=8)
        system = ResourceConfig((2,) * 8)
        sum_sch = make_scheduler("mqb[sum]")
        sum_sch.prepare(job, system)
        assert sum_sch._kpick is None
        lex_sch = make_scheduler("mqb")
        lex_sch.prepare(job, system)
        assert lex_sch._kpick is not None


class TestTelemetry:
    def test_scalar_native_calls_counted(self, kernel, rng, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "1")
        job = make_random_job(rng, n=60, k=3)
        tel = Telemetry()
        simulate(job, ResourceConfig((2, 2, 2)), make_scheduler("mqb"),
                 telemetry=tel)
        snap = tel.snapshot()
        assert snap.counters.get("native.calls", 0) > 0
        assert "native.fallbacks" not in snap.counters

    def test_profile_line_rendered(self):
        from repro.obs.profile import render_native_line

        tel = Telemetry()
        tel.inc("native.calls", 123)
        line = render_native_line(tel.snapshot())
        assert line == "native kernel: 123 picks in C"
        tel.inc("native.fallbacks", 2)
        line = render_native_line(tel.snapshot())
        assert "2 numpy fallbacks" in line
        assert render_native_line(Telemetry().snapshot()) is None
        tel.inc("native.runs", 4)
        line = render_native_line(tel.snapshot())
        assert line.startswith("native kernel: 4 whole runs and 123 picks in C")
