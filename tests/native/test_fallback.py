"""Graceful numpy fallback when the native kernel cannot be obtained.

The fallback contract: ``REPRO_NATIVE=0`` never attempts a load or
build; a requested-but-unbuildable kernel (no extension, no compiler,
no cached shared object) runs the pure-numpy path with a **single**
process-wide warning, counts ``native.fallbacks`` on attached
telemetry, and produces bit-identical results.  These tests simulate
the no-compiler host by monkeypatching the loader's strategies, so
they run (and matter) even on hosts where the real kernel builds fine.
"""

from __future__ import annotations

import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from repro import ResourceConfig, make_scheduler, simulate, simulate_preemptive
from repro import native
from repro.faults.engine import simulate_with_faults
from repro.faults.models import FaultTimeline, Outage
from repro.multijob import GlobalMQB, JobStream, simulate_stream
from repro.obs.telemetry import Telemetry
from repro.workloads.generator import WORKLOAD_CELLS, sample_job
from tests.conftest import make_random_job


#: One outage per type-0 processor 0, for the fault runs.
TIMELINE = FaultTimeline([Outage(0, 0, 1.0, 3.0)])


@pytest.fixture
def fresh_loader_state():
    """Reset the memoized loader around a test, restoring it after."""
    token = native._reset_for_tests()
    yield
    native._restore(token)


@pytest.fixture
def broken_build(fresh_loader_state, monkeypatch, tmp_path):
    """A host with no prebuilt extension, no compiler, no cached .so."""
    monkeypatch.setattr(native, "_try_extension", lambda: None)
    monkeypatch.setattr(native, "_find_compiler", lambda: None)
    monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path / "empty-cache"))


class TestDisabled:
    def test_no_load_or_build_attempted(self, fresh_loader_state, monkeypatch, rng):
        monkeypatch.setenv("REPRO_NATIVE", "0")

        def boom():  # pragma: no cover - the assertion is that it never runs
            raise AssertionError("REPRO_NATIVE=0 must not attempt a load")

        monkeypatch.setattr(native, "_try_extension", boom)
        monkeypatch.setattr(native, "_build_shared_object", boom)
        assert native.load_kernel() is None
        job = make_random_job(rng, n=40, k=3)
        tel = Telemetry()
        res = simulate(job, ResourceConfig((2, 2, 2)), make_scheduler("mqb"),
                       telemetry=tel)
        assert res.makespan > 0
        snap = tel.snapshot()
        assert "native.calls" not in snap.counters
        assert "native.fallbacks" not in snap.counters


class TestDisabledWholeRun:
    @pytest.mark.parametrize(
        "name",
        ["kgreedy", "mqb", "shiftbt", "dtype", "lspan", "maxdp", "mqb+1step+pre",
         "emqb[w=0.5]", "kgreedy-consolidate[r=0.5]"],
    )
    def test_no_load_and_no_c_call(self, fresh_loader_state, monkeypatch, rng,
                                   name):
        monkeypatch.setenv("REPRO_NATIVE", "0")

        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("REPRO_NATIVE=0 must not load or call C")

        monkeypatch.setattr(native, "_try_extension", boom)
        monkeypatch.setattr(native, "_build_shared_object", boom)
        monkeypatch.setattr(native, "_probe_add_order", boom)
        for entry in (
            "run", "run_preemptive", "topo_levels", "bottom_levels",
            "top_levels", "different_child_distance", "edd_schedule",
            "descendant_values", "untyped_descendant_values",
            "one_step_descendant_values", "expand_tree",
        ):
            monkeypatch.setattr(native.MQBKernel, entry, boom)
        tel = Telemetry()
        tree = sample_job(WORKLOAD_CELLS["medium-layered-tree"], rng)
        for job in (make_random_job(rng, n=40, k=3), tree):
            system = ResourceConfig((2,) * job.num_types)
            simulate(job, system, make_scheduler(name), telemetry=tel)
            simulate_preemptive(job, system, make_scheduler(name), telemetry=tel)
            simulate_with_faults(job, system, make_scheduler(name), TIMELINE,
                                 telemetry=tel)
        stream = JobStream((make_random_job(rng, n=30, k=3),) * 2, (0.0, 4.0))
        simulate_stream(stream, ResourceConfig((2, 2, 2)), GlobalMQB())
        assert not any(key.startswith("native.") for key in tel.counters)
        assert not native.native_status()["attempted"]


class TestStaleExtension:
    """A prebuilt extension from older source gives way to today's."""

    @pytest.fixture
    def compiler(self, fresh_loader_state, monkeypatch, tmp_path):
        cc = native._find_compiler()
        if cc is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv("REPRO_NATIVE", "1")
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path / "cache"))
        return cc

    def test_abi_mismatch_rebuilds(self, compiler, monkeypatch):
        def stale():
            raise OSError(
                f"native kernel ABI mismatch: built {native.ABI_VERSION - 1}, "
                f"expected {native.ABI_VERSION} (_mqbkernel.so)"
            )

        monkeypatch.setattr(native, "_try_extension", stale)
        kernel = native.load_kernel()
        assert kernel is not None, native.native_status()
        assert kernel.backend in ("cached", "compiled")
        assert kernel.abi == native.ABI_VERSION

    def test_missing_symbol_rebuilds(self, compiler, monkeypatch, tmp_path):
        # An extension that has today's ABI number but not its entry
        # points, imported through the real _try_extension.
        source = tmp_path / "stub.c"
        source.write_text(
            f"long long repro_native_abi(void) {{ return {native.ABI_VERSION}; }}\n"
        )
        stub = tmp_path / "_mqbkernel_stub.so"
        subprocess.run(
            [compiler, "-shared", "-fPIC", str(source), "-o", str(stub)],
            check=True, capture_output=True,
        )
        module = types.ModuleType("repro.native._mqbkernel")
        module.__file__ = str(stub)
        monkeypatch.setitem(sys.modules, "repro.native._mqbkernel", module)
        monkeypatch.setattr(native, "_mqbkernel", module, raising=False)
        kernel = native.load_kernel()
        assert kernel is not None, native.native_status()
        assert kernel.backend == "compiled"


class TestForcedFallback:
    def test_single_warning_fallbacks_counted_bit_identical(
        self, broken_build, monkeypatch, rng
    ):
        job = make_random_job(rng, n=60, k=3)
        system = ResourceConfig((2, 3, 2))

        monkeypatch.setenv("REPRO_NATIVE", "0")
        ref = simulate(job, system, make_scheduler("mqb"), record_trace=True)

        monkeypatch.setenv("REPRO_NATIVE", "1")
        tel = Telemetry()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = simulate(job, system, make_scheduler("mqb"),
                             record_trace=True, telemetry=tel)
            second = simulate(job, system, make_scheduler("mqb"),
                              record_trace=True, telemetry=tel)
        ours = [w for w in caught if "native MQB kernel" in str(w.message)]
        assert len(ours) == 1  # warn once per process, not per run
        assert issubclass(ours[0].category, RuntimeWarning)

        snap = tel.snapshot()
        assert snap.counters.get("native.fallbacks") == 2  # one per run
        assert "native.calls" not in snap.counters

        for res in (first, second):
            assert res.makespan == ref.makespan
            assert res.decisions == ref.decisions
            assert res.trace.segments == ref.trace.segments

    @pytest.mark.parametrize(
        "name", ["kgreedy", "mqb", "emqb[w=0.5]", "kgreedy-consolidate[r=0.5]"]
    )
    def test_whole_run_fallback_counted_once(
        self, broken_build, monkeypatch, rng, name
    ):
        # The run that wanted the C loop counts one fallback: the engine
        # for every row kind but MQB's, MQB.prepare (not the engine
        # again) for MQB; a fault run as a fault-free one.
        job = make_random_job(rng, n=60, k=3)
        system = ResourceConfig((2, 3, 2))
        runs = (
            lambda **kw: simulate(job, system, make_scheduler(name), **kw),
            lambda **kw: simulate_with_faults(
                job, system, make_scheduler(name), TIMELINE, **kw
            ),
        )
        for run in runs:
            monkeypatch.setenv("REPRO_NATIVE", "0")
            ref = run(record_trace=True)

            monkeypatch.setenv("REPRO_NATIVE", "1")
            tel = Telemetry()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                res = run(record_trace=True, telemetry=tel)
            assert tel.counters.get("native.fallbacks") == 1
            assert "native.runs" not in tel.counters
            assert res.makespan == ref.makespan
            assert res.decisions == ref.decisions
            assert res.trace.segments == ref.trace.segments

    def test_load_error_surfaced_in_status(self, broken_build, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "1")
        assert native.load_kernel() is None
        status = native.native_status()
        assert status["attempted"] and not status["loaded"]
        assert "no C compiler" in status["error"]
