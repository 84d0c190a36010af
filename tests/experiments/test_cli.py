"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import build_parser, main


def _error(capsys, argv: list[str]) -> str:
    """``main(argv)``'s one-line error, asserting exit code 2."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ") and err.count("\n") == 1
    return err


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "fig4"])
        assert args.experiment == "fig4"
        assert args.instances is None
        assert args.out is None

    def test_run_with_options(self):
        args = build_parser().parse_args(
            ["run", "lemma1", "--instances", "50", "--seed", "9", "--out", "x"]
        )
        assert args.instances == 50
        assert args.seed == 9
        assert args.out == "x"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_fault_flags(self):
        args = build_parser().parse_args(
            [
                "run", "robustness",
                "--mtbf", "2.0", "--mttr", "0.5", "--fault-seed", "7",
            ]
        )
        assert args.mtbf == 2.0
        assert args.mttr == 0.5
        assert args.fault_seed == 7

    def test_fault_flags_default_none(self):
        args = build_parser().parse_args(["run", "fig4"])
        assert args.mtbf is None and args.mttr is None
        assert args.fault_seed is None


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "lemma1" in out

    def test_run_lemma1_prints_table(self, capsys):
        assert main(["run", "lemma1", "--instances", "200"]) == 0
        out = capsys.readouterr().out
        assert "closed form" in out

    def test_run_saves_json(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run", "lemma1", "--instances", "100",
                    "--out", str(tmp_path), "--quiet",
                ]
            )
            == 0
        )
        data = json.loads((tmp_path / "lemma1.json").read_text())
        assert data["figure"] == "lemma1"

    def test_report_rendering(self, tmp_path, capsys):
        main(["run", "lemma1", "--instances", "100", "--out", str(tmp_path),
              "--quiet"])
        capsys.readouterr()
        assert main(["report", str(tmp_path / "lemma1.json")]) == 0
        assert "closed form" in capsys.readouterr().out

    def test_unknown_experiment_raises(self, capsys):
        assert "unknown experiment 'fig99'" in _error(capsys, ["run", "fig99"])

    def test_run_robustness_saves_json(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run", "robustness", "--instances", "1",
                    "--mtbf", "4.0", "--fault-seed", "3",
                    "--out", str(tmp_path), "--quiet",
                ]
            )
            == 0
        )
        data = json.loads((tmp_path / "robustness.json").read_text())
        assert data["figure"] == "robustness"
        assert data["config"]["fault_seed"] == 3
        assert data["config"]["rates"] == [0.0, 0.25]

    def test_fault_flags_rejected_for_other_experiments(self, capsys):
        argv = ["run", "lemma1", "--instances", "10", "--mtbf", "2.0"]
        assert "fault parameters" in _error(capsys, argv)


class TestCells:
    def test_lists_paper_and_extra_cells(self, capsys):
        assert main(["cells"]) == 0
        out = capsys.readouterr().out
        assert "small-layered-ep" in out
        assert "medium-layered-cosmos" in out

    def test_marks_robustness_sweep_cells(self, capsys):
        assert main(["cells"]) == 0
        lines = capsys.readouterr().out.splitlines()
        marked = {
            line.split()[0] for line in lines if "[robustness sweep]" in line
        }
        assert marked == {
            "small-layered-ep", "medium-layered-tree", "medium-layered-ir"
        }


class TestDemo:
    def test_draws_gantt_and_utilization(self, capsys):
        assert (
            main(
                [
                    "demo", "small-layered-ep",
                    "--scheduler", "kgreedy", "--width", "40", "--seed", "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "per-type utilization" in out
        assert "t0[0]" in out

    def test_preemptive_flag(self, capsys):
        assert (
            main(
                [
                    "demo", "small-random-ep",
                    "--scheduler", "lspan", "--width", "30",
                    "--preemptive",
                ]
            )
            == 0
        )
        assert "makespan" in capsys.readouterr().out

    def test_unknown_cell(self, capsys):
        assert "unknown workload cell" in _error(capsys, ["demo", "nope-cell"])


class TestTrace:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["trace", "small-layered-ep"])
        assert args.cell == "small-layered-ep"
        assert args.scheduler == "mqb"
        assert args.out == "trace.json"
        assert args.jsonl is None

    def test_exports_chrome_trace_and_summary(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace", "small-layered-ep",
                    "--scheduler", "kgreedy", "--seed", "5",
                    "--out", str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "per-type utilization" in text
        assert "scheduler decision costs" in text
        assert "kgreedy" in text
        doc = json.loads(out.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(ev.get("ph") == "X" for ev in doc["traceEvents"])

    def test_jsonl_round_trip(self, tmp_path, capsys):
        from repro.obs.export import read_events_jsonl

        jsonl = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "trace", "small-random-ep", "--scheduler", "lspan",
                    "--out", str(tmp_path / "t.json"),
                    "--jsonl", str(jsonl),
                ]
            )
            == 0
        )
        events = read_events_jsonl(jsonl)
        assert events
        assert {e.kind for e in events} >= {"slice", "decision", "sample"}

    def test_preemptive_flag(self, tmp_path, capsys):
        assert (
            main(
                [
                    "trace", "small-random-ep", "--preemptive",
                    "--out", str(tmp_path / "p.json"),
                ]
            )
            == 0
        )
        assert "per-type utilization" in capsys.readouterr().out

    def test_unknown_cell(self, tmp_path, capsys):
        argv = ["trace", "nope-cell", "--out", str(tmp_path / "t.json")]
        assert "unknown workload cell" in _error(capsys, argv)


class TestProfile:
    def test_prints_timer_table(self, capsys):
        assert main(["profile", "fig4", "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "phase.engine_loop" in out
        assert "decision.mqb" in out

    def test_full_report(self, capsys):
        assert main(["profile", "fig8", "--instances", "2", "--full"]) == 0
        out = capsys.readouterr().out
        assert "engine phases" in out
        assert "counters" in out

    def test_kernel_loads_before_the_timed_phases(self, capsys, monkeypatch):
        # A slow first load (on a cold cache the kernel compiles) lands
        # before the timers start, not in the first KDag's sampling.
        from repro import native

        token = native._reset_for_tests()
        try_extension = native._try_extension

        def slow_load():
            time.sleep(0.2)
            return try_extension()

        try:
            monkeypatch.setenv("REPRO_NATIVE", "auto")
            monkeypatch.setattr(native, "_try_extension", slow_load)
            assert main(["profile", "fig4", "--instances", "1", "--no-cache"]) == 0
            assert native.native_status()["attempted"]
        finally:
            native._restore(token)
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        (sample_ms,) = [
            float(row[2]) for row in rows if row[:1] == ["phase.sample_instance"]
        ]
        assert sample_ms < 200.0

    def test_unknown_experiment(self, capsys):
        assert "unknown experiment 'fig99'" in _error(capsys, ["profile", "fig99"])

    def test_theory_experiment_rejects_profiling(self, capsys):
        argv = ["profile", "lemma1", "--instances", "10"]
        assert "does not support profiling" in _error(capsys, argv)
