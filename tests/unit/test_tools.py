"""Unit tests for the analysis tools (timeline) and the CLI."""

import json

import pytest

from repro.analysis.timeline import extract_events, render_timeline
from repro.cli import build_parser, main
from repro.sim.tracing import TraceLog


class TestTimeline:
    def _trace(self) -> TraceLog:
        trace = TraceLog()
        trace.emit(40.0, "failure", "P1 crashed")
        trace.emit(45.0, "failure", "crash of P1 detected")
        trace.emit(50.0, "checkpoint", "P0 checkpoint #2 (periodic)")
        trace.emit(60.0, "recovery", "P1 recovery complete")
        trace.emit(61.0, "net", "send acquire-request")
        return trace

    def test_extract_filters_and_parses_pids(self):
        events = extract_events(self._trace())
        assert len(events) == 4  # net excluded by default
        assert events[0].pid == 1
        assert events[2].pid == 0

    def test_render_contains_marks(self):
        text = render_timeline(self._trace())
        assert "X P1 crashed" in text
        assert "C P0 checkpoint" in text
        assert "R P1 recovery complete" in text

    def test_truncation(self):
        trace = TraceLog()
        for i in range(30):
            trace.emit(float(i), "checkpoint", f"P0 checkpoint #{i}")
        text = render_timeline(trace, max_events=10)
        assert "20 more events" in text

    def test_empty(self):
        assert "no events" in render_timeline(TraceLog())


class TestCli:
    def test_parser_rejects_bad_crash_spec(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["workload", "sor", "--crash", "nonsense"])

    def test_parser_accepts_crash_spec(self):
        args = build_parser().parse_args(
            ["workload", "sor", "--crash", "1@40.5"])
        assert args.crash == [(1, 40.5)]

    def test_bench_verb_is_gone(self, capsys):
        # Performance is measured by ``python -m benchmarks.e2e`` alone.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sor" in out and "coordinated" in out and "E1-figure1" in out

    def test_demo_command(self, capsys):
        assert main(["demo", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "counter = 32" in out
        assert "crashed" in out

    def test_workload_command_with_crash(self, capsys):
        code = main(["workload", "matmul", "--crash", "1@5", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified" in out and "recovery P1" in out

    def test_workload_on_baseline(self, capsys):
        code = main(["workload", "synthetic", "--baseline", "none",
                     "--processes", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "on none" in out

    # The four paths below used to be exercised by CI shell steps only.

    def test_workload_timeline_prints_timeline_then_table(self, capsys):
        code = main(["workload", "sor", "--crash", "1@40", "--timeline"])
        assert code == 0
        out = capsys.readouterr().out
        timeline, _, table = out.partition("\n\n")
        assert timeline.startswith("t=      0.00    P0  C P0 checkpoint #1")
        assert "t=     40.00    P1  X P1 crashed" in timeline
        assert "P1 recovery complete" in timeline
        assert table.startswith("== sor(")
        assert "on disom (entry consistency) ==" in table
        assert "recovery P1  detected t=45.0, duration 18.3, replayed 13" \
            in table

    def test_workload_json_key_set(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        assert main(["workload", "synthetic", "--json", str(path)]) == 0
        assert "== synthetic(" in capsys.readouterr().out
        summary = json.loads(path.read_text())
        assert list(summary) == [
            "workload", "baseline", "consistency", "processes", "seed",
            "completed", "aborted", "verified", "duration", "net",
            "stable_writes", "peak_log_bytes", "recoveries",
            "invariant_violations"]
        assert (summary["baseline"], summary["verified"]) == ("disom", True)

    def test_workload_check_prints_summary_and_json_check_block(
            self, tmp_path, capsys):
        path = tmp_path / "check.json"
        code = main(["workload", "synthetic", "--check", "--processes", "3",
                     "--interval", "30", "--consistency", "sequential",
                     "--json", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "on none (sequential consistency)" in out
        assert "\ncheck: clean; 201 memory events, verifier overhead" in out
        summary = json.loads(path.read_text())
        assert list(summary)[-1] == "check"
        assert summary["check"] == {"races": [], "violations": [],
                                    "events_checked": 201}
        # A model outside the backend registry is a usage error, not a run.
        with pytest.raises(SystemExit) as caught:
            main(["workload", "synthetic", "--consistency", "causal"])
        assert caught.value.code == 2
        assert "invalid choice: 'causal'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["synthetic", "--crash", "9@10"], "unknown process 9"),
        (["synthetic", "--processes", "0"], "need at least one process"),
        (["pipeline", "--processes", "2"], "pipeline needs at least 3"),
    ], ids=["crash-pid", "no-processes", "short-pipeline"])
    def test_workload_usage_error_is_one_line_exit_two(self, argv, message,
                                                        capsys):
        assert main(["workload", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro workload: error: {message}")
        assert captured.err.count("\n") == 1

    def test_check_is_analyze_then_one_checked_run(self, capsys):
        assert main(["check"]) == 0
        analyze, _, run = capsys.readouterr().out.partition("\n\n")
        assert analyze.startswith("analyzed ") and " 0 new" in analyze
        assert run.startswith("== synthetic(")
        assert "check: clean; 201 memory events" in run
        with pytest.raises(SystemExit) as caught:
            main(["check", "--inline"])
        assert caught.value.code == 2

    def test_workload_check_failure_exits_one_without_traceback(
            self, monkeypatch, capsys):
        from repro.errors import InvariantViolation
        from repro.verify.inline import InlineVerifier

        finalize = InlineVerifier.finalize

        def failing(verifier):
            report = finalize(verifier)
            report.violations.append(
                InvariantViolation("planted", "a planted violation"))
            return report

        monkeypatch.setattr(InlineVerifier, "finalize", failing)
        assert main(["workload", "synthetic", "--check"]) == 1
        out = capsys.readouterr().out
        assert "a planted violation" in out
        assert "Traceback" not in out

    def test_workload_check_requires_a_completed_run(self, capsys):
        # The "none" scheme aborts on any crash (Theorem 2's clean exit):
        # fine for a plain run, a failure for a checked one.
        argv = ["workload", "synthetic", "--baseline", "none",
                "--crash", "1@40"]
        assert main(argv) == 0
        assert main([*argv, "--check"]) == 1
        assert "abort reason" in capsys.readouterr().out

    @pytest.mark.parametrize("exp_id", ["E99", "E1"])
    def test_experiments_unknown_or_ambiguous_id_exits_two(self, exp_id,
                                                           capsys):
        assert main(["experiments", exp_id]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"experiment {exp_id!r} matches" in captured.err
        assert "Traceback" not in captured.err
