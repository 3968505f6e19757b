"""Unit tests for the analysis driver: baselines and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis.findings import (
    Finding,
    load_baseline,
    load_source_table,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.runner import run_analysis
from repro.cli import main
from repro.errors import ConfigError


def _finding(rule="purity", path="repro/sim/mod.py", line=3,
             message="wall-clock effect at line 3"):
    return Finding(rule=rule, path=path, line=line, message=message)


class TestFindingKeys:
    def test_key_folds_digit_runs(self):
        a = _finding(message="effect at line 31 (7 sites)")
        b = _finding(line=99, message="effect at line 310 (12 sites)")
        assert a.key() == b.key()

    def test_key_distinguishes_rule_and_path(self):
        assert _finding(rule="purity").key() != _finding(rule="locks").key()
        assert (_finding(path="repro/sim/a.py").key()
                != _finding(path="repro/sim/b.py").key())

    def test_render_includes_witness_steps(self):
        finding = Finding(rule="purity", path="p.py", line=1, message="m",
                          witness=("step one", "step two"))
        rendered = finding.render()
        assert "step one" in rendered and "step two" in rendered


class TestBaselineFile:
    def test_write_load_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [_finding(), _finding()])  # deduplicates
        keys = load_baseline(path)
        assert keys == [_finding().key()]

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": "nope", "suppressions": []}))
        with pytest.raises(ConfigError):
            load_baseline(path)

    def test_bad_suppressions_shape_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "schema": "repro-analyze-baseline/v1",
            "suppressions": [1, 2]}))
        with pytest.raises(ConfigError):
            load_baseline(path)

    def test_split_reports_stale_keys(self):
        current = [_finding()]
        keys = [_finding().key(), "locks gone.py stale entry"]
        new, suppressed, stale = split_by_baseline(current, keys)
        assert new == [] and suppressed == current
        assert stale == ["locks gone.py stale entry"]


class TestRunAnalysis:
    def test_syntax_error_becomes_a_finding(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "broken.py").write_text("def f(:\n")
        report = run_analysis(root=pkg, use_default_baseline=False)
        assert any(f.rule == "syntax" for f in report.new)

    def test_inline_allow_moves_finding_aside(self):
        table = load_source_table({
            "repro/sim/mod.py": (
                "import time\n"
                "def now():\n"
                "    return time.monotonic()  # analyze: allow(purity)\n"),
        })
        report = run_analysis(table=table, use_default_baseline=False)
        assert report.new == []
        assert len(report.inline_suppressed) == 1

    def test_baseline_moves_finding_aside(self, tmp_path):
        table = load_source_table({
            "repro/sim/mod.py": (
                "import time\n"
                "def now():\n"
                "    return time.monotonic()\n"),
        })
        first = run_analysis(table=table, use_default_baseline=False)
        assert len(first.new) == 1
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, first.new)
        second = run_analysis(table=table, baseline_path=baseline)
        assert second.new == [] and len(second.baseline_suppressed) == 1
        assert second.clean and second.stale_keys == []

    def test_unknown_analyzer_rejected(self):
        with pytest.raises(ConfigError):
            run_analysis(analyzers=["nope"],
                         table=load_source_table({}))

    def test_report_dict_and_summary(self):
        table = load_source_table({
            "repro/sim/mod.py": (
                "import time\n"
                "def now():\n"
                "    return time.monotonic()\n"),
        })
        report = run_analysis(table=table, use_default_baseline=False)
        document = report.as_dict()
        assert document["clean"] is False
        assert document["rule_counts"] == {"purity": 1}
        assert "1 new" in report.summary()


class TestCli:
    def test_analyze_command_is_clean_on_real_tree(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "analyzed" in out and "0 new" in out

    def test_analyze_write_baseline_and_reuse(self, tmp_path, capsys):
        target = tmp_path / "baseline.json"
        assert main(["analyze", "--no-baseline",
                     "--write-baseline", str(target)]) == 0
        assert target.exists()
        assert main(["analyze", "--against", str(target)]) == 0

    def test_analyze_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["analyze", "--json", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["clean"] is True

    def test_analyze_single_analyzer(self, capsys):
        assert main(["analyze", "--analyzer", "locks"]) == 0
        out = capsys.readouterr().out
        assert "with locks:" in out
