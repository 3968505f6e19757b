"""Unit tests for metrics aggregation and table rendering."""

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from repro.analysis.metrics import ProcessMetrics, SystemMetrics
from repro.analysis.report import Table, format_table
from repro.cluster.system import RecoveryRecord


class TestProcessMetrics:
    def test_recovery_duration(self):
        # Recovery timing is recorded once, on RunResult.recoveries.
        record = RecoveryRecord(pid=1, crashed_at=8.0, detected_at=10.0)
        assert record.duration is None
        record.finished_at = 35.0
        assert record.duration == 25.0

    def test_as_dict_contains_all_counters(self):
        metrics = ProcessMetrics(local_acquires=3)
        metrics.checkpoints.record(1.0, 10, "timer")
        data = metrics.as_dict()
        assert set(data) == ({f.name for f in fields(ProcessMetrics)}
                             | {"checkpoint_bytes"})
        assert data["local_acquires"] == 3
        assert (data["checkpoints"], data["checkpoint_bytes"]) == (1, 10)
        assert all(isinstance(value, int) for value in data.values())


class TestSystemMetrics:
    def test_totals(self):
        a, b = ProcessMetrics(), ProcessMetrics()
        a.local_acquires = 3
        b.local_acquires = 4
        a.log_bytes_created = 100
        system = SystemMetrics(per_process={0: a, 1: b})
        assert system.total_local_acquires == 7
        assert system.total_log_bytes == 100
        assert system.as_dict()["local_acquires"] == 7


class TestReport:
    def test_alignment_and_title(self):
        table = Table("demo", ["name", "value"])
        table.add_row("alpha", 1)
        table.add_row("b", 123456)
        text = table.render()
        assert "== demo ==" in text
        assert "123,456" in text
        lines = text.splitlines()
        assert len({len(line) for line in lines[1:4]}) == 1  # aligned

    def test_row_width_checked(self):
        table = Table("t", ["a", "b"])
        try:
            table.add_row(1)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_formatting_rules(self):
        text = format_table("t", ["c"], [[None], [True], [0.5], [1234.0], [0.0]])
        assert "-" in text
        assert "yes" in text
        assert "0.5" in text
        assert "1,234" in text

    def test_notes(self):
        table = Table("t", ["c"])
        table.add_row(1)
        table.add_note("hello note")
        assert "hello note" in table.render()


def test_import_repro_loads_no_static_analyzer():
    # Every simulator run imports repro.analysis.metrics; the analyzer
    # suite behind ``repro analyze`` must not ride along.
    src = Path(__file__).resolve().parents[2] / "src"
    probe = ("import repro, sys; print(' '.join(sorted("
             "m for m in sys.modules if m.startswith('repro.analysis'))))")
    loaded = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout.split()
    assert set(loaded) <= {"repro.analysis", "repro.analysis.metrics"}
