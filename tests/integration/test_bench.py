"""Integration tests for ``repro bench``: the CLI must emit a
schema-valid ``BENCH_perf.json``, the regression gate must work end to
end, and the experiment benchmarks must observe the exact same
deterministic results as running the experiment directly."""

import json

import pytest

from repro.api import run_experiment
from repro.cli import main
from repro.experiments import ALL_EXPERIMENTS
from repro.perf.schema import SCHEMA_ID, validate_report

#: Small but representative slice of the suite: one micro bench family,
#: the headline scalability workload, and one real experiment.
ONLY = ["--only", "micro_trace", "--only", "e11_p16", "--only", "exp_e2"]


@pytest.fixture(scope="module")
def bench_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "BENCH_perf.json"
    code = main(["bench", "--quick", "--repeats", "1",
                 "--json", str(path)] + ONLY)
    assert code == 0
    return path


class TestBenchCli:
    def test_report_is_schema_valid(self, bench_file):
        document = json.loads(bench_file.read_text())
        assert document["schema"] == SCHEMA_ID
        assert validate_report(document) == []

    def test_report_covers_requested_benchmarks(self, bench_file):
        document = json.loads(bench_file.read_text())
        names = {row["name"] for row in document["benchmarks"]}
        assert "e11_p16" in names
        assert "exp_e2_no_extra_messages" in names
        assert any(name.startswith("micro_trace") for name in names)

    def test_workload_rows_carry_simulation_counters(self, bench_file):
        document = json.loads(bench_file.read_text())
        headline = next(row for row in document["benchmarks"]
                        if row["name"] == "e11_p16")
        assert headline["kind"] == "workload"
        assert headline["events"] > 0
        assert headline["messages"] > 0
        assert headline["peak_log_bytes"] > 0

    def test_gate_passes_against_generous_baseline(self, bench_file,
                                                   tmp_path):
        out = tmp_path / "bench_out.json"
        code = main(["bench", "--quick", "--repeats", "1",
                     "--json", str(out), "--against", str(bench_file),
                     "--tolerance", "5.0"] + ONLY)
        assert code == 0
        document = json.loads(out.read_text())
        assert validate_report(document) == []
        assert document["baseline"] is not None
        assert set(document["speedup_vs_baseline"]) == {
            row["name"] for row in document["benchmarks"]}

    def test_gate_fails_on_fabricated_regression(self, bench_file,
                                                 tmp_path):
        # Shrink the baseline's wall-clocks 100x so the current run
        # looks like a massive regression: exit code must flip to 1.
        document = json.loads(bench_file.read_text())
        for row in document["benchmarks"]:
            row["wall_seconds"] /= 100.0
        fast = tmp_path / "fast_baseline.json"
        fast.write_text(json.dumps(document))
        code = main(["bench", "--quick", "--repeats", "1",
                     "--json", str(tmp_path / "out.json"),
                     "--against", str(fast), "--tolerance", "0.20"] + ONLY)
        assert code == 1


def test_e11_bench_leaves_the_trace_gate_as_it_found_it():
    # A stale reset here put every later row of a serial ``repro
    # bench`` (and the rest of the pytest process) on the slow path.
    from repro.perf.bench import ALL_BENCHMARKS
    from repro.sim.tracing import trace_active

    before = trace_active()
    ALL_BENCHMARKS["e11_p16"](quick=True, seed=7, repeats=1)
    assert trace_active() == before


class TestBenchMatchesDirectRunner:
    def test_experiment_results_identical(self):
        # The bench harness must not perturb the simulation: running E2
        # through the facade (the path `repro bench` exercises) and
        # through the raw registry must observe identical findings.
        direct = ALL_EXPERIMENTS["E2-no-extra-messages"](quick=True)
        via_facade = run_experiment("E2", quick=True)
        assert via_facade.experiment_id == direct.experiment_id
        assert via_facade.claim_holds == direct.claim_holds
        assert via_facade.findings == direct.findings
