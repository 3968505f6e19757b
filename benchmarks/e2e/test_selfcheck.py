"""Self-check of the benchmark itself (not collected by tier-1).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_selfcheck.py -q

Runs every workload at smoke size, untraced and traced, and holds the
output to ``BENCHMARK.json`` and to the driver's contract: every named
metric is emitted with its unit, names are well-formed, and the result
line has exactly the documented keys.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e.__main__ import SMOKE_SECONDS
from benchmarks.e2e.compare import compare, verdict
from benchmarks.e2e.harness import run_all
from benchmarks.e2e.spec import ROOT, load_spec, workload_names

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = load_spec()


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for family in ("workloads", "end_to_end",
                                          "per_layer")
             for entry in SPEC[family]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.fixture(scope="module", params=[False, True], ids=["untraced", "traced"])
def smoke(request):
    return request.param, run_all(seed=7, seconds=SMOKE_SECONDS,
                                  trace=request.param, smoke=True, runs=1)


def test_smoke_emits_every_named_metric(smoke):
    traced, document = smoke
    family = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert list(document["workloads"]) == workload_names(SPEC)
    for name, rows in document["workloads"].items():
        (row,) = rows
        assert row["correct"] and row["failed"] == 0, (name, row["detail"])
        assert isinstance(row["attempted"], int) and row["attempted"] >= 1
        assert set(row["metrics"]) == {entry["name"] for entry in family}
        for entry in family:
            metric = row["metrics"][entry["name"]]
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], (int, float))
            if not traced:
                assert metric["value"] > 0, (name, entry["name"])


def test_smoke_document_compares_clean_with_itself(smoke):
    _, document = smoke
    lines, bad = compare(document, document)
    assert not bad, "\n".join(lines)


def test_contract_command_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ff_wide",
         "--seed", "23", "--seconds", str(SMOKE_SECONDS), "--trace", "0",
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)[0] == "worse"
    assert verdict(steady, [v * 0.8 for v in steady], "lower", 0.1)[0] == "better"
    assert verdict(steady, [v * 1.02 for v in steady], "lower", 0.1)[0] == "within"
    assert verdict(steady, [v * 0.8 for v in steady], "higher", 0.1)[0] == "worse"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[0] == "unresolved"
    assert verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.1)[0] == "better"
