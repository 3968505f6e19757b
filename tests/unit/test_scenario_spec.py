"""Unit tests for scenario validation, canonicalization and execution.

Canonicalization is the cache's correctness condition: a request that
spells every default and one that spells none must resolve to the same
spec, fingerprint and cache key; anything unknown must 400 (reject)
rather than silently alter what gets simulated under the same key.
"""

from __future__ import annotations

import pytest

import inspect
import json

import repro.api
from repro.errors import ConfigError
from repro.fuzz import DEFAULT_CORPUS_DIR, run_trial
from repro.server.scenario import (
    _WORKLOAD_KEYS,
    SCHEMA,
    encode_response,
    run_scenario,
    validate_scenario,
)


# ----------------------------------------------------------------------
# validation: precise 400s
# ----------------------------------------------------------------------

def test_unknown_workload_names_choices():
    with pytest.raises(ConfigError, match="unknown workload 'nope'"):
        validate_scenario({"workload": "nope"})


def test_unknown_baseline_names_choices():
    with pytest.raises(ConfigError, match="unknown baseline"):
        validate_scenario({"workload": "synthetic", "baseline": "nope"})


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="unknown scenario field"):
        validate_scenario({"workload": "synthetic", "wrokload": "typo"})


def test_unknown_param_rejected():
    with pytest.raises(ConfigError, match="unknown parameter"):
        validate_scenario({"workload": "synthetic",
                           "params": {"bogus_knob": 1}})


def test_unknown_consistency_model_rejected():
    # The 400 message enumerates the live backend registry.
    for model in ("release", "causal"):
        with pytest.raises(ConfigError,
                           match=r"\['entry', 'sequential'\]$"):
            validate_scenario({"workload": "synthetic",
                               "consistency": model})


def test_registered_consistency_models_accepted():
    for model in ("entry", "sequential"):
        spec = validate_scenario({"workload": "synthetic",
                                  "consistency": model})
        assert spec.consistency == model


def test_non_entry_consistency_defaults_to_no_fault_tolerance():
    spec = validate_scenario({"workload": "synthetic",
                              "consistency": "sequential"})
    assert spec.baseline == "none"
    entry = validate_scenario({"workload": "synthetic"})
    assert entry.baseline == "disom"
    explicit = validate_scenario({"workload": "synthetic",
                                  "consistency": "sequential",
                                  "baseline": "coordinated"})
    assert explicit.baseline == "coordinated"


def test_bad_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        validate_scenario({"kind": "sorcery"})


def test_processes_bounds():
    with pytest.raises(ConfigError, match=r"\[1, 64\]"):
        validate_scenario({"workload": "synthetic", "processes": 0})
    with pytest.raises(ConfigError, match=r"\[1, 64\]"):
        validate_scenario({"workload": "synthetic", "processes": 65})


def test_bool_is_not_an_int():
    with pytest.raises(ConfigError, match="seed"):
        validate_scenario({"workload": "synthetic", "seed": True})


def test_crash_pid_must_target_a_process():
    with pytest.raises(ConfigError, match="outside"):
        validate_scenario({"workload": "synthetic", "processes": 2,
                           "crashes": [[5, 10.0]]})
    with pytest.raises(ConfigError, match="bad crash entry"):
        validate_scenario({"workload": "synthetic", "crashes": ["boom"]})


def test_ambiguous_experiment_prefix_rejected():
    with pytest.raises(ConfigError, match="matches"):
        validate_scenario({"kind": "experiment", "experiment": "E1"})


def test_unique_experiment_prefix_resolves():
    spec = validate_scenario({"kind": "experiment", "experiment": "E2"})
    assert spec.experiment == "E2-no-extra-messages"


# ----------------------------------------------------------------------
# canonicalization: defaults explicit vs omitted
# ----------------------------------------------------------------------

def test_defaults_spelled_and_omitted_fingerprint_identically():
    bare = validate_scenario({"workload": "synthetic"})
    spelled = validate_scenario({
        "kind": "workload",
        "workload": "synthetic",
        "params": {},
        "processes": 4,
        "seed": 7,
        "interval": 50.0,
        "baseline": "disom",
        "consistency": "entry",
        "crashes": [],
        "check": False,
    })
    assert bare == spelled
    assert bare.fingerprint() == spelled.fingerprint()
    assert bare.cache_key("v1") == spelled.cache_key("v1")


def test_interval_int_and_float_spellings_agree():
    # interval=50 and interval=50.0 mean the same scenario.
    assert (validate_scenario({"workload": "synthetic", "interval": 50})
            == validate_scenario({"workload": "synthetic", "interval": 50.0}))


def test_cache_key_depends_on_seed_and_code_version():
    base = validate_scenario({"workload": "synthetic"})
    other_seed = validate_scenario({"workload": "synthetic", "seed": 8})
    assert base.cache_key("v1") != other_seed.cache_key("v1")
    assert base.cache_key("v1") != base.cache_key("v2")


def test_git_revision_reads_rev_parse(monkeypatch):
    import subprocess

    from repro.server import app

    def rev_parse(cmd, **kwargs):
        assert cmd == ["git", "rev-parse", "--short", "HEAD"]
        return subprocess.CompletedProcess(cmd, 0, "abc1234\n", "")

    monkeypatch.setattr(app.subprocess, "run", rev_parse)
    assert app.git_revision() == "abc1234"


def test_git_revision_falls_back_outside_a_checkout(tmp_path, monkeypatch):
    from repro.server.app import git_revision

    monkeypatch.delenv("GIT_DIR", raising=False)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    monkeypatch.chdir(tmp_path)
    assert git_revision() == "unknown"
    assert git_revision(default="none") == "none"


def test_git_revision_falls_back_without_git(monkeypatch):
    from repro.server import app

    def missing(cmd, **kwargs):
        raise FileNotFoundError(cmd[0])

    monkeypatch.setattr(app.subprocess, "run", missing)
    assert app.git_revision() == "unknown"


def test_code_version_binds_package_and_revision(monkeypatch):
    from repro import __version__
    from repro.server import app

    monkeypatch.setattr(app, "git_revision", lambda: "abc1234")
    assert app.default_code_version() == f"{__version__}+abc1234"


def test_param_order_is_invisible():
    a = validate_scenario({"workload": "synthetic",
                           "params": {"rounds": 3, "objects": 2}})
    b = validate_scenario({"workload": "synthetic",
                           "params": {"objects": 2, "rounds": 3}})
    assert a.fingerprint() == b.fingerprint()


def test_experiment_seed_defaults_to_curated():
    spec = validate_scenario({"kind": "experiment",
                              "experiment": "E1-figure1"})
    assert spec.seed is None
    override = validate_scenario({"kind": "experiment",
                                  "experiment": "E1-figure1", "seed": 11})
    assert override.seed == 11
    assert spec.cache_key("v1") != override.cache_key("v1")


# ----------------------------------------------------------------------
# execution: deterministic, wall-clock-free payloads
# ----------------------------------------------------------------------

def _small_scenario():
    return validate_scenario({"workload": "synthetic", "processes": 2,
                              "seed": 3, "params": {"rounds": 4}})


def test_failed_check_repeat_is_byte_identical():
    # The corpus entry whose inline check fails (a sor.barrier race):
    # the failure text must carry no host-clock verifier overhead.
    with open(f"{DEFAULT_CORPUS_DIR}/ac9a98fdac42fc4e.json") as handle:
        document = json.load(handle)["scenario"]
    first = run_scenario(document)
    assert "check_failed" in first["result"]
    assert encode_response(first) == encode_response(run_scenario(document))


def test_run_scenario_repeat_is_byte_identical():
    spec = _small_scenario()
    first = encode_response(run_scenario(spec.as_dict()))
    second = encode_response(run_scenario(spec.as_dict()))
    assert first == second
    assert first.endswith(b"\n")
    first.decode("ascii")  # canonical bodies are pure ASCII


def test_run_scenario_payload_shape():
    payload = run_scenario(_small_scenario().as_dict())
    assert payload["schema"] == SCHEMA
    assert payload["scenario"]["workload"] == "synthetic"
    result = payload["result"]
    assert result["completed"] is True
    assert result["verified"] is True
    assert result["checkpoints"] >= 0
    assert isinstance(result["duration"], float)
    assert "overhead_seconds" not in str(payload)  # no wall-clock leaks


def test_run_scenario_with_crash_reports_recovery():
    spec = validate_scenario({"workload": "synthetic", "processes": 2,
                              "seed": 3, "params": {"rounds": 12},
                              "crashes": [[1, 30.0]]})
    payload = run_scenario(spec.as_dict())
    result = payload["result"]
    assert result["completed"] is True
    assert len(result["recoveries"]) == 1
    assert result["recoveries"][0]["pid"] == 1


def test_run_scenario_check_block_present_when_requested():
    spec = validate_scenario({"workload": "synthetic", "processes": 2,
                              "seed": 3, "params": {"rounds": 4},
                              "check": True})
    payload = run_scenario(spec.as_dict())
    check = payload["result"]["check"]
    assert check["violations"] == 0
    assert check["events_checked"] > 0
    assert "overhead_seconds" not in check


# ----------------------------------------------------------------------
# one spec -> builder mapping for the server and the fuzzer
# ----------------------------------------------------------------------

#: A non-default value for every workload-scenario key.  A key added to
#: the validator needs a row here, and the mapping must react to it.
_NON_DEFAULT = {
    "workload": "sor",
    "params": {"rounds": 4},
    "processes": 3,
    "seed": 11,
    "interval": 20.0,
    "baseline": "coordinated",
    "consistency": "sequential",
    "crashes": [[1, 30.0]],
    "check": True,
    "latency": {"jitter": 0.5},
    "highwater": 4000,
}


def _build_args(document):
    args = validate_scenario(document).build_args()
    assert set(args) <= set(
        inspect.signature(repro.api.build_workload).parameters)
    return {**args, "workload": args["workload"].describe()}


@pytest.mark.parametrize("key", sorted(_WORKLOAD_KEYS))
def test_every_workload_key_reaches_the_builder(key):
    if key == "kind":
        experiment = validate_scenario({"kind": "experiment",
                                        "experiment": "E2"})
        with pytest.raises(ConfigError, match="does not describe a cluster"):
            experiment.build_args()
        return
    base = {"workload": "synthetic"}
    assert _build_args({**base, key: _NON_DEFAULT[key]}) != _build_args(base)


def test_run_trial_runs_on_the_backend_the_schedule_names(monkeypatch):
    built = []
    build = repro.api.build_workload

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(repro.api, "build_workload", recording)
    outcome = run_trial({"workload": "synthetic", "processes": 3, "seed": 5,
                         "consistency": "sequential", "baseline": "none"})
    assert outcome["status"] == "ok"
    assert [system.config.consistency for system in built] == ["sequential"]
