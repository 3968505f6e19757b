"""Runs sharing one interpreter must not see each other.

Server workers and fuzz batches execute many scenarios per process, and
a few process globals survive from one to the next: the trace gate and
the ``Tid`` / ``ExecutionPoint`` intern tables.  They exist for speed
only.  This test proves it the blunt way: the same scenario fingerprints
byte-identically before and after ~50 unrelated scenarios of every shape
(sizes, workloads, backends, a crash, checking on and off, through the
facade, the fuzzer and the server's task body), the gate is back down
after each of them, no intern table outgrows its declared cap, the
network layer's modules hold no run state (message ids and sizes belong
to the network that sends them), and the experiment harness -- whose
check-report collector only exists inside an
``ExperimentDefaults.active()`` block -- has kept nothing.  Two
identical traced runs also give identical trace text, message ids
included.
"""

import enum
import itertools

import repro.experiments.base as experiments_base
import repro.net.message as message
import repro.net.sizing as sizing
import repro.types as types
from repro.api import run_workload
from repro.fuzz import run_trial
from repro.server.scenario import run_scenario
from repro.sim.tracing import set_fast_mode, trace_active
from tests.conftest import behavior_fingerprint


def _scenario_a() -> str:
    system, result = run_workload("synthetic", processes=4, seed=7,
                                  interval=40.0)
    assert result.completed
    return behavior_fingerprint(system, result)


def _varied_scenarios():
    workloads = ("synthetic", "sor", "matmul", "tsp", "nbody", "pipeline")
    for index in range(48):
        yield dict(workload=workloads[index % len(workloads)],
                   processes=2 + index % 4, seed=100 + index,
                   interval=(20.0, 40.0, 80.0)[index % 3],
                   check=index % 5 == 0)
    yield dict(workload="synthetic", processes=3, seed=7, interval=30.0,
               crashes=[(1, 30.0)], check=True)
    yield dict(workload="sor", processes=4, seed=3, interval=25.0,
               crashes=[(1, 40.0)])
    yield dict(workload="synthetic", processes=3, seed=5,
               consistency="sequential")


def _module_containers(module) -> dict:
    """Size of every module-level container: what a leak would grow."""
    return {name: len(value) for name, value in vars(module).items()
            if isinstance(value, (list, dict, set))
            and not name.startswith("__")}


def _run_state(module) -> list:
    """Module-level counters, and containers keyed by anything but
    classes or enum members (the import-time type registries)."""
    return [name for name, value in vars(module).items()
            if not name.startswith("__") and (
                isinstance(value, itertools.count)
                or isinstance(value, (list, dict, set))
                and not all(isinstance(key, (type, enum.Enum))
                            for key in value))]


def test_a_run_is_unchanged_by_the_runs_before_it():
    previous = set_fast_mode(True)
    harness_state = _module_containers(experiments_base)
    try:
        first = _scenario_a()
        for scenario in _varied_scenarios():
            _, result = run_workload(scenario.pop("workload"), **scenario)
            assert result.completed or result.aborted
            assert trace_active() is False, scenario
        for seed in range(3):
            document = {"workload": "synthetic", "processes": 3,
                        "seed": seed, "check": True}
            assert run_trial(document)["status"] == "ok"
            assert run_scenario(document)["result"]["completed"]
            assert trace_active() is False, document
        assert run_scenario({"kind": "experiment", "experiment": "E2",
                             "check": True})["result"]["claim_holds"]
        assert _scenario_a() == first
    finally:
        set_fast_mode(previous)
    assert _module_containers(experiments_base) == harness_state
    assert experiments_base._ACTIVE.get() == (
        experiments_base.ExperimentDefaults(), None)
    assert len(types._TID_INTERN) <= types._INTERN_MAX
    assert len(types._EP_INTERN) <= types._INTERN_MAX
    assert _run_state(sizing) == _run_state(message) == []


def test_identical_traced_runs_give_identical_trace_text():
    def trace_text():
        system, result = run_workload("synthetic", processes=3, seed=7,
                                      trace=True)
        assert result.completed
        return [str(record) for record in system.kernel.trace.records]

    first = trace_text()
    assert any(" #1 " in line for line in first)
    assert trace_text() == first


def test_intern_tables_clear_at_their_cap(monkeypatch):
    monkeypatch.setattr(types, "_INTERN_MAX", 8)
    for name in ("_TID_INTERN", "_EP_INTERN"):
        monkeypatch.setattr(types, name, {})
    for index in range(100):
        tid = types.Tid.of(index, 0)
        assert tid == types.Tid(index, 0)
        types.ExecutionPoint.of(tid, index)
        assert len(types._TID_INTERN) <= 8
        assert len(types._EP_INTERN) <= 8
