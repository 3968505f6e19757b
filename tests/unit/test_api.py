"""Unit tests for the public facade (:mod:`repro.api`) and the unified
:class:`repro.observers.Observers` registry."""

import re
from pathlib import Path

import pytest

import repro
from repro import CheckpointPolicy, ClusterConfig, DisomSystem, Observers
from repro.api import (
    attach_checkers,
    build_workload,
    open_store,
    run_experiment,
    run_workload,
)
from repro.errors import ConfigError
from repro.experiments import ALL_EXPERIMENTS
from repro.fuzz.coverage import CoverageProbe
from repro.observers import CALLBACK_NAMES
from repro.workloads import SyntheticWorkload


class TestRunWorkload:
    def test_by_registered_name(self):
        system, result = run_workload("synthetic", processes=2, seed=3)
        assert result.completed and not result.aborted
        assert system.config.processes == 2

    def test_unknown_workload_name(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            run_workload("no-such-workload")

    def test_unknown_baseline_name(self):
        with pytest.raises(ConfigError, match="unknown baseline"):
            run_workload("synthetic", baseline="no-such-scheme")

    def test_baseline_and_factory_are_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            run_workload("synthetic", baseline="none",
                         protocol_factory=object())

    def test_baseline_by_name(self):
        _, result = run_workload("synthetic", processes=2, seed=3,
                                 baseline="none")
        assert result.completed

    def test_workload_instance_with_crash(self):
        workload = SyntheticWorkload(rounds=8)
        _, result = run_workload(workload, processes=4, seed=5,
                                 crashes=[(1, 30.0)])
        assert result.completed
        assert len(result.recoveries) == 1

    def test_matches_direct_construction(self):
        # The facade is a convenience wrapper: same knobs -> the same
        # deterministic execution as building the system by hand.
        _, via_api = run_workload("synthetic", processes=3, seed=11,
                                  interval=40.0)
        workload = SyntheticWorkload()
        system = DisomSystem(
            ClusterConfig(processes=3, seed=11, spare_nodes=2),
            CheckpointPolicy(interval=40.0),
        )
        workload.setup(system)
        direct = system.run()
        assert via_api.final_objects == direct.final_objects
        assert via_api.net == direct.net
        assert via_api.duration == direct.duration

    def test_check_attaches_inline_verifier(self):
        _, result = run_workload("synthetic", processes=2, seed=3,
                                 check=True)
        assert result.check_report is not None
        assert result.check_report.ok

    def test_reexported_from_package_root(self):
        assert repro.run_workload is run_workload
        assert repro.run_experiment is run_experiment
        assert repro.open_store is open_store
        assert repro.attach_checkers is attach_checkers


class TestRunExperiment:
    def test_unique_prefix_match(self):
        result = run_experiment("E2", quick=True)
        assert result.experiment_id.startswith("E2")
        assert result.claim_holds is not False

    def test_ambiguous_prefix_rejected(self):
        # "E1" is a prefix of E1-figure1 and of E11-scalability etc.
        with pytest.raises(ConfigError, match="matches"):
            run_experiment("E1")

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError, match="matches"):
            run_experiment("E99")

    def test_runner_reads_ids_by_the_same_rule(self):
        from repro.experiments.runner import run_experiments

        with pytest.raises(ConfigError, match="matches"):
            run_experiments(["E1"])
        outcomes, _ = run_experiments(["E2", "E2-no-extra-messages"])
        assert [eid for eid, _ in outcomes] == ["E2-no-extra-messages"]


class TestBenchMatchesDirectRunner:
    def test_experiment_results_identical(self):
        # The facade must not perturb the simulation: running E2 through
        # it and through the raw registry must observe identical findings.
        direct = ALL_EXPERIMENTS["E2-no-extra-messages"](quick=True)
        via_facade = run_experiment("E2", quick=True)
        assert via_facade.experiment_id == direct.experiment_id
        assert via_facade.claim_holds == direct.claim_holds
        assert via_facade.findings == direct.findings


class TestOpenStore:
    def test_opens_file_backend(self, tmp_path):
        from repro.storage import FileBackend

        backend = open_store(str(tmp_path / "store"))
        assert isinstance(backend, FileBackend)

    def test_empty_path_rejected(self):
        with pytest.raises(ConfigError, match="store directory"):
            open_store("")


class TestAttachCheckers:
    def test_attach_then_run(self):
        workload = SyntheticWorkload(rounds=6)
        system = DisomSystem(
            ClusterConfig(processes=2, seed=9),
            CheckpointPolicy(interval=30.0),
        )
        workload.setup(system)
        attach_checkers(system)
        result = system.run()
        assert result.check_report is not None
        assert result.check_report.ok


class _Recorder:
    """Partial listener: implements only two of the callbacks."""

    def __init__(self):
        self.appends = []
        self.ckp_sets = []

    def on_log_append(self, pid, entry):
        self.appends.append((pid, entry))

    def on_ckp_set(self, ckp_set):
        self.ckp_sets.append(ckp_set)


class TestObservers:
    def test_register_is_idempotent(self):
        recorder = _Recorder()
        observers = Observers(recorder)
        observers.register(recorder)
        assert len(observers) == 1
        observers.on_log_append(0, "entry")
        assert recorder.appends == [(0, "entry")]

    def test_unregister(self):
        recorder = _Recorder()
        observers = Observers(recorder)
        observers.unregister(recorder)
        assert len(observers) == 0
        observers.on_log_append(0, "entry")
        assert recorder.appends == []

    def test_partial_listeners_skip_missing_callbacks(self):
        # _Recorder has no on_restore; dispatching must not raise.
        observers = Observers(_Recorder())
        observers.on_restore(0)
        observers.on_gc_dummy_drop("dummy", "ckp")

    def test_recovery_host_is_observed_without_reattachment(self):
        """The host created mid-run to recover P1 is built with the
        registry like every other process: nobody re-attaches anything."""

        class _Hosts(_Recorder):
            def __init__(self):
                super().__init__()
                self.created = []

            def on_process_created(self, process):
                self.created.append(process)

        recorder = _Hosts()
        system = build_workload("synthetic", processes=4, seed=7,
                                crashes=[(1, 40.0)])
        system.observers.register(recorder)
        before = system.processes[1]
        assert system.run().completed
        host = system.processes[1]
        assert recorder.created == [host] and host is not before
        assert host.checkpoint_protocol.observers is system.observers
        assert any(entry in list(host.checkpoint_protocol.log)
                   for pid, entry in recorder.appends if pid == 1)

    def test_late_registration_sees_what_config_registration_sees(self):
        """One wiring path: a probe registered on ``system.observers``
        after the cluster is built receives the same events as one
        passed through the config (everything from ``run()`` on; only
        the V0 appends of workload setup predate it)."""
        via_config, late = CoverageProbe(), CoverageProbe()
        keywords = dict(processes=4, seed=7, crashes=[(1, 40.0)])
        build_workload("synthetic", observers=Observers(via_config),
                       **keywords).run()
        system = build_workload("synthetic", **keywords)
        system.observers.register(late)
        system.run()
        assert late.features() == via_config.features()
        assert {"restores:1", "recoveries:1"} <= set(late.features())
        assert not {"log-appends:0", "ckp-sets:0"} & set(late.features())

    def test_wired_through_cluster_config(self):
        recorder = _Recorder()
        _, result = run_workload("synthetic", processes=2, seed=3,
                                 observers=Observers(recorder))
        assert result.completed
        assert recorder.appends, "no log appends observed"
        assert recorder.ckp_sets, "no CkpSet announcements observed"
        assert {pid for pid, _ in recorder.appends} <= {0, 1}

    def test_composes_with_inline_checking(self):
        recorder = _Recorder()
        _, result = run_workload("synthetic", processes=2, seed=3,
                                 check=True, observers=Observers(recorder))
        assert result.check_report is not None and result.check_report.ok
        assert recorder.appends

    def test_active_follows_registration(self):
        observers = Observers()
        assert not observers.active
        recorder = observers.register(_Recorder())
        assert observers.active
        observers.unregister(recorder)
        assert not observers.active


_SRC = Path(repro.__file__).resolve().parent


def _shipped_listeners():
    from repro.memory.consistency import AcquireHistory
    from repro.verify.inline import InlineVerifier
    from repro.verify.invariants import InvariantChecker

    return (InlineVerifier, InvariantChecker, CoverageProbe, AcquireHistory)


@pytest.mark.parametrize("name", CALLBACK_NAMES)
def test_every_callback_has_a_call_site_and_a_listener(name):
    """A callback nobody dispatches is dead surface; one nobody
    implements is an event without a consumer."""
    dispatch = re.compile(rf"observers\.{name}\(")
    sites = [path for path in sorted(_SRC.rglob("*.py"))
             if dispatch.search(path.read_text())]
    assert sites, f"no call site under src/repro dispatches {name}"
    assert any(callable(getattr(cls, name, None))
               for cls in _shipped_listeners()), (
        f"no shipped listener implements {name}")
