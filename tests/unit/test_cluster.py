"""Unit tests for cluster configuration, system lifecycle and results."""

import pytest

from repro import CheckpointPolicy, ClusterConfig, DisomSystem
from repro.cluster.config import CrashPlan
from repro.errors import ConfigError
from repro.memory.consistency import AcquireHistory
from repro.types import AcquireType, Tid

from tests.conftest import counter_system, incrementer, make_system


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(processes=0)
        with pytest.raises(ConfigError):
            ClusterConfig(spare_nodes=-1)

    def test_pids(self):
        assert ClusterConfig(processes=3).pids() == [0, 1, 2]

    def test_crash_plan_validation(self):
        with pytest.raises(ConfigError):
            CrashPlan(pid=0, at_time=-1.0)


class TestSystemLifecycle:
    def test_setup_after_run_rejected(self):
        system = counter_system(processes=2, rounds=1)
        system.run()
        with pytest.raises(ConfigError):
            system.add_object("late", initial=0, home=0)
        with pytest.raises(ConfigError):
            system.spawn(0, incrementer())

    def test_unknown_home_rejected(self):
        system = make_system(processes=2)
        with pytest.raises(ConfigError):
            system.add_object("x", initial=0, home=9)

    def test_unknown_spawn_pid_rejected(self):
        system = make_system(processes=2)
        with pytest.raises(ConfigError):
            system.spawn(9, incrementer())

    def test_unknown_crash_pid_rejected(self):
        system = make_system(processes=2)
        with pytest.raises(ConfigError):
            system.inject_crash(9, at_time=1.0)

    def test_double_static_crash_rejected(self):
        system = counter_system(processes=3, rounds=4)
        system.inject_crash(1, at_time=5.0)
        with pytest.raises(ConfigError):
            system.inject_crash(1, at_time=9.0)

    def test_run_until_partial(self):
        system = counter_system(processes=2, rounds=50)
        result = system.run(until=5.0)
        assert not result.completed
        assert result.duration == 5.0
        # Continuing the same system finishes the run.
        result = system.run()
        assert result.completed


class TestRunResult:
    def test_ok_semantics(self):
        system = counter_system(processes=2, rounds=2)
        result = system.run()
        assert result.ok
        assert result.completed and not result.aborted

    def test_final_objects_empty_on_abort(self):
        from repro.baselines import NullProtocol

        system = make_system(processes=2,
                             protocol_factory=NullProtocol)
        system.add_object("x", initial=0, home=0)
        system.spawn(0, incrementer("x", rounds=50))
        system.spawn(1, incrementer("x", rounds=50))
        system.inject_crash(1, at_time=10.0)
        result = system.run()
        assert result.aborted
        assert result.final_objects == {}
        assert not result.ok

    def test_metrics_aggregation_present(self):
        system = counter_system(processes=2, rounds=2)
        result = system.run()
        assert result.metrics.total_local_acquires >= 0
        assert result.net["total_messages"] > 0
        assert result.stable_writes == 2  # initial checkpoints


class TestShadowOracle:
    def test_shadow_captured_at_crash(self):
        system = counter_system(processes=3, rounds=6, seed=3)
        system.inject_crash(1, at_time=12.0)
        result = system.run()
        shadow = result.shadows[1]
        assert shadow.pid == 1
        assert shadow.crashed_at == 12.0
        assert shadow.thread_lts  # captured thread logical times
        assert "counter" in shadow.objects

    def test_shadow_is_a_deep_copy(self):
        system = counter_system(processes=3, rounds=6, seed=3)
        system.add_object("box", initial=[1, 2], home=1)
        system.inject_crash(1, at_time=12.0, recover=False)
        result = system.run(until=30.0)
        # The crashed incarnation's copy changes after the crash; the
        # shadow must still hold the value at the crash instant.
        system.processes[1].directory.get("box").data.append(3)
        assert result.shadows[1].objects["box"]["data"] == [1, 2]


class TestAcquireHistory:
    def test_history_records_types_and_versions(self):
        system = counter_system(processes=2, rounds=3)
        recorder = system.observers.register(AcquireHistory())
        system.run()
        history, cut = recorder.history()
        acquires = [a for seq in history.threads.values() for a in seq]
        assert all(a.type is AcquireType.WRITE for a in acquires)
        versions = sorted(a.version for a in acquires)
        assert versions == list(range(6))  # each write acquired one version
        # A rollback announced by the system voids the suffix past it.
        system.note_rollback({Tid(1, 0): 1})
        history, cut = recorder.history()
        assert cut.positions == {str(Tid(0, 0)): 3, str(Tid(1, 0)): 1}
