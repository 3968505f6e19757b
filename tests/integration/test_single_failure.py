"""Integration tests for Theorem 1: "The checkpoint protocol brings the
system to a consistent state after a single process failure."

Checked three ways: black-box output equivalence with the failure-free
run, coherence invariants at quiescence, and white-box comparison of the
recovered process against the shadow snapshot taken at the crash."""

import pytest

from repro import CheckpointPolicy, ClusterConfig, DisomSystem
from repro.cluster.system import DETECTION_DELAY

from tests.conftest import counter_system, make_system
from repro.workloads import ALL_WORKLOADS, SyntheticWorkload


def run_counter_with_crash(victim: int, crash_time: float, processes=3,
                           rounds=8, seed=7, interval=30.0):
    baseline = counter_system(processes=processes, rounds=rounds, seed=seed,
                              interval=interval)
    base_result = baseline.run()

    system = counter_system(processes=processes, rounds=rounds, seed=seed,
                            interval=interval)
    system.inject_crash(victim, at_time=crash_time)
    result = system.run()
    return base_result, result, system


class TestSingleFailureRecovery:
    @pytest.mark.parametrize("crash_time", [5.0, 17.0, 33.0, 52.0])
    def test_output_equivalence_across_crash_times(self, crash_time):
        base, result, _ = run_counter_with_crash(1, crash_time)
        assert result.completed and not result.aborted
        assert result.final_objects == base.final_objects
        assert not result.invariant_violations

    @pytest.mark.parametrize("victim", [0, 1, 2])
    def test_any_victim_recoverable(self, victim):
        base, result, _ = run_counter_with_crash(victim, 25.0)
        assert result.completed
        assert result.final_objects == base.final_objects

    def test_home_process_crash_recovers_v0_state(self):
        # Crashing the home process exercises pseudo-producer entries.
        base, result, _ = run_counter_with_crash(0, 8.0)
        assert result.final_objects == base.final_objects

    def test_no_survivor_rolls_back(self):
        # The protocol is pessimistic: "no thread in a surviving process
        # has to be rolled back if a failure occurs".
        _, result, _ = run_counter_with_crash(1, 20.0)
        assert result.metrics.total_survivor_rollbacks == 0

    def test_single_failure_never_aborts(self):
        for crash_time in (6.0, 29.0, 47.0):
            _, result, _ = run_counter_with_crash(2, crash_time)
            assert not result.aborted

    def test_recovery_record_populated(self):
        _, result, _ = run_counter_with_crash(1, 20.0)
        assert len(result.recoveries) == 1
        record = result.recoveries[0]
        assert record.pid == 1
        assert record.crashed_at == 20.0
        assert record.detected_at == pytest.approx(20.0 + DETECTION_DELAY)
        assert record.duration is not None and record.duration > 0

    def test_recovery_uses_recovery_layer_messages_only(self):
        _, result, _ = run_counter_with_crash(1, 20.0)
        assert result.net["recovery_messages"] > 0
        # Checkpoint layer stays silent even across a recovery.
        assert result.net["checkpoint_messages"] == 0


class TestShadowStateEquivalence:
    """White-box Theorem 1: the recovered process re-reaches the crash
    point -- same thread logical times, same object versions."""

    def _run(self, seed=11, crash_time=40.0):
        workload = SyntheticWorkload(rounds=14, objects=5)
        system = make_system(processes=4, seed=seed, interval=25.0)
        workload.setup(system)
        system.inject_crash(1, at_time=crash_time)
        result = system.run()
        assert result.completed
        return result, system

    def test_thread_logical_times_reach_crash_point(self):
        result, system = self._run()
        shadow = result.shadows[1]
        recovered = system.processes[1]
        for tid, crash_lt in shadow.thread_lts.items():
            # Deterministic re-execution: the thread passed through the
            # crash-point logical time again (and likely beyond).
            assert recovered.threads[tid].lt >= crash_lt

    def test_replay_count_matches_post_checkpoint_work(self):
        result, system = self._run()
        metrics = system.processes[1].metrics
        assert metrics.replayed_acquires > 0

    def test_object_versions_not_regressed(self):
        result, system = self._run()
        shadow = result.shadows[1]
        recovered = system.processes[1]
        for obj_id, snap in shadow.objects.items():
            assert recovered.directory.get(obj_id).version >= 0
            # Final version cluster-wide is at least the crashed version.
            max_version = max(
                p.directory.get(obj_id).version
                for p in system.processes.values()
            )
            assert max_version >= snap["version"]


class TestWorkloadsUnderSingleFailure:
    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_workload_verifies_after_crash(self, name):
        workload_cls = ALL_WORKLOADS[name]
        # Baseline duration to target the crash mid-run.
        probe = workload_cls()
        probe_system = make_system(processes=4, seed=13, interval=40.0)
        probe.setup(probe_system)
        duration = probe_system.run().duration

        workload = workload_cls()
        system = make_system(processes=4, seed=13, interval=40.0)
        workload.setup(system)
        system.inject_crash(2, at_time=max(1.0, duration * 0.5))
        result = system.run()
        assert result.completed, name
        check = workload.verify(result)
        assert check.ok, (name, check.issues)
        assert not result.invariant_violations


class TestCheckpointIntervalIndependence:
    """Section 2: 'The checkpoint frequency is independent of the
    application's actions' -- recovery works at any interval."""

    @pytest.mark.parametrize("interval", [5.0, 50.0, None])
    def test_recovery_at_any_interval(self, interval):
        base = counter_system(processes=3, rounds=8, seed=7, interval=interval)
        base_result = base.run()
        system = counter_system(processes=3, rounds=8, seed=7, interval=interval)
        system.inject_crash(1, at_time=30.0)
        result = system.run()
        assert result.completed
        assert result.final_objects == base_result.final_objects

    def test_longer_interval_means_more_replay(self):
        replayed = {}
        for interval in (5.0, 80.0):
            system = counter_system(processes=3, rounds=10, seed=7,
                                    interval=interval)
            system.inject_crash(1, at_time=45.0)
            system.run()
            replayed[interval] = system.processes[1].metrics.replayed_acquires
        assert replayed[80.0] >= replayed[5.0]


class TestNoRecoveryConfigured:
    def test_crash_without_recovery_leaves_system_running(self):
        system = counter_system(processes=3, rounds=4, seed=7)
        system.inject_crash(1, at_time=10.0, recover=False)
        result = system.run(until=500.0)
        assert not result.completed
        assert not system.processes[1].alive

    def test_no_spare_nodes_raises(self):
        from repro.errors import RecoveryError

        system = counter_system(processes=2, rounds=6, seed=7, spare_nodes=0)
        system.inject_crash(1, at_time=10.0)
        with pytest.raises(RecoveryError):
            system.run()


@pytest.mark.parametrize("seed", [0, 2, 3])
def test_recovery_sees_the_probowner_graph_not_forward_hints(seed):
    """Forward hints are dropped, and stay off, once a crash is known, so
    recovery works on the authoritative probOwner graph.  Writing the forwarded writer
    into ``prob_owner`` itself (the literal Li-Hudak rule) stalls seeds 0
    and 2 here and exceeds the forwarding budget on seed 3."""
    from repro import attach_checkers

    workload = SyntheticWorkload(rounds=60, objects=8)
    system = make_system(processes=8, seed=seed, interval=300.0)
    workload.setup(system)
    attach_checkers(system, strict=True)
    system.inject_crash(3, at_time=60.0)
    result = system.run()
    assert result.completed and not result.aborted
    assert workload.verify(result).ok
    assert not result.invariant_violations
    assert result.check_report.ok
    # Survivors learnt of the crash; the victim's new incarnation recovered.
    assert not any(p.engine._hinting for p in system.processes.values())
