"""Condensed crash-sweep stress tests (the shipped version of the larger
exploratory sweeps used during development; the property tests randomize
further)."""

import pytest

from repro import CheckpointPolicy, ClusterConfig, DisomSystem
from repro.workloads import SyntheticWorkload


def counts(result):
    return {k: v["count"] for k, v in result.final_objects.items()}


def build(seed, crashes, processes=4, tpp=1, interval=40.0, rounds=15):
    workload = SyntheticWorkload(rounds=rounds, objects=5,
                                 threads_per_process=tpp, locality=0.4)
    system = DisomSystem(
        ClusterConfig(processes=processes, seed=seed, spare_nodes=4),
        CheckpointPolicy(interval=interval),
    )
    workload.setup(system)
    for pid, when in crashes:
        system.inject_crash(pid, at_time=when)
    return workload, system


class TestSingleFailureSweep:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_crash_time_scan(self, seed):
        _, base_sys = build(seed, [])
        base = base_sys.run()
        for crash_t in (7.0, 23.0, 41.0, 67.0):
            for victim in (0, 2):
                workload, system = build(seed, [(victim, crash_t)])
                result = system.run()
                key = (seed, victim, crash_t)
                assert result.completed and not result.aborted, key
                assert counts(result) == counts(base), key
                assert not result.invariant_violations, key
                assert workload.verify(result).ok, key
                assert result.metrics.total_survivor_rollbacks == 0, key


class TestMultithreadedSweep:
    def test_three_threads_per_process(self):
        _, base_sys = build(3, [], processes=3, tpp=3, interval=25.0,
                            rounds=8)
        base = base_sys.run()
        for crash_t in (6.0, 19.0, 38.0):
            workload, system = build(3, [(1, crash_t)], processes=3, tpp=3,
                                     interval=25.0, rounds=8)
            result = system.run()
            assert result.completed, crash_t
            assert counts(result) == counts(base), crash_t
            assert not result.invariant_violations, crash_t


class TestMultiFailureSweep:
    @pytest.mark.parametrize("schedule", [
        [(0, 20.0), (2, 20.0)],
        [(1, 15.0), (3, 19.0)],
        [(0, 12.0), (1, 12.0), (2, 12.0)],
    ])
    def test_recovered_or_aborted(self, schedule):
        _, base_sys = build(5, [])
        base = base_sys.run()
        workload, system = build(5, schedule)
        result = system.run()
        # Every schedule here loses a LogList suffix to detection (4.5),
        # and the recovery record says so.
        assert any(record.truncated for record in result.recoveries)
        if result.aborted:
            assert result.abort_reason
        else:
            assert result.completed
            assert counts(result) == counts(base)
            assert not result.invariant_violations
            assert workload.verify(result).ok
