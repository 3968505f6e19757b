"""Integration tests: failure-free execution (paper section 4.2).

Covers the central failure-free claims: the application runs correctly,
the checkpoint layer sends *zero* extra messages (everything piggybacked),
and whole runs are deterministic given a seed.
"""

import pytest

from repro import AcquireRead, AcquireWrite, Compute, Program, Release
from repro.types import ObjectStatus

from tests.conftest import counter_system, incrementer, make_system, reader


class TestBasicExecution:
    def test_counter_sums_across_processes(self):
        system = counter_system(processes=4, rounds=6)
        result = system.run()
        assert result.completed
        assert result.final_objects["counter"] == 24
        assert not result.invariant_violations

    def test_single_process_cluster(self):
        system = counter_system(processes=1, rounds=3)
        result = system.run()
        assert result.final_objects["counter"] == 3
        # Everything was local: no coherence traffic at all.
        assert result.net["coherence_messages"] == 0

    def test_thread_results_returned(self):
        system = counter_system(processes=2, rounds=2)
        result = system.run()
        assert set(result.thread_results.values()) == {"done"}

    def test_readers_and_writers_mix(self):
        system = make_system(processes=3)
        system.add_object("counter", initial=0, home=0)
        system.spawn(0, incrementer(rounds=4))
        system.spawn(1, reader(rounds=6))
        system.spawn(2, reader(rounds=6))
        result = system.run()
        assert result.completed
        assert result.final_objects["counter"] == 4
        # Readers observed monotonically non-decreasing counter values.
        for tid, values in result.thread_results.items():
            if isinstance(values, list):
                assert values == sorted(values)

    def test_multiple_threads_per_process(self):
        system = make_system(processes=2)
        system.add_object("counter", initial=0, home=0)
        for pid in range(2):
            for _ in range(3):
                system.spawn(pid, incrementer(rounds=2))
        result = system.run()
        assert result.final_objects["counter"] == 12


class TestNoExtraMessages:
    """Abstract/section 1: 'The protocol needs no extra messages during the
    failure-free period, since all checkpoint control information is
    piggybacked on the memory coherence protocol messages.'"""

    def test_zero_checkpoint_layer_messages(self):
        system = counter_system(processes=4, rounds=8, interval=20.0)
        result = system.run()
        assert result.metrics.total_checkpoints > 4  # checkpoints happened
        assert result.net["checkpoint_messages"] == 0

    def test_piggyback_carries_control_information(self):
        system = counter_system(processes=3, rounds=8, interval=20.0)
        result = system.run()
        assert result.net["piggyback_bytes"] > 0
        assert result.net["piggyback_ckp_sets"] > 0

    def test_eager_ablation_does_send_extra_messages(self):
        from repro import CheckpointPolicy, ClusterConfig, DisomSystem

        system = DisomSystem(
            ClusterConfig(processes=3, seed=7),
            CheckpointPolicy(interval=20.0, control_transport="eager"),
        )
        system.add_object("counter", initial=0, home=0)
        for pid in range(3):
            system.spawn(pid, incrementer(rounds=8))
        result = system.run()
        assert result.net["checkpoint_messages"] > 0


class TestDeterminism:
    def test_identical_runs_identical_metrics(self):
        results = []
        for _ in range(2):
            system = counter_system(processes=3, rounds=5, seed=99)
            results.append(system.run())
        a, b = results
        assert a.duration == b.duration
        assert a.net == b.net
        assert a.metrics.as_dict() == b.metrics.as_dict()
        assert a.final_objects == b.final_objects

    def test_different_seeds_differ_in_timing(self):
        from repro import ClusterConfig, DisomSystem, CheckpointPolicy
        from repro.net.channel import LatencyModel

        durations = set()
        for seed in (1, 2):
            system = DisomSystem(
                ClusterConfig(processes=3, seed=seed,
                              latency=LatencyModel(jitter=0.3)),
                CheckpointPolicy(interval=100.0),
            )
            system.add_object("counter", initial=0, home=0)
            for pid in range(3):
                system.spawn(pid, incrementer(rounds=5))
            durations.add(system.run().duration)
        assert len(durations) == 2


class TestCoherenceInvariants:
    def test_single_owner_at_quiescence(self):
        system = counter_system(processes=4, rounds=5)
        result = system.run()
        owners = [
            p.pid for p in system.processes.values()
            if p.directory.get("counter").status is ObjectStatus.OWNED
        ]
        assert len(owners) == 1

    def test_read_copies_tracked_in_copyset(self):
        system = make_system(processes=3)
        system.add_object("data", initial=42, home=0)
        system.spawn(1, reader("data", rounds=2))
        system.spawn(2, reader("data", rounds=2))
        result = system.run()
        assert result.completed
        owner = system.processes[0].directory.get("data")
        for pid in (1, 2):
            obj = system.processes[pid].directory.get("data")
            if obj.status is ObjectStatus.READ:
                assert pid in owner.copy_set

    def test_local_reacquire_is_message_free(self):
        system = make_system(processes=2)
        system.add_object("data", initial=1, home=0)
        system.spawn(1, reader("data", rounds=10))
        result = system.run()
        metrics = result.metrics.per_process[1]
        # First read is remote; the other nine hit the cached copy.
        assert metrics.remote_acquires == 1
        assert metrics.local_acquires == 9


class TestContractViolations:
    def test_nested_acquire_raises(self):
        from repro.errors import MemoryModelError

        def bad(ctx):
            yield AcquireWrite("x")
            yield AcquireWrite("x")

        system = make_system(processes=1)
        system.add_object("x", initial=0, home=0)
        system.spawn(0, Program("bad", bad, {}))
        with pytest.raises(MemoryModelError):
            system.run()

    def test_release_without_acquire_raises(self):
        from repro.errors import MemoryModelError

        def bad(ctx):
            yield Release("x")

        system = make_system(processes=1)
        system.add_object("x", initial=0, home=0)
        system.spawn(0, Program("bad", bad, {}))
        with pytest.raises(MemoryModelError):
            system.run()
