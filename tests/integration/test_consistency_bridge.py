"""The section-3.1 consistency definition applied to *concrete* runs.

`DisomSystem.consistency_history()` lowers the final execution into the
abstract acquire history of the paper's figure 1; `check_consistency`
then evaluates the definition directly.  This is the third, most literal
form of the Theorem-1/2 assertions.
"""

import pytest

from repro.baselines.noft import NullProtocol
from repro.memory.consistency import (
    AbstractAcquire,
    Cut,
    History,
    check_consistency,
)
from repro.types import AcquireType
from repro.workloads import SyntheticWorkload

from tests.conftest import counter_system, make_system


def assert_final_state_consistent(system):
    history, cut = system.consistency_history()
    verdict = check_consistency(history, cut)
    assert verdict.consistent, verdict.reason
    return history


class TestFailureFree:
    def test_counter_history_consistent(self):
        system = counter_system(processes=3, rounds=6)
        result = system.run()
        assert result.completed
        history = assert_final_state_consistent(system)
        # One acquire per increment, across three threads.
        total = sum(len(seq) for seq in history.threads.values())
        assert total == 18

    def test_synthetic_history_consistent(self):
        workload = SyntheticWorkload(rounds=12, objects=4, locality=0.4)
        system = make_system(processes=4, seed=9)
        workload.setup(system)
        assert system.run().completed
        assert_final_state_consistent(system)


class TestAlternateBackends:
    """The abstract checker applied to the sequential coherence backend.

    The definition in section 3.1 is model-agnostic: any backend's
    final history must only include acquires of versions produced
    within the state.  Checkpoint hooks are EC-only, so these runs use
    the null fault-tolerance scheme.
    """

    @pytest.mark.parametrize("consistency", ["sequential"])
    def test_synthetic_history_consistent(self, consistency):
        workload = SyntheticWorkload(rounds=12, objects=4, locality=0.4)
        system = make_system(processes=4, seed=9, interval=None,
                             protocol_factory=NullProtocol.factory(),
                             consistency=consistency)
        workload.setup(system)
        assert system.run().completed
        assert_final_state_consistent(system)

    @pytest.mark.parametrize("consistency", ["sequential"])
    def test_counter_history_counts_every_acquire(self, consistency):
        system = counter_system(processes=3, rounds=6, interval=None,
                                protocol_factory=NullProtocol.factory(),
                                consistency=consistency)
        result = system.run()
        assert result.completed
        history = assert_final_state_consistent(system)
        total = sum(len(seq) for seq in history.threads.values())
        assert total == 18

    def test_version_read_before_its_write_rejected(self):
        # A replica that applied the second update before the first
        # would read x at version 2 in a state where the producing write
        # of version 2 has not happened yet.  The checker rejects that
        # cut, whichever backend produced the history.
        history = History()
        history.add("writer",
                    AbstractAcquire("x", 0, AcquireType.WRITE),
                    AbstractAcquire("x", 1, AcquireType.WRITE))
        history.add("reader", AbstractAcquire("x", 2, AcquireType.READ))
        cut = Cut({"writer": 1, "reader": 1})  # second write excluded
        verdict = check_consistency(history, cut)
        assert not verdict.consistent
        assert "version 2" in verdict.reason
        # Including the producing write repairs the state.
        assert check_consistency(history, history.full_cut()).consistent


class TestWithRecovery:
    @pytest.mark.parametrize("crash_time", [8.0, 22.0, 47.0])
    def test_single_failure_final_history_consistent(self, crash_time):
        system = counter_system(processes=3, rounds=8, seed=7, interval=25.0)
        system.inject_crash(1, at_time=crash_time)
        result = system.run()
        assert result.completed
        assert_final_state_consistent(system)

    def test_multithreaded_crash_history_consistent(self):
        workload = SyntheticWorkload(rounds=8, objects=4,
                                     threads_per_process=3, locality=0.5)
        system = make_system(processes=3, seed=4, interval=25.0)
        workload.setup(system)
        system.inject_crash(1, at_time=20.0)
        result = system.run()
        assert result.completed
        assert_final_state_consistent(system)

    def test_multi_failure_when_recovered_history_consistent(self):
        workload = SyntheticWorkload(rounds=10, objects=4)
        system = make_system(processes=4, seed=2, interval=25.0,
                             spare_nodes=4)
        workload.setup(system)
        system.inject_crash(0, at_time=15.0)
        system.inject_crash(2, at_time=90.0)
        result = system.run()
        if result.completed and not result.aborted:
            assert_final_state_consistent(system)

    def test_history_has_no_rolled_back_ghosts(self):
        system = counter_system(processes=3, rounds=8, seed=7, interval=25.0)
        system.inject_crash(1, at_time=22.0)
        result = system.run()
        assert result.completed
        history, cut = system.consistency_history()
        # Each thread's logical times are contiguous 1..N in the final
        # history (ghost entries from a discarded suffix would show up as
        # out-of-sequence versions and break consistency).
        for tid, by_lt in system._acquire_history.items():
            lts = sorted(by_lt)
            assert lts == list(range(1, len(lts) + 1)), tid
