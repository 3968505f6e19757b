"""The section-3.1 consistency definition applied to *concrete* runs.

An `AcquireHistory` listener lowers the final execution into the
abstract acquire history of the paper's figure 1; `check_consistency`
then evaluates the definition directly.  This is the third, most literal
form of the Theorem-1/2 assertions.
"""

from functools import partial

import pytest

from repro.baselines.coordinated import CoordinatedProtocol
from repro.baselines import NullProtocol
from repro.memory.consistency import (
    AbstractAcquire,
    AcquireHistory,
    Cut,
    History,
    check_consistency,
)
from repro.types import AcquireType
from repro.workloads import SyntheticWorkload

from tests.conftest import counter_system, make_system


class _RollbackLog(AcquireHistory):
    """The history listener, also keeping every announced rollback."""

    def __init__(self):
        super().__init__()
        self.rollbacks = []

    def on_rollback(self, resume_lts):
        self.rollbacks.append(dict(resume_lts))
        super().on_rollback(resume_lts)


def run_recorded(system):
    """Run ``system`` with a history listener; returns (result, history)."""
    recorder = system.observers.register(_RollbackLog())
    return system.run(), recorder


def assert_final_state_consistent(recorder):
    history, cut = recorder.history()
    verdict = check_consistency(history, cut)
    assert verdict.consistent, verdict.reason
    return history


class TestFailureFree:
    def test_counter_history_consistent(self):
        result, recorder = run_recorded(counter_system(processes=3, rounds=6))
        assert result.completed
        history = assert_final_state_consistent(recorder)
        # One acquire per increment, across three threads.
        total = sum(len(seq) for seq in history.threads.values())
        assert total == 18

    def test_synthetic_history_consistent(self):
        workload = SyntheticWorkload(rounds=12, objects=4, locality=0.4)
        system = make_system(processes=4, seed=9)
        workload.setup(system)
        result, recorder = run_recorded(system)
        assert result.completed
        assert_final_state_consistent(recorder)


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
                             protocol_factory=NullProtocol,
                             consistency=consistency)
        workload.setup(system)
        result, recorder = run_recorded(system)
        assert result.completed
        assert_final_state_consistent(recorder)

    @pytest.mark.parametrize("consistency", ["sequential"])
    def test_counter_history_counts_every_acquire(self, consistency):
        system = counter_system(processes=3, rounds=6, interval=None,
                                protocol_factory=NullProtocol,
                                consistency=consistency)
        result, recorder = run_recorded(system)
        assert result.completed
        history = assert_final_state_consistent(recorder)
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
        result, recorder = run_recorded(system)
        assert result.completed
        assert_final_state_consistent(recorder)

    def test_multithreaded_crash_history_consistent(self):
        # Seed 16 delivers read replies whose copy a newer writer had
        # already invalidated (the stale-floor branch of
        # EntryConsistencyEngine._on_reply): no copy is cached, and the
        # acquire must still report the version the thread was granted.
        for seed in (4, 16):
            workload = SyntheticWorkload(rounds=8, objects=4,
                                         threads_per_process=3, locality=0.5)
            system = make_system(processes=3, seed=seed, interval=25.0)
            workload.setup(system)
            system.inject_crash(1, at_time=20.0)
            result, recorder = run_recorded(system)
            assert result.completed
            history = assert_final_state_consistent(recorder)
            # A synthetic object's count is its version, so each thread's
            # read acquires add up to the checksum it computed.
            for tid, outcome in result.thread_results.items():
                reads = [acquire.version for acquire in history.threads[str(tid)]
                         if acquire.type is AcquireType.READ]
                assert sum(reads) == outcome["checksum"], (seed, tid)

    def test_multi_failure_when_recovered_history_consistent(self):
        workload = SyntheticWorkload(rounds=10, objects=4)
        system = make_system(processes=4, seed=2, interval=25.0,
                             spare_nodes=4)
        workload.setup(system)
        system.inject_crash(0, at_time=15.0)
        system.inject_crash(2, at_time=90.0)
        result, recorder = run_recorded(system)
        if result.completed and not result.aborted:
            assert_final_state_consistent(recorder)

    def test_history_has_no_rolled_back_ghosts(self):
        # Both rollback sources announce on_rollback: a DiSOM recovery
        # (the victim's threads resume at their prefix ends) and the
        # coordinated baseline's global rollback (every thread resumes at
        # the committed cut).
        for factory, rolled_back in ((None, {1}),
                                     (partial(CoordinatedProtocol, interval=10.0),
                                      {0, 1, 2})):
            system = counter_system(processes=3, rounds=8, seed=7,
                                    interval=25.0, protocol_factory=factory)
            system.inject_crash(1, at_time=22.0)
            result, recorder = run_recorded(system)
            assert result.completed
            assert {tid.pid for resume_lts in recorder.rollbacks
                    for tid in resume_lts} == rolled_back
            history = assert_final_state_consistent(recorder)
            # Exactly the final execution: eight write acquires per thread,
            # each of the 24 versions acquired once (an acquire from a
            # discarded suffix would repeat a version or add a ninth).
            assert [len(seq) for seq in history.threads.values()] == [8] * 3
            assert sorted(acquire.version for seq in history.threads.values()
                          for acquire in seq) == list(range(24))
