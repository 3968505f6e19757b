"""Integration tests for the baseline fault-tolerance schemes and their
comparison against the paper's protocol on identical executions."""

from functools import partial

import pytest

from tests.conftest import counter_system, make_system
from repro.api import build_workload
from repro.baselines import (
    CoordinatedProtocol,
    JanssensFuchsProtocol,
    NullProtocol,
    ReceiverMessageLogging,
    RichardSinghalProtocol,
    SenderMessageLogging,
    StummZhouProtocol,
)
from repro.workloads import SyntheticWorkload


def run_synthetic(protocol_factory, seed=5, processes=4, rounds=18,
                  interval=40.0, crashes=()):
    workload = SyntheticWorkload(rounds=rounds)
    system = make_system(processes=processes, seed=seed, interval=interval,
                         protocol_factory=protocol_factory)
    workload.setup(system)
    for pid, when in crashes:
        system.inject_crash(pid, at_time=when)
    result = system.run()
    return workload, system, result


class TestNullProtocol:
    def test_no_overhead_at_all(self):
        _, _, result = run_synthetic(NullProtocol)
        assert result.completed
        assert result.metrics.total_log_bytes == 0
        assert result.metrics.total_checkpoints == 0
        assert result.stable_writes == 0
        assert result.net["checkpoint_messages"] == 0
        assert result.net["piggyback_dummy_entries"] == 0

    def test_crash_is_fatal(self):
        _, _, result = run_synthetic(NullProtocol,
                                     crashes=[(1, 20.0)])
        assert result.aborted
        assert "cannot recover" in result.abort_reason


class TestRichardSinghal:
    def test_logs_every_transfer_at_page_granularity(self):
        _, system, result = run_synthetic(RichardSinghalProtocol)
        assert result.completed
        summary = system.processes[0].checkpoint_protocol.overhead_summary()
        transfers = sum(
            m.grants for m in result.metrics.per_process.values()
        )
        logged = result.metrics.total("log_entries_created")
        assert logged > 0
        # One log entry per received transfer, each at least a page.
        assert result.metrics.total_log_bytes >= logged * 4096

    def test_stable_flush_on_modified_transfer(self):
        _, system, result = run_synthetic(RichardSinghalProtocol)
        flushes = sum(
            p.checkpoint_protocol.stable_flushes
            for p in system.processes.values()
        )
        assert flushes > 0
        assert result.stable_writes >= flushes


class TestStummZhou:
    def test_dirty_replicas_ride_messages(self):
        _, system, result = run_synthetic(StummZhouProtocol)
        replication = sum(
            p.checkpoint_protocol.replication_bytes
            for p in system.processes.values()
        )
        assert replication > 0
        assert result.net["piggyback_bytes"] >= replication


class TestMessageLogging:
    def test_receiver_logging_writes_stable_per_message(self):
        _, system, result = run_synthetic(ReceiverMessageLogging)
        logged = sum(
            p.checkpoint_protocol.logged_messages
            for p in system.processes.values()
        )
        assert logged == result.net["total_messages"]
        assert result.stable_writes == logged

    def test_sender_logging_volatile_only(self):
        _, system, result = run_synthetic(SenderMessageLogging)
        logged = sum(
            p.checkpoint_protocol.logged_messages
            for p in system.processes.values()
        )
        assert logged == result.net["total_messages"]
        assert result.stable_writes == 0


class TestJanssensFuchs:
    def test_checkpoints_induced_by_communication(self):
        _, system, result = run_synthetic(JanssensFuchsProtocol)
        induced = sum(
            p.checkpoint_protocol.induced_checkpoints
            for p in system.processes.values()
        )
        assert induced > 0
        # Checkpoints happen at grants of dirty state, bounded by grants.
        grants = sum(m.grants for m in result.metrics.per_process.values())
        assert induced <= grants


class TestCoordinated:
    def test_rounds_cost_messages_and_blocking(self):
        _, system, result = run_synthetic(
            partial(CoordinatedProtocol, interval=25.0))
        assert result.completed
        protocol = system.processes[0].checkpoint_protocol
        summary = protocol.overhead_summary()
        assert summary["rounds"] >= 1
        assert result.net["checkpoint_messages"] > 0  # 4(P-1) per round
        blocked = sum(
            p.checkpoint_protocol.blocked_time
            for p in system.processes.values()
        )
        assert blocked > 0

    def test_global_rollback_rolls_survivors_back(self):
        workload, system, result = run_synthetic(
            partial(CoordinatedProtocol, interval=25.0), crashes=[(2, 60.0)])
        assert result.completed
        assert workload.verify(result).ok
        assert result.metrics.total_survivor_rollbacks == 3

    def test_rollback_discards_stale_messages(self):
        _, system, result = run_synthetic(
            partial(CoordinatedProtocol, interval=25.0), crashes=[(1, 45.0)])
        assert result.completed
        assert not result.invariant_violations


    @pytest.mark.parametrize("crashes", [
        [(1, 40.0), (2, 90.0)],   # well after the first rollback
        [(1, 40.0), (2, 52.0)],   # soon after it
        [(1, 30.0), (3, 31.0)],   # before the first crash is detected
    ])
    def test_second_rollback_finds_the_snapshots(self, crashes):
        # The processes the first rollback rebuilt must still hold the
        # snapshots the second one rolls back to.
        workload = SyntheticWorkload()
        system = build_workload(workload, processes=4, interval=40.0,
                                baseline="coordinated", crashes=crashes)
        result = system.run()
        assert result.completed
        assert workload.verify(result).ok
        assert [r.pid for r in result.recoveries] == [pid for pid, _ in crashes]
        assert all(r.finished_at is not None for r in result.recoveries)


class TestComparisonShape:
    """The E3 claim shape: the paper's protocol logs far less than
    SC-style logging on the same execution."""

    def test_disom_logs_less_than_richard_singhal(self):
        _, _, disom = run_synthetic(None)
        _, _, rs = run_synthetic(RichardSinghalProtocol)
        assert disom.metrics.total_log_bytes < rs.metrics.total_log_bytes

    def test_disom_stable_traffic_less_than_receiver_logging(self):
        _, _, disom = run_synthetic(None)
        _, _, rmsg = run_synthetic(ReceiverMessageLogging)
        assert disom.stable_writes < rmsg.stable_writes

    def test_disom_sends_no_extra_messages_unlike_coordinated(self):
        _, _, disom = run_synthetic(None)
        _, _, coord = run_synthetic(partial(CoordinatedProtocol, interval=25.0))
        assert disom.net["checkpoint_messages"] == 0
        assert coord.net["checkpoint_messages"] > 0
