"""Direct unit tests of the coherence engine using a two-process harness
(no workload layer): the protocol's message-level behaviour."""

import pytest

from repro import AcquireRead, AcquireWrite, Compute, Program, Release
from repro.baselines import NullProtocol
from repro.net.message import (
    AcquireRequest,
    Message,
    MessageKind,
    Piggyback,
    RequestControl,
)
from repro.types import AcquireType, ExecutionPoint, ObjectStatus, Tid

from tests.conftest import make_system


def step_program(*ops):
    """Build a program from a literal op list: ('aw'|'ar'|'rel'|'c', arg)."""

    def body(ctx):
        out = []
        for op, arg in ctx.param("ops"):
            if op == "aw":
                out.append((yield AcquireWrite(arg)))
            elif op == "ar":
                out.append((yield AcquireRead(arg)))
            elif op == "rel":
                yield Release(arg)
            elif op == "relv":
                yield Release.of(*arg)
            elif op == "c":
                yield Compute(arg)
        return out

    return Program("steps", body, {"ops": list(ops)})


def run_two(p0_ops, p1_ops, initial=0, **cfg):
    system = make_system(processes=2, interval=None, **cfg)
    system.add_object("x", initial=initial, home=0)
    system.spawn(0, step_program(*p0_ops))
    system.spawn(1, step_program(*p1_ops))
    result = system.run()
    assert result.completed
    return system, result


class TestMessageCounts:
    def test_remote_read_costs_request_plus_reply(self):
        system, result = run_two([], [("ar", "x"), ("rel", "x")])
        assert result.net["total_messages"] == 2
        kinds = result.net
        assert kinds["coherence_messages"] == 2

    def test_remote_write_costs_request_reply_no_invalidation(self):
        system, result = run_two([], [("aw", "x"), ("relv", ("x", 1))])
        # No read copies existed: request + reply only.
        assert result.net["total_messages"] == 2

    def test_write_after_read_costs_invalidation_roundtrip(self):
        system, result = run_two(
            [("c", 20.0), ("aw", "x"), ("relv", ("x", 1))],
            [("ar", "x"), ("rel", "x"), ("c", 50.0)],
        )
        # P1 read (2 msgs); P0's local write at the owner invalidates the
        # read copy: INVALIDATE + ACK.
        metrics = result.metrics.per_process[0]
        assert metrics.invalidations_sent == 1
        assert result.net["total_messages"] == 4

    def test_local_reacquire_costs_nothing(self):
        system, result = run_two(
            [], [("ar", "x"), ("rel", "x"), ("ar", "x"), ("rel", "x")])
        assert result.net["total_messages"] == 2  # only the first fetch


class TestStateTransitions:
    def test_ownership_transfer_updates_both_sides(self):
        system, result = run_two([], [("aw", "x"), ("relv", ("x", 7))])
        old = system.processes[0].directory.get("x")
        new = system.processes[1].directory.get("x")
        assert old.status is ObjectStatus.NO_ACCESS
        assert old.prob_owner == 1
        assert new.status is ObjectStatus.OWNED
        assert new.version == 1
        assert new.data == 7

    def test_version_increments_only_on_release_write(self):
        system, result = run_two(
            [("ar", "x"), ("rel", "x")],
            [("c", 5.0), ("aw", "x"), ("relv", ("x", 1)),
             ("aw", "x"), ("relv", ("x", 2))])
        owner = system.processes[1].directory.get("x")
        assert owner.version == 2

    def test_read_value_reflects_last_release(self):
        system, result = run_two(
            [("c", 30.0), ("ar", "x"), ("rel", "x")],
            [("aw", "x"), ("relv", ("x", 41)), ("c", 60.0)])
        values = result.thread_results[Tid(0, 0)]
        assert values == [41]

    def test_epdep_tracks_last_local_event(self):
        system, result = run_two([("aw", "x"), ("relv", ("x", 1))], [])
        obj = system.processes[0].directory.get("x")
        assert obj.ep_dep is not None
        assert obj.ep_dep.tid == Tid(0, 0)


class TestLogBookkeeping:
    def test_grant_adds_threadset_pair(self):
        system, result = run_two([], [("ar", "x"), ("rel", "x")])
        entry = system.processes[0].checkpoint_protocol.log.last_entry("x")
        assert len(entry.thread_set) == 1
        pair = entry.thread_set[0]
        assert pair.ep_acq.tid == Tid(1, 0)
        assert pair.ep_acq.lt == 1

    def test_write_grant_records_next_owner_and_copyset(self):
        system, result = run_two([], [("aw", "x"), ("relv", ("x", 1))])
        entry = system.processes[0].checkpoint_protocol.log.last_entry("x")
        assert entry.next_owner == 1
        assert entry.next_owner_ep.tid == Tid(1, 0)
        assert entry.copy_set_at_grant == frozenset()

    def test_producer_keeps_version_history(self):
        system, result = run_two(
            [],
            [("aw", "x"), ("relv", ("x", 1)), ("aw", "x"), ("relv", ("x", 2))])
        log = system.processes[1].checkpoint_protocol.log
        assert [e.version for e in log.entries_for("x")] == [1, 2]
        assert all(e.tid_prd == Tid(1, 0) for e in log.entries_for("x"))


class TestDuplicateSuppression:
    def test_grant_gate_blocks_second_grant(self):
        system, _ = run_two([], [("ar", "x"), ("rel", "x")])
        from repro.types import ExecutionPoint

        ep = ExecutionPoint(Tid(1, 0), 1)
        # The acquire was granted once during the run, so the
        # cluster-wide gate refuses a second claim.
        assert not system.try_claim_grant(ep, 0)

    def test_purge_reopens_rolled_back_eps(self):
        system, _ = run_two([], [("ar", "x"), ("rel", "x")])
        from repro.types import ExecutionPoint

        ep = ExecutionPoint(Tid(1, 0), 1)
        # A rollback that keeps the acquire leaves it granted...
        system.note_rollback({Tid(1, 0): 1})
        assert not system.try_claim_grant(ep, 0)
        # ...and one to before it reopens the execution point.
        system.note_rollback({Tid(1, 0): 0})
        assert system.try_claim_grant(ep, 0)


def run_three(p0_ops, p1_ops, p2_ops, until=None):
    """Like :func:`run_two` with a third process; ``until`` stops early."""
    system = make_system(processes=3, interval=None)
    system.add_object("x", initial=0, home=0)
    for pid, ops in enumerate((p0_ops, p1_ops, p2_ops)):
        system.spawn(pid, step_program(*ops))
    return system, system.run(until=until)


class TestForwardHints:
    """Li-Hudak path compression: a process that forwards a write request
    routes its own next request to that writer, until an authoritative
    probOwner update or a crash overrides the hint."""

    #: P1 takes ownership from P0 (the home) at t=0; P2, whose probOwner
    #: still names P0, writes at t=10, so P0 forwards P2's request to P1.
    P1_WRITES = [("aw", "x"), ("relv", ("x", 1))]
    P2_WRITES_LATER = [("c", 10.0), ("aw", "x"), ("relv", ("x", 2))]

    def test_forwarder_sends_next_request_to_the_writer_it_forwarded(self):
        system, result = run_three(
            [("c", 30.0), ("ar", "x"), ("rel", "x")],
            self.P1_WRITES, self.P2_WRITES_LATER)
        assert result.completed
        per_process = result.metrics.per_process
        assert per_process[0].request_forwards == 1  # P2's write
        # P0's read goes straight to P2; the old owner P1 never sees it.
        assert per_process[1].request_forwards == 0
        assert result.thread_results[Tid(0, 0)] == [2]

    def test_forwarding_records_the_writer_until_a_reply_overrides_it(self):
        # P1 takes ownership back from P2 at t=25; P0 then reads at t=40.
        p0_ops = [("c", 40.0), ("ar", "x"), ("rel", "x")]
        p1_ops = self.P1_WRITES + [("c", 25.0), ("aw", "x"), ("relv", ("x", 3))]
        system, _ = run_three(p0_ops, p1_ops, self.P2_WRITES_LATER, until=35.0)
        engine = system.processes[0].engine
        assert engine._forward_hints == {"x": 2}
        assert system.processes[0].directory.get("x").prob_owner == 1
        result = system.run()
        assert result.thread_results[Tid(0, 0)] == [3]
        # The reply came from P1 (via P2): it names the owner.
        assert engine._forward_hints == {}
        assert system.processes[0].directory.get("x").prob_owner == 1

    def test_invalidation_overrides_the_hint(self):
        # P0 reads P1's version at t=5 and keeps the copy; P1 writes
        # again at t=30 and invalidates it.
        system, _ = run_three(
            [("c", 5.0), ("ar", "x"), ("rel", "x")],
            self.P1_WRITES + [("c", 30.0), ("aw", "x"), ("relv", ("x", 2))],
            [], until=20.0)
        engine = system.processes[0].engine
        assert system.processes[0].directory.get("x").status is ObjectStatus.READ
        engine._forward_hints["x"] = 2
        system.run()
        assert engine._forward_hints == {}
        assert system.processes[0].directory.get("x").prob_owner == 1

    def test_ownership_transfer_overrides_the_hint(self):
        system, _ = run_three(
            [], [("c", 10.0), ("aw", "x"), ("relv", ("x", 1))], [], until=5.0)
        engine = system.processes[0].engine
        assert system.processes[0].directory.get("x").status is ObjectStatus.OWNED
        engine._forward_hints["x"] = 2
        system.run()
        assert engine._forward_hints == {}
        assert system.processes[0].directory.get("x").prob_owner == 1

    def test_a_known_crash_drops_every_hint_for_good(self):
        system, _ = run_three([("c", 30.0)], self.P1_WRITES,
                              self.P2_WRITES_LATER, until=20.0)
        engine = system.processes[0].engine
        assert engine._forward_hints == {"x": 2}
        engine.note_crashed(1)
        assert engine._forward_hints == {}
        engine.note_recovered(1, {})
        # Hints stay off after the recovery: re-issued duplicates of a
        # request could point them at a writer that is already done.
        assert not engine._hinting


class TestRecoveryBuffer:
    """While recovery holds an engine not accepting, delivered coherence
    messages wait; leaving recovery handles them in arrival order."""

    @pytest.mark.parametrize("consistency, ask, reply", [
        ("entry", MessageKind.ACQUIRE_REQUEST, MessageKind.ACQUIRE_REPLY),
        ("sequential", MessageKind.SC_ACQUIRE, MessageKind.SC_GRANT),
    ])
    def test_buffered_then_handled_in_arrival_order(self, consistency,
                                                    ask, reply):
        system = make_system(processes=3, interval=None,
                             consistency=consistency,
                             protocol_factory=NullProtocol)
        system.add_object("x", initial=0, home=0)
        process = system.processes[0]
        engine = process.engine
        sent = []
        engine.send_message = (
            lambda kind, dst, payload, control: sent.append((kind, dst)))
        engine.enter_recovery_mode()
        for requester in (2, 1):
            ep_acq = ExecutionPoint(Tid(requester, 0), 1)
            process.deliver(Message(
                requester, 0, ask,
                AcquireRequest("x", AcquireType.READ, requester, 0),
                Piggyback(RequestControl(ep_acq))))
        assert not engine.accepting and sent == []
        engine.exit_recovery_mode()
        assert sent == [(reply, 2), (reply, 1)]
