"""Scripted coherence-protocol scenarios.

These tests steer specific protocol paths of the Li-Hudak engine under
EC -- probOwner chains, queue fairness, ownership migration,
invalidation deferral, the stale-floor race guard -- and of the
sequential backend's home lock, and inspect the engine's state directly.
"""

from repro import (
    AcquireRead,
    AcquireWrite,
    Compute,
    Program,
    Release,
)
from repro.baselines import NullProtocol
from repro.experiments.consistency_matrix import _run as e14_run
from repro.types import ObjectStatus, Tid

from tests.conftest import incrementer, make_system, reader


def program_of(body, name="scripted", **params) -> Program:
    return Program(name, body, params)


class TestOwnershipMigration:
    def test_ownership_follows_writers(self):
        system = make_system(processes=3, interval=None)
        system.add_object("x", initial=0, home=0)

        def writer_then_stop(ctx):
            value = yield AcquireWrite("x")
            yield Release.of("x", value + 1)
            return "ok"

        # P1 writes first, then P2: ownership should end at P2.
        system.spawn(1, program_of(writer_then_stop))

        def late_writer(ctx):
            yield Compute(10.0)
            value = yield AcquireWrite("x")
            yield Release.of("x", value + 1)
            return "ok"

        system.spawn(2, program_of(late_writer))
        result = system.run()
        assert result.completed
        assert (system.processes[2].directory.get("x").status
                is ObjectStatus.OWNED)
        # Everyone's probOwner hint chain leads to P2.
        assert system.processes[1].directory.get("x").prob_owner == 2

    def test_prob_owner_chain_forwarding(self):
        # P3's hint still points at the home (P0) after ownership moved
        # P0 -> P1 -> P2; its request must be forwarded along the chain.
        system = make_system(processes=4, interval=None)
        system.add_object("x", initial=0, home=0)

        def staged_writer(delay):
            def body(ctx):
                yield Compute(delay)
                value = yield AcquireWrite("x")
                yield Release.of("x", value + 1)
                return "ok"
            return program_of(body)

        system.spawn(1, staged_writer(1.0))
        system.spawn(2, staged_writer(12.0))
        system.spawn(3, staged_writer(25.0))
        result = system.run()
        assert result.completed
        assert result.final_objects["x"] == 3
        forwards = result.metrics.total("request_forwards")
        assert forwards >= 1  # P3 (at least) chased the chain

    def test_version_numbers_strictly_increase(self):
        system = make_system(processes=3, interval=None)
        system.add_object("x", initial=0, home=0)
        for pid in range(3):
            system.spawn(pid, incrementer("x", rounds=4))
        result = system.run()
        assert result.final_objects["x"] == 12
        owner = next(p for p in system.processes.values()
                     if p.directory.get("x").status is ObjectStatus.OWNED)
        assert owner.directory.get("x").version == 12


class TestReadSharing:
    def test_concurrent_readers_share_without_messages(self):
        system = make_system(processes=4, interval=None)
        system.add_object("x", initial=42, home=0)
        for pid in (1, 2, 3):
            system.spawn(pid, reader("x", rounds=5))
        result = system.run()
        assert result.completed
        # Each remote process fetched once; re-acquires were local.
        for pid in (1, 2, 3):
            metrics = result.metrics.per_process[pid]
            assert metrics.remote_acquires == 1
            assert metrics.local_acquires == 4
        owner = system.processes[0].directory.get("x")
        assert owner.copy_set == {1, 2, 3}

    def test_writer_invalidates_all_readers(self):
        system = make_system(processes=4, interval=None)
        system.add_object("x", initial=0, home=0)
        for pid in (1, 2):
            system.spawn(pid, reader("x", rounds=2, gap=1.0))

        def late_writer(ctx):
            yield Compute(20.0)
            value = yield AcquireWrite("x")
            yield Release.of("x", value + 1)
            return "ok"

        system.spawn(3, program_of(late_writer))
        result = system.run()
        assert result.completed
        assert result.metrics.total("invalidations_sent") >= 2
        for pid in (1, 2):
            obj = system.processes[pid].directory.get("x")
            assert obj.status is ObjectStatus.NO_ACCESS
        assert system.processes[3].directory.get("x").copy_set == set()

    def test_deferred_invalidation_waits_for_reader_release(self):
        # A reader sits inside a long read critical section while a writer
        # acquires: the invalidation ack is deferred until the release,
        # and the writer's acquire completes only then (strict CREW).
        system = make_system(processes=3, interval=None)
        system.add_object("x", initial=0, home=0)

        def long_reader(ctx):
            value = yield AcquireRead("x")
            yield Compute(30.0)          # long critical section
            yield Release("x")
            return value

        def eager_writer(ctx):
            yield Compute(5.0)           # let the reader get in first
            value = yield AcquireWrite("x")
            write_completed_at = ctx.param("clock")()
            yield Release.of("x", value + 1)
            return write_completed_at

        system.spawn(1, program_of(long_reader))
        kernel = system.kernel
        system.spawn(2, program_of(eager_writer, clock=lambda: kernel.now))
        result = system.run()
        assert result.completed
        from repro.types import Tid

        write_time = result.thread_results[Tid(2, 0)]
        # The reader held until ~35; the writer could not enter before.
        assert write_time >= 30.0


class TestQueueing:
    def test_fifo_no_overtake_of_queued_write(self):
        # Readers keep arriving while a write waits: the write must not
        # starve (readers behind it queue rather than bypass).
        system = make_system(processes=4, interval=None)
        system.add_object("x", initial=0, home=0)

        def churning_reader(ctx):
            for _ in range(6):
                value = yield AcquireRead("x")
                yield Release("x")
                yield Compute(2.0)
            return "ok"

        def midway_writer(ctx):
            yield Compute(5.0)
            value = yield AcquireWrite("x")
            yield Compute(1.0)
            yield Release.of("x", value + 1)
            return "ok"

        system.spawn(1, program_of(churning_reader))
        system.spawn(2, program_of(churning_reader))
        system.spawn(3, program_of(midway_writer))
        result = system.run()
        assert result.completed
        assert result.final_objects["x"] == 1

    def test_queued_requests_counted(self):
        system = make_system(processes=4, interval=None)
        system.add_object("x", initial=0, home=0)
        for pid in range(4):
            system.spawn(pid, incrementer("x", rounds=3, compute=3.0, gap=0.1))
        result = system.run()
        assert result.metrics.total("queued_requests") > 0


class TestLocalAcquireRules:
    def test_owner_write_reacquire_is_local(self):
        system = make_system(processes=2, interval=None)
        system.add_object("x", initial=0, home=0)
        system.spawn(0, incrementer("x", rounds=5))
        result = system.run()
        metrics = result.metrics.per_process[0]
        assert metrics.local_acquires == 5
        assert metrics.remote_acquires == 0

    def test_local_write_invalidates_remote_readers(self):
        # The CREW hole regression test: a local write at the owner must
        # invalidate remote read copies.
        system = make_system(processes=3, interval=None)
        system.add_object("x", initial=0, home=0)

        def early_reader(ctx):
            value = yield AcquireRead("x")
            yield Release("x")
            yield Compute(40.0)
            later = yield AcquireRead("x")
            yield Release("x")
            return (value, later)

        def home_writer(ctx):
            yield Compute(10.0)
            value = yield AcquireWrite("x")   # local at the owner
            yield Release.of("x", value + 1)
            return "ok"

        system.spawn(1, program_of(early_reader))
        system.spawn(0, program_of(home_writer))
        result = system.run()
        assert result.completed
        from repro.types import Tid

        first, later = result.thread_results[Tid(1, 0)]
        assert first == 0
        assert later == 1  # the stale copy was invalidated, not re-read


class TestSequentialBackend:
    def test_home_lock_queues_writer_and_write_through_is_pinned(self):
        # A write at the home queues behind two remote readers and is
        # granted only after both have released.
        system = make_system(processes=3, interval=None,
                             protocol_factory=NullProtocol,
                             consistency="sequential")
        system.add_object("x", initial=0, home=0)
        kernel = system.kernel

        def now():
            return kernel.now

        def holding_reader(ctx):
            yield AcquireRead("x")
            yield Compute(ctx.param("hold"))
            released_at = ctx.param("clock")()
            yield Release("x")
            return released_at

        def home_writer(ctx):
            yield Compute(3.0)           # both readers hold the lock by now
            value = yield AcquireWrite("x")
            granted_at = ctx.param("clock")()
            yield Release.of("x", value + 1)
            return granted_at

        system.spawn(1, program_of(holding_reader, hold=10.0, clock=now))
        system.spawn(2, program_of(holding_reader, hold=20.0, clock=now))
        system.spawn(0, program_of(home_writer, clock=now))
        result = system.run()
        assert result.completed and result.final_objects["x"] == 1
        released = [result.thread_results[Tid(pid, 0)] for pid in (1, 2)]
        assert result.thread_results[Tid(0, 0)] > max(released) >= 20.0
        assert result.metrics.per_process[0].queued_requests == 1
        assert not any(process.engine.has_pending_acks()
                       for process in system.processes.values())

        # E14's quick sequential+none rows: one update+ack round to every
        # live peer per release-write.
        for profile, messages, total_bytes in (("write-heavy", 937, 236_342),
                                               ("read-heavy", 447, 105_429)):
            row = e14_run(profile, "sequential+none")
            assert (row["messages"], row["bytes"]) == (messages, total_bytes)
