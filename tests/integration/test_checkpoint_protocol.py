"""Integration tests for the failure-free checkpoint machinery:
logging, dummy entries, piggyback shipping, checkpoint triggers and
garbage collection (paper sections 4.2 and 4.4)."""

from repro import AcquireRead, AcquireWrite, CheckpointPolicy, ClusterConfig, \
    Compute, DisomSystem, Program, Release
from repro.checkpoint.policy import CkpSet
from repro.checkpoint.protocol import pseudo_tid
from repro.types import ExecutionPoint, Tid

from tests.conftest import counter_system, incrementer, make_system, reader


class TestLogging:
    def test_release_write_creates_log_entry(self):
        system = counter_system(processes=2, rounds=3, interval=None)
        result = system.run()
        # 6 release-writes plus the V0 creation entry at the home.
        total_entries = result.metrics.total("log_entries_created")
        assert total_entries == 6 + 1

    def test_v0_logged_at_home_only(self):
        system = make_system(processes=3, interval=None)
        system.add_object("a", initial=5, home=1)
        system.spawn(0, reader("a", rounds=1))
        system.run()
        for pid in range(3):
            log = system.processes[pid].checkpoint_protocol.log
            if pid == 1:
                entry = log.entries_for("a")[0]
                assert entry.version == 0
                assert entry.tid_prd == pseudo_tid(1)
            else:
                assert log.entries_for("a") == []

    def test_log_lives_in_producer_memory(self):
        # P1's thread produces versions; entries must be in P1's log even
        # after ownership moves on.
        system = make_system(processes=3, interval=None)
        system.add_object("x", initial=0, home=0)
        system.spawn(1, incrementer("x", rounds=2))
        system.spawn(2, incrementer("x", rounds=2))
        system.run()
        log1 = system.processes[1].checkpoint_protocol.log
        produced_by_p1 = [e for e in log1 if e.tid_prd.pid == 1]
        assert len(produced_by_p1) == 2

    def test_threadset_records_remote_acquires(self):
        system = make_system(processes=2, interval=None)
        system.add_object("x", initial=0, home=0)
        system.spawn(1, reader("x", rounds=1))
        system.run()
        entry = system.processes[0].checkpoint_protocol.log.entries_for("x")[0]
        assert any(pair.ep_acq.tid.pid == 1 for pair in entry.thread_set)


class TestDummyEntries:
    def _local_heavy_system(self):
        # P1 acquires x remotely once, then re-acquires locally (dummies),
        # and finally writes a second object to generate outgoing traffic
        # that ships the dummies.
        def body(ctx):
            for _ in range(4):
                yield AcquireRead("x")
                yield Release("x")
                yield Compute(1.0)
            value = yield AcquireWrite("y")
            yield Release.of("y", value + 1)
            return "ok"

        system = make_system(processes=2, interval=None)
        system.add_object("x", initial=0, home=0)
        system.add_object("y", initial=0, home=0)
        system.spawn(1, Program("local-heavy", body, {}))
        return system

    def test_local_acquires_create_dummies(self):
        system = self._local_heavy_system()
        result = system.run()
        metrics = result.metrics.per_process[1]
        assert metrics.local_acquires == 3
        assert metrics.dummies_created == 3

    def test_dummies_shipped_with_next_message(self):
        system = self._local_heavy_system()
        result = system.run()
        assert result.metrics.per_process[1].dummies_shipped == 3
        assert result.metrics.per_process[0].dummies_stored == 3
        # They landed in P0's dummy log, stamped with Plog = 0.
        stored = list(system.processes[0].checkpoint_protocol.dummy_log)
        assert stored and all(d.p_log == 0 for d in stored)
        assert all(d.creator_pid == 1 for d in stored)

    def test_dependency_p_field_updated_on_ship(self):
        system = self._local_heavy_system()
        system.run()
        thread = next(iter(system.processes[1].threads.values()))
        local_deps = [d for d in thread.dep_set if d.local]
        assert local_deps
        assert all(d.p_log == 0 for d in local_deps)

    def test_dummy_chain_via_local_dep(self):
        system = self._local_heavy_system()
        system.run()
        stored = sorted(system.processes[0].checkpoint_protocol.dummy_log,
                        key=lambda d: d.ep_acq.lt)
        # Each local acquire depends on the previous local event on x.
        for earlier, later in zip(stored, stored[1:]):
            assert later.local_dep.lt >= earlier.ep_acq.lt


class TestCheckpointTriggers:
    def test_initial_checkpoint_taken(self):
        system = counter_system(processes=2, rounds=1, interval=None)
        result = system.run()
        for metrics in result.metrics.per_process.values():
            assert metrics.checkpoints.triggers.get("initial") == 1

    def test_periodic_checkpoints(self):
        system = counter_system(processes=2, rounds=10, interval=15.0)
        result = system.run()
        metrics = result.metrics.per_process[0]
        assert metrics.checkpoints.triggers.get("periodic", 0) >= 2

    def test_highwater_trigger(self):
        system = counter_system(processes=2, rounds=10, interval=None,
                                highwater=400)
        result = system.run()
        triggers = {}
        for metrics in result.metrics.per_process.values():
            for key, count in metrics.checkpoints.triggers.items():
                triggers[key] = triggers.get(key, 0) + count
        assert triggers.get("highwater", 0) >= 1

    def test_checkpoint_saved_to_stable_storage(self):
        system = counter_system(processes=2, rounds=2, interval=None)
        result = system.run()
        assert result.stable_writes == 2  # the two initial checkpoints
        assert system.stable_store.has_checkpoint(0)
        assert system.stable_store.has_checkpoint(1)


class TestGarbageCollection:
    def _gc_system(self, interval=15.0):
        # GC announcements travel by piggyback, so collection needs
        # all-to-all traffic; the synthetic workload provides it.
        from repro.workloads import SyntheticWorkload

        workload = SyntheticWorkload(rounds=25, objects=8)
        system = make_system(processes=4, seed=3, interval=interval)
        workload.setup(system)
        return system

    def test_log_trimmed_after_peer_checkpoints(self):
        system = self._gc_system()
        result = system.run()
        assert result.metrics.total("gc_threadset_pairs_dropped") > 0
        assert result.metrics.total("gc_log_entries_dropped") > 0
        assert result.metrics.total("gc_dummies_dropped") > 0
        assert result.metrics.total("gc_depset_entries_dropped") > 0

    def test_log_size_bounded_with_gc(self):
        system = self._gc_system()
        system.run()
        for process in system.processes.values():
            log = process.checkpoint_protocol.log
            # Far fewer live entries than were ever appended.
            assert len(log) < log.appended

    def test_piggyback_gc_starves_on_quiet_channels(self):
        # A documented property of the piggyback-only design: a process
        # that never sends coherence messages to some peer keeps a CkpSet
        # announcement waiting for it -- but only one, its newest.
        system = counter_system(processes=3, rounds=12, interval=10.0)
        system.run()
        protocols = [p.checkpoint_protocol for p in system.processes.values()]
        assert sum(len(protocol.pending_gc) for protocol in protocols) > 0
        for protocol in protocols:
            for pending in protocol.pending_gc.values():
                assert pending is protocol.last_ckp_set

    def test_newer_ckp_set_subsumes_an_older_one(self):
        # The safety argument for keeping one pending CkpSet per
        # destination: a process's CkpSets only grow, so applying an
        # older one before the newer one collects nothing extra.
        def receiver_after(*ckp_sets):
            system = self._gc_system(interval=None)
            system.run()
            protocol = system.processes[0].checkpoint_protocol
            for ckp_set in ckp_sets:
                protocol.apply_gc(ckp_set)
            return (
                [(e.obj_id, e.version, list(e.thread_set)) for e in protocol.log],
                [(d.obj_id, d.ep_acq) for d in protocol.dummy_log],
                [list(t.dep_set) for t in protocol.process.threads.values()],
            )

        def sender_ckp_set(seq, lt):
            return CkpSet(pid=1, seq=seq,
                          points=(ExecutionPoint.of(Tid(1, 0), lt),))

        untouched = receiver_after()
        older, newer = sender_ckp_set(1, 13), sender_ckp_set(2, 26)
        only_older, only_newer = receiver_after(older), receiver_after(newer)
        # Both collect something from every store, the newer one more.
        for before, after_older, after_newer in zip(untouched, only_older,
                                                    only_newer):
            assert after_older != before
            assert after_newer != after_older
        assert receiver_after(older, newer) == only_newer

    def test_own_pending_dummies_discarded_at_checkpoint(self):
        def local_only(ctx):
            for _ in range(5):
                yield AcquireRead("x")
                yield Release("x")
                yield Compute(2.0)
            return "ok"

        system = make_system(processes=2, interval=5.0)
        system.add_object("x", initial=0, home=0)
        system.spawn(0, Program("local-only", local_only, {}))
        result = system.run()
        metrics = result.metrics.per_process[0]
        # All dummies were created but discarded at checkpoints instead of
        # shipped (P0 never sends coherence messages here).
        assert metrics.dummies_created == 5
        assert metrics.dummies_shipped == 0
        assert metrics.gc_dummies_dropped == 5
