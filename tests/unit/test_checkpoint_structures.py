"""Unit tests for log entries, dummy entries, CkpSets, stable storage and
checkpoint policies (paper figures 3-5 and section 4.2/4.4 structures)."""

import pytest

from repro.checkpoint.dummy import DummyEntry, DummyLog
from repro.checkpoint.log import LogEntry, ProcessLog, ThreadSetPair
from repro.checkpoint.policy import CheckpointPolicy, CheckpointStats, CkpSet
from repro.checkpoint.stable import Checkpoint, StableStore
from repro.errors import ConfigError, ProtocolError, RecoveryError
from repro.types import AcquireType, Tid, ep


def entry(obj="x", version=1, data="payload", pid=0, local=0, lt=1) -> LogEntry:
    return LogEntry(obj, version, data, Tid(pid, local),
                    ep_release=ep(pid, local, lt))


class TestLogEntry:
    def test_add_access(self):
        e = entry()
        e.add_access(ep(1, 0, 3), ep(0, 0, 2))
        assert e.thread_set == [ThreadSetPair(ep(1, 0, 3), ep(0, 0, 2))]

    def test_data_copy_is_private(self):
        e = entry(data=[1, 2])
        copy1 = e.data_copy()
        copy1.append(3)
        assert e.obj_data == [1, 2]

    def test_clone_shares_data_copies_thread_set(self):
        # obj_data is never mutated, so a clone shares it; the threadSet
        # is GC-trimmed in place and must be the clone's own.
        e = entry(data={"v": [1]})
        e.add_access(ep(1, 0, 3), ep(0, 0, 2))
        clone = e.clone()
        clone.thread_set.append(ThreadSetPair(ep(2, 0, 1), ep(0, 0, 2)))
        assert clone.obj_data is e.obj_data
        assert len(e.thread_set) == 1

    def test_size_grows_with_threadset(self):
        e = entry()
        before = e.size_bytes()
        e.add_access(ep(1, 0, 3), ep(0, 0, 2))
        assert e.size_bytes() > before


class TestProcessLog:
    def test_append_and_last_entry(self):
        log = ProcessLog()
        log.append(entry(version=0))
        log.append(entry(version=1))
        assert log.last_entry("x").version == 1
        assert len(log) == 2
        assert [e.version for e in log.entries_for("x")] == [0, 1]

    def test_version_must_increase(self):
        log = ProcessLog()
        log.append(entry(version=2))
        with pytest.raises(ProtocolError):
            log.append(entry(version=2))

    def test_old_entry_classification(self):
        log = ProcessLog()
        first, second = entry(version=0), entry(version=1)
        log.append(first)
        log.append(second)
        assert log.is_old(first)
        assert not log.is_old(second)

    def test_drop_old_unreferenced(self):
        log = ProcessLog()
        old_unref = entry(version=0)
        old_ref = entry(version=1)
        old_ref.add_access(ep(1, 0, 3), ep(0, 0, 2))
        last = entry(version=2)
        for e in (old_unref, old_ref, last):
            log.append(e)
        dropped = log.drop_old_unreferenced()
        assert dropped == 1
        versions = [e.version for e in log]
        assert versions == [1, 2]  # last version kept even with empty set

    def test_last_entry_never_dropped(self):
        log = ProcessLog()
        log.append(entry(version=0))
        assert log.drop_old_unreferenced() == 0
        assert log.last_entry("x") is not None

    def test_snapshot_restore_roundtrip(self):
        log = ProcessLog()
        log.append(entry(version=0, data=[1]))
        snap = log.snapshot()
        snap[0].add_access(ep(1, 0, 3), ep(0, 0, 2))  # snapshot is independent
        assert log.last_entry("x").thread_set == []
        log2 = ProcessLog()
        log2.restore(log.snapshot())
        assert log2.last_entry("x").obj_data == [1]
        assert log2.appended == 0  # restore is not "new" logging


class TestDummyLog:
    def _dummy(self, pid=1, lt=3) -> DummyEntry:
        return DummyEntry("x", ep(pid, 0, lt), ep(pid, 0, lt - 1),
                          type=AcquireType.READ)

    def test_store_stamps_plog(self):
        log = DummyLog(local_pid=2)
        stored = log.store(self._dummy())
        assert stored.p_log == 2
        assert len(log) == 1
        assert stored.creator_pid == 1

    def test_gc_remove_before(self):
        log = DummyLog(0)
        log.store(self._dummy(pid=1, lt=3))
        log.store(self._dummy(pid=1, lt=9))
        removed = log.remove_before(1, {Tid(1, 0): 5})
        assert [e.ep_acq.lt for e in removed] == [3]
        assert [e.ep_acq.lt for e in log] == [9]

    def test_gc_only_touches_named_process(self):
        log = DummyLog(0)
        log.store(self._dummy(pid=1, lt=3))
        log.store(self._dummy(pid=2, lt=3))
        assert len(log.remove_before(1, {Tid(1, 0): 10})) == 1
        assert len(log) == 1

    def test_store_is_idempotent_on_object_and_acquire_point(self):
        # A recovering process can receive one entry twice (deferred
        # piggyback and DummySet replay); it must keep a single copy.
        log = DummyLog(0)
        first = log.store(self._dummy(pid=1, lt=3))
        again = log.store(self._dummy(pid=1, lt=3))
        assert again == first
        assert len(log) == 1
        assert log.stored_total == 1

    def test_store_keeps_distinct_acquires(self):
        log = DummyLog(0)
        log.store(self._dummy(pid=1, lt=3))
        log.store(self._dummy(pid=1, lt=4))
        log.store(DummyEntry("y", ep(1, 0, 3), ep(1, 0, 2)))
        assert len(log) == 3
        assert log.stored_total == 3

    def test_gc_forgets_removed_keys(self):
        log = DummyLog(0)
        log.store(self._dummy(pid=1, lt=3))
        assert len(log.remove_before(1, {Tid(1, 0): 5})) == 1
        log.store(self._dummy(pid=1, lt=3))
        assert [e.ep_acq.lt for e in log] == [3]

    def test_restore_rebuilds_keys(self):
        log = DummyLog(0)
        log.store(self._dummy(pid=1, lt=3))
        restored = DummyLog(0)
        restored.restore(log.snapshot())
        restored.store(self._dummy(pid=1, lt=3))
        assert len(restored) == 1
        restored.restore([])
        restored.store(self._dummy(pid=1, lt=3))
        assert len(restored) == 1


class TestCkpSet:
    def test_lookup(self):
        ckp = CkpSet(pid=1, seq=2, points=(ep(1, 0, 5), ep(1, 1, 7)))
        assert ckp.lt_of(Tid(1, 0)) == 5
        assert ckp.lt_of(Tid(1, 2)) is None
        assert ckp.lts_by_tid() == {Tid(1, 0): 5, Tid(1, 1): 7}

    def test_points_must_belong_to_the_announcing_process(self):
        # GC skips every item of another process before looking up the
        # checkpoint floor; a CkpSet naming a foreign thread would make
        # that skip unsound, so it cannot be built.
        with pytest.raises(ProtocolError, match="another process"):
            CkpSet(pid=1, seq=1, points=(ep(1, 0, 5), ep(2, 0, 7)))
        assert CkpSet(pid=2, seq=1, points=()).points == ()


class TestCheckpointPolicy:
    def test_defaults(self):
        policy = CheckpointPolicy()
        assert policy.interval is not None

    def test_highwater(self):
        policy = CheckpointPolicy(log_highwater=1000)
        assert not policy.highwater_exceeded(1000)
        assert policy.highwater_exceeded(1001)
        assert not CheckpointPolicy(log_highwater=None).highwater_exceeded(10**9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            CheckpointPolicy(interval=0)
        with pytest.raises(ConfigError):
            CheckpointPolicy(log_highwater=-5)
        with pytest.raises(ConfigError):
            CheckpointPolicy(control_transport="bogus")

    def test_disabled(self):
        policy = CheckpointPolicy.disabled()
        assert policy.interval is None
        assert policy.log_highwater is None

    def test_stats(self):
        stats = CheckpointStats()
        stats.record(1.0, 100, "periodic")
        stats.record(2.0, 50, "highwater")
        assert stats.count == 2
        assert stats.bytes_total == 150
        assert stats.triggers == {"periodic": 1, "highwater": 1}


class TestStableStore:
    def _checkpoint(self, pid=0, seq=1) -> Checkpoint:
        ckpt = Checkpoint(pid=pid, taken_at=1.0, seq=seq, threads={},
                          objects={}, log_entries=[], dummy_entries=[])
        ckpt.compute_size()
        return ckpt

    @staticmethod
    def _save(store: StableStore, ckpt: Checkpoint) -> float:
        duration = store.begin_save(ckpt)
        store.commit(ckpt.pid, ckpt.seq)
        return duration

    def test_save_load(self):
        store = StableStore()
        self._save(store, self._checkpoint(seq=1))
        self._save(store, self._checkpoint(seq=2))
        assert store.load(0).seq == 2  # only the most recent kept
        assert store.writes(0) == 2

    def test_load_missing_raises(self):
        with pytest.raises(RecoveryError):
            StableStore().load(7)

    def test_write_duration_model(self):
        store = StableStore()
        ckpt = self._checkpoint()
        ckpt.size = 100_000
        assert self._save(store, ckpt) == pytest.approx(5.0 + 0.00005 * 100_000)

    def test_read_duration_model(self):
        assert StableStore().read_duration(100_000) == pytest.approx(
            10.0 + 0.00005 * 100_000)

    def test_cluster_wide_accounting(self):
        store = StableStore()
        self._save(store, self._checkpoint(pid=0))
        self._save(store, self._checkpoint(pid=1))
        assert store.writes() == 2
        assert store.has_checkpoint(1)
        assert not store.has_checkpoint(9)
