"""Unit tests for the durable storage subsystem: the segmented on-disk
format, the two-slot commit scheme of both backends, CRC detection with
slot fallback, fault injection and store maintenance."""

import os
import struct
import zlib

import pytest

from repro.checkpoint.stable import Checkpoint, StableStore
from repro.errors import CheckpointCorruptError, ConfigError, RecoveryError
from repro.storage import format as fmt
from repro.storage.backend import FileBackend, MemoryBackend, make_backend
from repro.storage.faults import (
    StorageFault,
    StorageFaultInjector,
    StorageFaultPlan,
)
from repro.types import Tid


def make_checkpoint(pid=0, seq=1, taken_at=1.5, payload=None) -> Checkpoint:
    payload = payload if payload is not None else "entry-consistency " * 20
    checkpoint = Checkpoint(
        pid=pid,
        taken_at=taken_at,
        seq=seq,
        threads={Tid(pid, 0): {"records": [payload, seq], "done": False}},
        objects={"x": {"version": seq, "status": "owned", "data": payload}},
        log_entries=[("x", seq, payload)],
        dummy_entries=[("x", seq)],
        thread_lts={Tid(pid, 0): seq},
    )
    checkpoint.compute_size()
    return checkpoint


def assert_same_checkpoint(a: Checkpoint, b: Checkpoint) -> None:
    assert a.pid == b.pid
    assert a.seq == b.seq
    assert a.taken_at == b.taken_at
    assert a.threads == b.threads
    assert a.objects == b.objects
    assert a.log_entries == b.log_entries
    assert a.dummy_entries == b.dummy_entries
    assert a.thread_lts == b.thread_lts
    assert a.size == b.size
    assert a.full_size == b.full_size


def file_backend(tmp_path, **kwargs) -> FileBackend:
    kwargs.setdefault("fsync", False)
    return FileBackend(str(tmp_path / "store"), **kwargs)


def write_committed(backend, checkpoint) -> bool:
    backend.begin_write(checkpoint)
    return backend.commit(checkpoint.pid, checkpoint.seq)


def flip_byte(path: str, offset_from_middle: int = 0) -> None:
    with open(path, "r+b") as handle:
        blob = handle.read()
        index = len(blob) // 2 + offset_from_middle
        handle.seek(index)
        handle.write(bytes([blob[index] ^ 0xFF]))


def latest_slot_path(backend, pid=0) -> str:
    latest = [info for info in backend.slots(pid) if info.latest][0]
    return os.path.join(backend.root, f"p{pid}", latest.slot)


def set_format_version(path: str, version: int) -> None:
    """Stamp ``version`` into a slot's header, with a valid header CRC."""
    crc_at = fmt.HEADER_BYTES - 4
    with open(path, "r+b") as handle:
        head = bytearray(handle.read(fmt.HEADER_BYTES))
        head[4:6] = struct.pack("<H", version)
        head[crc_at:] = struct.pack("<I", zlib.crc32(head[:crc_at]))
        handle.seek(0)
        handle.write(head)


class TestFileBackendRoundTrip:
    def test_round_trip(self, tmp_path):
        backend = file_backend(tmp_path)
        original = make_checkpoint()
        assert write_committed(backend, original)
        loaded = backend.read_latest(0)
        assert_same_checkpoint(original, loaded)
        assert backend.counters.writes_committed == 1
        assert backend.counters.bytes_written > 0
        assert backend.counters.bytes_read > 0

    def test_round_trip_without_compression(self, tmp_path):
        backend = file_backend(tmp_path, compress=False)
        original = make_checkpoint()
        assert write_committed(backend, original)
        assert_same_checkpoint(original, backend.read_latest(0))

    def test_compression_shrinks_the_image(self, tmp_path):
        # Same highly compressible checkpoint, both settings.
        plain = FileBackend(str(tmp_path / "plain"), compress=False,
                            fsync=False)
        packed = FileBackend(str(tmp_path / "packed"), compress=True,
                             fsync=False)
        checkpoint = make_checkpoint(payload="abc" * 2000)
        written_plain = plain.begin_write(checkpoint)
        written_packed = packed.begin_write(checkpoint)
        assert written_packed < written_plain

    def test_two_slot_alternation(self, tmp_path):
        backend = file_backend(tmp_path)
        for seq in (1, 2, 3):
            assert write_committed(backend, make_checkpoint(seq=seq))
        assert backend.read_latest(0).seq == 3
        infos = backend.slots(0)
        # Only ever two slot files; the previous image is still intact.
        assert sorted(info.seq for info in infos) == [2, 3]
        assert [info.seq for info in infos if info.latest] == [3]
        assert all(info.ok for info in infos)

    def test_empty_store_raises_keyerror(self, tmp_path):
        backend = file_backend(tmp_path)
        with pytest.raises(KeyError):
            backend.read_latest(0)
        assert not backend.has_checkpoint(0)


class TestCrcAndFallback:
    def test_corrupt_latest_falls_back_to_previous(self, tmp_path):
        backend = file_backend(tmp_path)
        write_committed(backend, make_checkpoint(seq=1))
        write_committed(backend, make_checkpoint(seq=2))
        latest = [info for info in backend.slots(0) if info.latest][0]
        flip_byte(os.path.join(backend.root, "p0", latest.slot))
        loaded = backend.read_latest(0)
        assert loaded.seq == 1
        assert backend.counters.crc_failures == 1
        assert backend.counters.slot_fallbacks == 1

    def test_all_slots_corrupt_raises(self, tmp_path):
        backend = file_backend(tmp_path)
        write_committed(backend, make_checkpoint(seq=1))
        write_committed(backend, make_checkpoint(seq=2))
        for info in backend.slots(0):
            flip_byte(os.path.join(backend.root, "p0", info.slot))
        with pytest.raises(CheckpointCorruptError):
            backend.read_latest(0)
        assert not backend.has_checkpoint(0)

    def test_truncated_image_detected(self, tmp_path):
        backend = file_backend(tmp_path)
        write_committed(backend, make_checkpoint(seq=1))
        write_committed(backend, make_checkpoint(seq=2))
        latest = [info for info in backend.slots(0) if info.latest][0]
        path = os.path.join(backend.root, "p0", latest.slot)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 3])
        assert backend.read_latest(0).seq == 1

    def test_verify_reports_corruption(self, tmp_path):
        backend = file_backend(tmp_path)
        write_committed(backend, make_checkpoint(seq=1))
        write_committed(backend, make_checkpoint(seq=2))
        latest = [info for info in backend.slots(0) if info.latest][0]
        flip_byte(os.path.join(backend.root, "p0", latest.slot))
        reports = backend.verify()
        assert len(reports) == 2
        bad = [info for info in reports if not info.ok]
        assert len(bad) == 1 and bad[0].error is not None

    def test_unloadable_section_falls_back_to_previous(self, tmp_path):
        # CRC-valid bytes naming a global this build does not have: how
        # an image pickled by another format version looks to pickle.
        backend = file_backend(tmp_path)
        write_committed(backend, make_checkpoint(seq=1))
        write_committed(backend, make_checkpoint(seq=2))
        path = latest_slot_path(backend)
        with open(path, "rb") as handle:
            image = fmt.decode_image(handle.read(), path)
        raw = b"crepro.threads.thread\nNoSuchRecord\n."
        image.sections["threads"] = fmt.Section(
            "threads", raw_len=len(raw), crc32=zlib.crc32(raw), stored=raw)
        with open(path, "wb") as handle:
            handle.write(fmt.encode_image(image.header,
                                          list(image.sections.values())))
        assert backend.read_latest(0).seq == 1
        assert backend.counters.crc_failures == 1
        assert backend.counters.slot_fallbacks == 1
        bad = [info for info in backend.slots(0) if not info.ok]
        assert len(bad) == 1 and "does not unpickle" in bad[0].error


class TestFormatVersion:
    def test_a_version_one_slot_is_skipped(self, tmp_path):
        # Version 2: replay records are plain tuples in the threads section.
        assert fmt.FORMAT_VERSION == 2
        backend = file_backend(tmp_path)
        write_committed(backend, make_checkpoint(seq=1))
        write_committed(backend, make_checkpoint(seq=2))
        set_format_version(latest_slot_path(backend), 1)
        assert backend.read_latest(0).seq == 1
        assert backend.counters.slot_fallbacks == 1
        bad = [info for info in backend.slots(0) if not info.ok]
        assert len(bad) == 1
        assert "unsupported format version 1" in bad[0].error

    def test_two_version_one_slots_raise(self, tmp_path):
        backend = file_backend(tmp_path)
        write_committed(backend, make_checkpoint(seq=1))
        write_committed(backend, make_checkpoint(seq=2))
        for info in backend.slots(0):
            set_format_version(os.path.join(backend.root, "p0", info.slot), 1)
        with pytest.raises(CheckpointCorruptError,
                           match="unsupported format version 1"):
            backend.read_latest(0)
        assert not backend.has_checkpoint(0)


class TestAtomicCommitCrashPoints:
    """A crash at any point of the write protocol keeps the previous
    committed image loadable."""

    def test_crash_before_commit_discards_stage(self, tmp_path):
        backend = file_backend(tmp_path)
        write_committed(backend, make_checkpoint(seq=1))
        backend.begin_write(make_checkpoint(seq=2))
        backend.discard(0, 2)  # fail-stop while the write was in flight
        assert backend.read_latest(0).seq == 1
        assert backend.counters.writes_lost == 1
        assert not any(
            name.startswith(".stage-")
            for name in os.listdir(os.path.join(backend.root, "p0"))
        )

    def test_missing_rename_keeps_previous(self, tmp_path):
        backend = file_backend(tmp_path)
        write_committed(backend, make_checkpoint(seq=1))
        backend.faults.arm("missing-rename", pid=0, seq=2)
        backend.begin_write(make_checkpoint(seq=2))
        assert backend.commit(0, 2) is False
        assert backend.read_latest(0).seq == 1

    def test_torn_write_commit_not_durable(self, tmp_path):
        backend = file_backend(tmp_path)
        write_committed(backend, make_checkpoint(seq=1))
        backend.faults.arm(StorageFault.TORN_WRITE, pid=0, seq=2)
        backend.begin_write(make_checkpoint(seq=2))
        # The torn image fails post-write verification ...
        assert backend.commit(0, 2) is False
        # ... and the slot it landed on fails its CRC at read time.
        assert backend.read_latest(0).seq == 1
        assert backend.counters.crc_failures == 1

    def test_stale_slot_swallows_the_write(self, tmp_path):
        backend = file_backend(tmp_path)
        write_committed(backend, make_checkpoint(seq=1))
        backend.faults.arm("stale-slot", pid=0, seq=2)
        assert backend.begin_write(make_checkpoint(seq=2)) == 0
        assert backend.commit(0, 2) is False
        assert backend.read_latest(0).seq == 1

    def test_bit_flip_after_commit_detected(self, tmp_path):
        backend = file_backend(tmp_path)
        write_committed(backend, make_checkpoint(seq=1))
        backend.faults.arm("bit-flip", pid=0, seq=2)
        backend.begin_write(make_checkpoint(seq=2))
        assert backend.commit(0, 2) is False
        assert backend.read_latest(0).seq == 1
        assert backend.counters.crc_failures == 1


class TestIncrementalSegments:
    def test_unchanged_sections_are_not_rewritten(self, tmp_path):
        backend = file_backend(tmp_path, incremental=True)
        payload = "stable-content " * 50
        first = backend.begin_write(make_checkpoint(seq=1, payload=payload))
        backend.commit(0, 1)
        second = backend.begin_write(make_checkpoint(seq=2, payload=payload))
        backend.commit(0, 2)
        # threads/objects/log sections changed (they embed seq); dummies
        # too -- but identical re-writes of identical content dedupe.
        assert backend.counters.segments_written > 0
        third = backend.begin_write(make_checkpoint(seq=2, payload=payload))
        assert backend.counters.segments_reused > 0
        assert third < first  # all four delta sections reused
        assert second <= first

    def test_segment_round_trip(self, tmp_path):
        backend = file_backend(tmp_path, incremental=True)
        original = make_checkpoint()
        assert write_committed(backend, original)
        assert_same_checkpoint(original, backend.read_latest(0))

    def test_gc_keeps_referenced_segments(self, tmp_path):
        backend = file_backend(tmp_path, incremental=True)
        original = make_checkpoint()
        write_committed(backend, original)
        # Orphans: a stale staged write plus an unreferenced segment.
        backend.begin_write(make_checkpoint(seq=9))
        orphan = os.path.join(backend.root, "p0", "segments", "dead.seg")
        with open(orphan, "wb") as handle:
            handle.write(b"orphaned")
        # Removes the stage file, the planted orphan, and the staged
        # write's own (never-referenced) segments -- never anything the
        # committed image needs.
        removed = backend.gc()
        assert removed >= 2
        assert not os.path.exists(orphan)
        assert not any(
            name.startswith(".stage-")
            for name in os.listdir(os.path.join(backend.root, "p0"))
        )
        assert_same_checkpoint(original, backend.read_latest(0))


class TestMemoryBackendTwoSlot:
    def test_staged_write_does_not_replace_committed(self):
        store = StableStore()
        store.begin_save(make_checkpoint(seq=1))
        store.commit(0, 1)
        store.begin_save(make_checkpoint(seq=2))
        # Crash window: the new image is staged but not durable yet.
        assert store.load(0).seq == 1
        store.commit(0, 2)
        assert store.load(0).seq == 2

    def test_discarded_stage_never_loads(self):
        store = StableStore()
        store.begin_save(make_checkpoint(seq=1))
        store.commit(0, 1)
        store.begin_save(make_checkpoint(seq=2))
        store.discard(0, 2)
        assert store.load(0).seq == 1

    def test_memory_backend_keeps_two_images(self):
        backend = MemoryBackend()
        for seq in (1, 2, 3):
            write_committed(backend, make_checkpoint(seq=seq))
        assert len(backend.slots(0)) == 2
        backend.faults.arm("bit-flip", pid=0, seq=4)
        assert write_committed(backend, make_checkpoint(seq=4)) is False
        assert backend.read_latest(0).seq == 3
        assert backend.counters.slot_fallbacks == 1

    def test_load_empty_store_is_recovery_error(self):
        store = StableStore()
        with pytest.raises(RecoveryError):
            store.load(0)

    def test_storage_counters_name_the_backend(self):
        assert StableStore().storage_counters()["backend"] == "memory"


class TestComputeSize:
    def test_full_checkpoint_sizes_match(self):
        checkpoint = make_checkpoint()
        assert checkpoint.size == checkpoint.full_size > 0

    def test_delta_splits_written_from_materialized(self):
        checkpoint = make_checkpoint()
        full = checkpoint.full_size
        checkpoint.compute_size(delta_bytes=10)
        assert checkpoint.size == 10
        assert checkpoint.full_size == full

    def test_delta_clamped_to_full_size(self):
        checkpoint = make_checkpoint()
        checkpoint.compute_size(delta_bytes=checkpoint.full_size + 999)
        assert checkpoint.size == checkpoint.full_size


class TestFaultInjector:
    def test_unknown_fault_name_rejected(self):
        with pytest.raises(ConfigError):
            StorageFaultInjector().arm("disk-on-fire")

    def test_plan_matches_pid_and_seq(self):
        plan = StorageFaultPlan(StorageFault.TORN_WRITE, pid=1, seq=3)
        assert plan.matches(1, 3)
        assert not plan.matches(1, 4)
        assert not plan.matches(0, 3)

    def test_count_limits_firings(self):
        injector = StorageFaultInjector()
        plan = injector.arm("torn-write", pid=0, count=2)
        fired = [injector.should_fire(StorageFault.TORN_WRITE, 0, seq)
                 for seq in (1, 2, 3)]
        assert fired == [True, True, False]
        assert plan.count == 0

    def test_wrong_kind_does_not_fire(self):
        injector = StorageFaultInjector()
        injector.arm("bit-flip")
        assert not injector.should_fire(StorageFault.TORN_WRITE, 0, 1)


class TestMakeBackend:
    def test_none_store_dir_is_volatile(self):
        assert make_backend(None).name == "memory"

    def test_store_dir_selects_file_backend(self, tmp_path):
        backend = make_backend(str(tmp_path / "s"), fsync=False)
        assert backend.name == "file"
        assert write_committed(backend, make_checkpoint())


class TestFormat:
    def test_header_survives_peek(self):
        header = fmt.ImageHeader(pid=3, seq=7, taken_at=2.5, size=10,
                                 full_size=20, n_sections=5)
        blob = fmt.encode_image(header, [])
        peeked = fmt.peek_header(blob, "test")
        assert (peeked.pid, peeked.seq, peeked.taken_at) == (3, 7, 2.5)

    def test_peek_rejects_garbage(self):
        assert fmt.peek_header(b"not a checkpoint image", "test") is None

    def test_peek_needs_only_the_fixed_header(self):
        section, _ = fmt.make_section("meta", {"k": 1}, compress=False,
                                      mode=fmt.MODE_INLINE)
        header = fmt.ImageHeader(pid=1, seq=4, taken_at=1.5, size=10,
                                 full_size=20, n_sections=1)
        blob = fmt.encode_image(header, [section])
        head = blob[:fmt.HEADER_BYTES]
        assert fmt.peek_header(head, "test") == fmt.peek_header(blob, "test")
        assert fmt.peek_header(head, "test").seq == 4
        assert fmt.peek_header(head[:-1], "test") is None

    def test_payload_crc_mismatch_raises(self):
        section, stored = fmt.make_section("meta", {"k": 1}, compress=False,
                                           mode=fmt.MODE_INLINE)
        with pytest.raises(CheckpointCorruptError):
            fmt.decode_payload(stored, section.comp, section.raw_len,
                               section.crc32 ^ 1, "test")
