"""Pluggable stable-storage backends for checkpoint images.

:class:`StorageBackend` is the contract the checkpoint layer writes
against; :class:`MemoryBackend` preserves the original in-simulator
behaviour (volatile, zero-copy) and :class:`FileBackend` makes
checkpoints genuinely durable: images survive the Python process, so
recovery can be demonstrated across a real restart (the paper's
"ordinary disks" assumption, section 3).

Both backends implement the same two-phase, two-slot commit protocol:

1. ``begin_write`` stages the new image (FileBackend: serialize to a
   stage file and fsync it).  The previous checkpoint is untouched.
2. ``commit`` publishes it (FileBackend: atomic rename onto the slot
   *not* holding the latest committed image, then fsync the directory).

A crash between the two steps -- the simulator crashes a process while
its checkpoint write is still in flight -- leaves the previous
checkpoint fully intact, which is what makes uncoordinated
checkpointing safe on real disks.  ``read_latest`` CRC-verifies the
newest slot and falls back to the older one if the newest is corrupt.

FileBackend writes behind the simulation.  The calling thread encodes
each image (pickle, zlib, CRC) and decides everything the protocol can
observe -- ``commit``'s result, the slot a commit targets, every
counter -- from what it has staged, never from the disk.  The file
system calls of steps 1 and 2 (stage write and fsync, rename, directory
fsync, segment files, the unlink of a discarded stage) run in
submission order on the store's one writer thread.  The disk has
caught up once :meth:`StorageBackend.flush` returns: every method that
reads the store flushes first, and so does every
:class:`~repro.cluster.system.DisomSystem` call that drives the cluster.
"""

from __future__ import annotations

import abc
import os
import threading
import zlib
from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import CheckpointCorruptError, StorageError
from repro.storage import format as fmt
from repro.storage.faults import StorageFault, StorageFaultInjector
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checkpoint.stable import Checkpoint

SLOT_NAMES = ("slot-a.ckpt", "slot-b.ckpt")

#: File operations a store's writer holds before ``submit`` blocks:
#: bounds the encoded images kept alive while the disk lags.
WRITE_QUEUE_BOUND = 32


def atomic_write_file(path: str, blob: bytes, fsync: bool = True) -> None:
    """Write ``blob`` to ``path`` via write-temp + fsync + atomic rename.

    The publication idiom both checkpoint slots and the scenario result
    cache rely on: readers only ever observe the old content or the
    complete new content, never a torn intermediate (modulo injected
    faults, which deliberately bypass this helper).
    """
    tmp = path + ".wr"
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)


def fsync_dir(path: str) -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class _Writer:
    """A store's write-behind thread: runs file operations in FIFO order.

    The thread starts when work arrives and exits when the queue runs
    empty; it is not a daemon, so interpreter exit waits for pending
    images.  The first exception drops every later operation, so the
    disk holds a prefix of what was submitted, and is raised by the
    next :meth:`flush`.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._queue: deque[tuple[Callable[..., Any], tuple[Any, ...]]] = deque()
        self._running = False
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[Exception] = None

    def submit(self, op: Callable[..., Any], *args: Any) -> None:
        with self._cond:
            while len(self._queue) >= WRITE_QUEUE_BOUND:
                self._cond.wait()
            self._queue.append((op, args))
            if self._running:
                return
            self._running = True
            previous = self._thread
            thread = self._thread = threading.Thread(
                target=self._drain, name="repro-store-writer")
        if previous is not None:
            previous.join()  # past its last operation already
        thread.start()

    def _drain(self) -> None:
        while True:
            with self._cond:
                if not self._queue:
                    self._running = False
                    return
                op, args = self._queue.popleft()
                self._cond.notify_all()
                failed = self._error is not None
            if failed:
                continue
            try:
                op(*args)
            except Exception as exc:  # re-raised by flush()
                with self._cond:
                    self._error = exc

    def flush(self) -> None:
        """Wait for every submitted operation; raise the first error."""
        with self._cond:
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()
        with self._cond:
            error, self._error = self._error, None
        if error is not None:
            raise error


@dataclass
class StorageCounters:
    """Backend-level accounting, surfaced through the run metrics."""

    writes_started: int = 0
    writes_committed: int = 0
    writes_lost: int = 0
    reads: int = 0
    verifies: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    crc_failures: int = 0
    slot_fallbacks: int = 0
    segments_written: int = 0
    segments_reused: int = 0
    gc_files_removed: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class SlotInfo:
    """One slot of one process's store, as seen by inspect/verify."""

    pid: ProcessId
    slot: str
    seq: Optional[int] = None
    taken_at: Optional[float] = None
    stored_bytes: int = 0
    sections: int = 0
    ok: bool = False
    latest: bool = False
    error: Optional[str] = None


class StorageBackend(abc.ABC):
    """Where checkpoint images live.

    The two-phase API mirrors a real disk commit: ``begin_write`` may be
    separated from ``commit`` by simulated time, and a crash in between
    must leave the previously committed image loadable.
    """

    name: str = "abstract"

    def __init__(self, faults: Optional[StorageFaultInjector] = None) -> None:
        self.counters = StorageCounters()
        self.faults = faults or StorageFaultInjector()

    # -- write path ----------------------------------------------------
    @abc.abstractmethod
    def begin_write(self, checkpoint: Checkpoint) -> int:
        """Stage ``checkpoint``; returns bytes physically written so far."""

    @abc.abstractmethod
    def commit(self, pid: ProcessId, seq: int) -> bool:
        """Publish a staged image; False if it never became durable."""

    @abc.abstractmethod
    def discard(self, pid: ProcessId, seq: int) -> None:
        """Drop a staged image that will never commit (crash mid-write)."""

    def flush(self) -> None:
        """Return once every image committed so far is on disk (a no-op
        for a store that does not write behind)."""

    # -- read path -----------------------------------------------------
    @abc.abstractmethod
    def read_latest(self, pid: ProcessId) -> Checkpoint:
        """Load the most recent *intact* committed image.

        Raises :class:`KeyError` when no image was ever committed and
        :class:`CheckpointCorruptError` when every slot fails its CRC.
        """

    @abc.abstractmethod
    def has_checkpoint(self, pid: ProcessId) -> bool:
        """True if at least one intact committed image exists."""

    # -- maintenance ---------------------------------------------------
    @abc.abstractmethod
    def pids(self) -> list[ProcessId]:
        """Processes with at least one slot present."""

    @abc.abstractmethod
    def slots(self, pid: ProcessId) -> list[SlotInfo]:
        """Describe (and CRC-check) every slot of ``pid``."""

    def verify(self, pid: Optional[ProcessId] = None) -> list[SlotInfo]:
        """CRC-verify all slots (of one process, or the whole store)."""
        targets = [pid] if pid is not None else self.pids()
        reports: list[SlotInfo] = []
        for target in targets:
            self.counters.verifies += 1
            reports.extend(self.slots(target))
        return reports

    def gc(self) -> int:
        """Remove files no committed image references; returns the count."""
        return 0


class MemoryBackend(StorageBackend):
    """The original volatile store, behind the pluggable interface.

    Keeps the last two committed images per process (by reference -- the
    checkpoint layer hands over freshly snapshotted structures) plus any
    staged writes, and models torn writes / bit flips as a ``corrupt``
    mark that ``read_latest`` treats exactly like a CRC failure.
    """

    name = "memory"

    def __init__(self, faults: Optional[StorageFaultInjector] = None) -> None:
        super().__init__(faults)
        #: pid -> list of (checkpoint, corrupt), oldest first, max two.
        self._committed: dict[ProcessId, list[tuple[Checkpoint, bool]]] = {}
        self._staged: dict[tuple[ProcessId, int], Checkpoint] = {}

    def begin_write(self, checkpoint: Checkpoint) -> int:
        self.counters.writes_started += 1
        if self.faults.should_fire(StorageFault.STALE_SLOT,
                                   checkpoint.pid, checkpoint.seq):
            self.counters.writes_lost += 1
            return 0
        self._staged[(checkpoint.pid, checkpoint.seq)] = checkpoint
        self.counters.bytes_written += checkpoint.size
        return checkpoint.size

    def commit(self, pid: ProcessId, seq: int) -> bool:
        checkpoint = self._staged.pop((pid, seq), None)
        if checkpoint is None:
            return False
        if self.faults.should_fire(StorageFault.MISSING_RENAME, pid, seq):
            self.counters.writes_lost += 1
            return False
        corrupt = self.faults.should_fire(
            StorageFault.TORN_WRITE, pid, seq
        ) or self.faults.should_fire(StorageFault.BIT_FLIP, pid, seq)
        slots = self._committed.setdefault(pid, [])
        slots.append((checkpoint, corrupt))
        del slots[:-2]
        self.counters.writes_committed += 1
        return not corrupt

    def discard(self, pid: ProcessId, seq: int) -> None:
        if self._staged.pop((pid, seq), None) is not None:
            self.counters.writes_lost += 1

    def read_latest(self, pid: ProcessId) -> Checkpoint:
        slots = self._committed.get(pid)
        if not slots:
            raise KeyError(pid)
        self.counters.reads += 1
        for index, (checkpoint, corrupt) in enumerate(reversed(slots)):
            if corrupt:
                self.counters.crc_failures += 1
                continue
            if index > 0:
                self.counters.slot_fallbacks += 1
            self.counters.bytes_read += checkpoint.full_size or checkpoint.size
            return checkpoint
        raise CheckpointCorruptError(
            f"every in-memory slot of process {pid} is corrupt"
        )

    def has_checkpoint(self, pid: ProcessId) -> bool:
        return any(not corrupt for _, corrupt in self._committed.get(pid, []))

    def pids(self) -> list[ProcessId]:
        return sorted(self._committed)

    def slots(self, pid: ProcessId) -> list[SlotInfo]:
        slots = self._committed.get(pid, [])
        latest_seq = max((c.seq for c, corrupt in slots if not corrupt),
                         default=None)
        return [
            SlotInfo(
                pid=pid, slot=f"mem-{i}", seq=ckpt.seq, taken_at=ckpt.taken_at,
                stored_bytes=ckpt.full_size or ckpt.size, sections=len(fmt.SECTION_NAMES),
                ok=not corrupt, latest=(not corrupt and ckpt.seq == latest_seq),
                error="marked corrupt by fault injection" if corrupt else None,
            )
            for i, (ckpt, corrupt) in enumerate(slots)
        ]


class FileBackend(StorageBackend):
    """Durable on-disk store with the segmented format of
    :mod:`repro.storage.format`.

    Layout under ``root``::

        p<pid>/slot-a.ckpt          committed image (atomic-rename target)
        p<pid>/slot-b.ckpt          the other slot of the two-slot scheme
        p<pid>/segments/<key>.seg   content-addressed delta sections
        p<pid>/.stage-<seq>.tmp     an in-flight (not yet committed) write

    ``incremental`` stores the bulky sections as content-addressed
    segments and skips rewriting segments that already exist, so the
    bytes physically written per checkpoint shrink to the delta.
    """

    name = "file"

    def __init__(
        self,
        root: str,
        compress: bool = True,
        incremental: bool = False,
        fsync: bool = True,
        faults: Optional[StorageFaultInjector] = None,
    ) -> None:
        super().__init__(faults)
        self.root = os.path.abspath(root)
        self.compress = compress
        self.incremental = incremental
        self.fsync = fsync
        #: Staged writes the torn-write fault truncated: their commit
        #: fails post-write verification (see :meth:`commit`).
        self._torn: set[tuple[ProcessId, int]] = set()
        #: Stage files written and not yet renamed or unlinked.
        self._staged: set[tuple[ProcessId, int]] = set()
        #: Until the next flush, what the disk will hold once the writer
        #: catches up: each slot's header seq (-1: none) by pid, and the
        #: segment files written or found.
        self._slot_seqs: dict[ProcessId, list[int]] = {}
        self._segments: set[str] = set()
        self._writer = _Writer()
        os.makedirs(self.root, exist_ok=True)

    # -- paths ---------------------------------------------------------
    def _pid_dir(self, pid: ProcessId) -> str:
        return os.path.join(self.root, f"p{pid}")

    def _slot_path(self, pid: ProcessId, slot: str) -> str:
        return os.path.join(self._pid_dir(pid), slot)

    def _stage_path(self, pid: ProcessId, seq: int) -> str:
        return os.path.join(self._pid_dir(pid), f".stage-{seq}.tmp")

    def _segment_dir(self, pid: ProcessId) -> str:
        return os.path.join(self._pid_dir(pid), "segments")

    def _segment_path(self, pid: ProcessId, key: str) -> str:
        return os.path.join(self._segment_dir(pid), f"{key}.seg")

    # -- low-level io --------------------------------------------------
    def _fsync_dir(self, path: str) -> None:
        if not self.fsync:
            return
        fsync_dir(path)

    # -- write path ----------------------------------------------------
    def begin_write(self, checkpoint: Checkpoint) -> int:
        self.counters.writes_started += 1
        pid, seq = checkpoint.pid, checkpoint.seq
        os.makedirs(self._pid_dir(pid), exist_ok=True)
        if self.faults.should_fire(StorageFault.STALE_SLOT, pid, seq):
            # The write is silently swallowed before anything hits disk.
            self.counters.writes_lost += 1
            return 0

        written = 0
        sections: list[fmt.Section] = []
        values = {
            "meta": {"thread_lts": checkpoint.thread_lts,
                     "size": checkpoint.size,
                     "full_size": checkpoint.full_size},
            "threads": checkpoint.threads,
            "objects": checkpoint.objects,
            "log": checkpoint.log_entries,
            "dummies": checkpoint.dummy_entries,
        }
        for name in fmt.SECTION_NAMES:
            as_segment = self.incremental and name in fmt.DELTA_SECTIONS
            mode = fmt.MODE_SEGMENT if as_segment else fmt.MODE_INLINE
            section, stored = fmt.make_section(name, values[name],
                                               self.compress, mode)
            if as_segment:
                written += self._write_segment(pid, section, stored)
            sections.append(section)

        header = fmt.ImageHeader(
            pid=pid, seq=seq, taken_at=checkpoint.taken_at,
            size=checkpoint.size, full_size=checkpoint.full_size,
            n_sections=len(sections),
        )
        blob = fmt.encode_image(header, sections)
        if self.faults.should_fire(StorageFault.TORN_WRITE, pid, seq):
            # Only a prefix of the image reaches the platter.
            blob = blob[: max(len(blob) * 3 // 5, 1)]
            self._torn.add((pid, seq))
        # Written in place: a stage is only ever committed by the
        # process that finished writing it, and gc removes leftovers.
        self._writer.submit(self._write_stage, self._stage_path(pid, seq), blob)
        self._staged.add((pid, seq))
        written += len(blob)
        self.counters.bytes_written += written
        return written

    def _write_stage(self, stage: str, blob: bytes) -> None:
        with open(stage, "wb") as handle:
            handle.write(blob)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())

    def _write_segment(self, pid: ProcessId, section: fmt.Section,
                       stored: bytes) -> int:
        os.makedirs(self._segment_dir(pid), exist_ok=True)
        path = self._segment_path(pid, section.segment_key)
        # The disk is asked only about a segment this store never wrote.
        if path in self._segments or os.path.exists(path):
            # Same content already durable: this is the incremental win.
            self._segments.add(path)
            self.counters.segments_reused += 1
            return 0
        blob = fmt.encode_segment(section.crc32, section.comp,
                                  section.raw_len, stored)
        # Atomic: an existing segment path must mean complete content.
        self._writer.submit(atomic_write_file, path, blob, self.fsync)
        self._segments.add(path)
        self.counters.segments_written += 1
        return len(blob)

    def commit(self, pid: ProcessId, seq: int) -> bool:
        if (pid, seq) not in self._staged:
            return False
        if self.faults.should_fire(StorageFault.MISSING_RENAME, pid, seq):
            # Crash between fsync and rename: the temp image is garbage
            # (gc removes it); the slot still holds the old checkpoint.
            self.counters.writes_lost += 1
            return False
        self._staged.discard((pid, seq))
        target = self._commit_target(pid, seq)
        self._writer.submit(self._publish, self._stage_path(pid, seq), target)
        self.counters.writes_committed += 1
        if (pid, seq) in self._torn:
            # Post-write read-back verification catches the short image:
            # the slot now holds a torn file that read_latest will reject
            # by CRC, and reporting the write as not durable makes the
            # checkpoint layer keep everything the previous image needs.
            self._torn.discard((pid, seq))
            self.counters.writes_lost += 1
            return False
        if self.faults.should_fire(StorageFault.BIT_FLIP, pid, seq):
            self._writer.submit(self._flip_byte, target)
            return False
        return True

    def _publish(self, stage: str, target: str) -> None:
        os.replace(stage, target)
        self._fsync_dir(os.path.dirname(target))

    def _commit_target(self, pid: ProcessId, seq: int) -> str:
        """The slot to overwrite: the one NOT holding the newest image
        (slot a when neither holds one).  Decided from the headers the
        queued renames will leave (a torn image keeps its header: the
        tear is past it); the disk is read only for a pid with no rename
        queued since the last flush."""
        seqs = self._slot_seqs.get(pid)
        if seqs is None:
            headers = [self._peek_slot(pid, slot) for slot in SLOT_NAMES]
            seqs = self._slot_seqs[pid] = [
                header.seq if header is not None else -1 for header in headers]
        newest = max(seqs)
        index = 1 - seqs.index(newest) if newest >= 0 else 0
        seqs[index] = seq
        return self._slot_path(pid, SLOT_NAMES[index])

    def _flip_byte(self, path: str) -> None:
        with open(path, "r+b") as handle:
            blob = handle.read()
            if not blob:
                return
            # Deterministic target: past the header, scaled by content.
            index = (zlib.crc32(blob) % max(len(blob) - 60, 1)) + 59
            index = min(index, len(blob) - 1)
            handle.seek(index)
            handle.write(bytes([blob[index] ^ 0x40]))

    def discard(self, pid: ProcessId, seq: int) -> None:
        self._torn.discard((pid, seq))
        if (pid, seq) in self._staged:
            self._staged.discard((pid, seq))
            self._writer.submit(os.unlink, self._stage_path(pid, seq))
            self.counters.writes_lost += 1

    def flush(self) -> None:
        """Wait until the writer has caught up; raise its first error."""
        try:
            self._writer.flush()
        finally:
            self._slot_seqs.clear()
            self._segments.clear()

    # -- read path -----------------------------------------------------
    def _peek_slot(self, pid: ProcessId, slot: str) -> Optional[fmt.ImageHeader]:
        path = self._slot_path(pid, slot)
        try:
            with open(path, "rb") as handle:
                head = handle.read(fmt.HEADER_BYTES)
        except OSError:
            return None
        return fmt.peek_header(head, path)

    def _load_slot(self, pid: ProcessId, slot: str) -> Checkpoint:
        path = self._slot_path(pid, slot)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise CheckpointCorruptError(f"{path}: unreadable ({exc})") from exc
        image = fmt.decode_image(blob, path)
        values = {}
        read_bytes = len(blob)
        for name in fmt.SECTION_NAMES:
            section = image.sections.get(name)
            if section is None:
                raise CheckpointCorruptError(f"{path}: missing section {name!r}")
            if section.mode == fmt.MODE_INLINE:
                stored = section.stored
            else:
                stored, seg_bytes = self._read_segment(pid, section, path)
                read_bytes += seg_bytes
            values[name] = fmt.decode_payload(
                stored, section.comp, section.raw_len, section.crc32,
                f"{path}:{name}",
            )
        from repro.checkpoint.stable import Checkpoint

        meta = values["meta"]
        checkpoint = Checkpoint(
            pid=image.header.pid,
            taken_at=image.header.taken_at,
            seq=image.header.seq,
            threads=values["threads"],
            objects=values["objects"],
            log_entries=values["log"],
            dummy_entries=values["dummies"],
            thread_lts=meta["thread_lts"],
            size=image.header.size,
            full_size=image.header.full_size,
        )
        self.counters.bytes_read += read_bytes
        return checkpoint

    def _read_segment(self, pid: ProcessId, section: fmt.Section,
                      context: str) -> tuple[bytes, int]:
        path = self._segment_path(pid, section.segment_key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise CheckpointCorruptError(
                f"{context}: segment {section.segment_key} unreadable ({exc})"
            ) from exc
        comp, crc, raw_len, stored = fmt.decode_segment(blob, path)
        if crc != section.crc32 or raw_len != section.raw_len or comp != section.comp:
            raise CheckpointCorruptError(
                f"{context}: segment {section.segment_key} does not match "
                "its manifest entry"
            )
        return stored, len(blob)

    def _ordered_slots(self, pid: ProcessId) -> list[str]:
        """Slot names holding an image, newest header first."""
        present = []
        for slot in SLOT_NAMES:
            if os.path.exists(self._slot_path(pid, slot)):
                header = self._peek_slot(pid, slot)
                present.append((header.seq if header else -1, slot))
        present.sort(reverse=True)
        return [slot for _, slot in present]

    def read_latest(self, pid: ProcessId) -> Checkpoint:
        self.flush()
        ordered = self._ordered_slots(pid)
        if not ordered:
            raise KeyError(pid)
        self.counters.reads += 1
        errors = []
        for index, slot in enumerate(ordered):
            try:
                checkpoint = self._load_slot(pid, slot)
            except CheckpointCorruptError as exc:
                self.counters.crc_failures += 1
                errors.append(str(exc))
                continue
            if index > 0:
                self.counters.slot_fallbacks += 1
            return checkpoint
        raise CheckpointCorruptError(
            f"every slot of process {pid} failed verification: "
            + "; ".join(errors)
        )

    def has_checkpoint(self, pid: ProcessId) -> bool:
        self.flush()
        return any(self._slot_ok(pid, slot) for slot in self._ordered_slots(pid))

    def _slot_ok(self, pid: ProcessId, slot: str) -> bool:
        try:
            self._load_slot(pid, slot)
            return True
        except CheckpointCorruptError:
            return False

    # -- maintenance ---------------------------------------------------
    def pids(self) -> list[ProcessId]:
        self.flush()
        out = []
        try:
            entries = os.listdir(self.root)
        except OSError:
            return out
        for entry in entries:
            if entry.startswith("p") and entry[1:].isdigit():
                out.append(int(entry[1:]))
        return sorted(out)

    def slots(self, pid: ProcessId) -> list[SlotInfo]:
        self.flush()
        infos = []
        latest_seq = -1
        for slot in SLOT_NAMES:
            path = self._slot_path(pid, slot)
            if not os.path.exists(path):
                continue
            info = SlotInfo(pid=pid, slot=slot,
                            stored_bytes=os.path.getsize(path))
            header = self._peek_slot(pid, slot)
            if header is not None:
                info.seq = header.seq
                info.taken_at = header.taken_at
                info.sections = header.n_sections
            try:
                self._load_slot(pid, slot)
                info.ok = True
                if header is not None and header.seq > latest_seq:
                    latest_seq = header.seq
            except CheckpointCorruptError as exc:
                info.error = str(exc)
            infos.append(info)
        for info in infos:
            info.latest = info.ok and info.seq == latest_seq
        return infos

    def gc(self) -> int:
        """Remove stale temp files and segments no intact slot references."""
        removed = 0
        self._staged.clear()  # every stage file goes
        for pid in self.pids():
            pid_dir = self._pid_dir(pid)
            referenced: set[str] = set()
            for slot in SLOT_NAMES:
                path = self._slot_path(pid, slot)
                try:
                    with open(path, "rb") as handle:
                        image = fmt.decode_image(handle.read(), path)
                except (OSError, CheckpointCorruptError):
                    continue
                for section in image.sections.values():
                    if section.mode == fmt.MODE_SEGMENT:
                        referenced.add(section.segment_key)
            for entry in os.listdir(pid_dir):
                if entry.startswith(".stage-") or entry.endswith(".wr"):
                    os.unlink(os.path.join(pid_dir, entry))
                    removed += 1
            seg_dir = self._segment_dir(pid)
            if os.path.isdir(seg_dir):
                for entry in os.listdir(seg_dir):
                    key = entry[:-4] if entry.endswith(".seg") else entry
                    if key not in referenced:
                        os.unlink(os.path.join(seg_dir, entry))
                        removed += 1
        self.counters.gc_files_removed += removed
        return removed


def make_backend(
    store_dir: Optional[str],
    compress: bool = True,
    incremental: bool = False,
    fsync: bool = True,
    faults: Optional[StorageFaultInjector] = None,
) -> StorageBackend:
    """Backend from configuration: a ``store_dir`` selects the durable
    :class:`FileBackend`, otherwise the volatile :class:`MemoryBackend`."""
    if store_dir is None:
        return MemoryBackend(faults=faults)
    return FileBackend(store_dir, compress=compress, incremental=incremental,
                       fsync=fsync, faults=faults)


__all__ = [
    "FileBackend",
    "MemoryBackend",
    "SlotInfo",
    "StorageBackend",
    "StorageCounters",
    "StorageError",
    "atomic_write_file",
    "fsync_dir",
    "make_backend",
]
