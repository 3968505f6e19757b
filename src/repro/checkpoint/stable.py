"""Stable-storage policy layer.

The paper assumes ordinary disks (explicitly *not* NVRAM or UPS -- section
3).  Where checkpoint images actually live is delegated to a pluggable
:class:`~repro.storage.backend.StorageBackend` (volatile in-memory, or the
durable two-slot on-disk store); this module keeps the *policy*: the
disk cost model that puts checkpoint writes and recovery reads on the
simulated timeline, and per-process write accounting.

Saves are two-phase, mirroring a real disk commit: :meth:`StableStore.
begin_save` stages the image and returns the simulated write duration;
:meth:`StableStore.commit` publishes it once that time has elapsed.  A
process that crashes between the two loses only the in-flight image --
the previously committed checkpoint is never destroyed before the new one
is durable, so recovery always finds an intact image.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import CheckpointCorruptError, RecoveryError
from repro.net.sizing import EMPTY_LIST_BYTES, ITEM_BYTES, blob_size, payload_size
from repro.types import ProcessId


@dataclass
class Checkpoint:
    """One process checkpoint: everything section 4.2 says it includes.

    "The checkpoint includes each thread's stack and machine state, the
    shared data and all system data structures (e.g. the log and per-thread
    data structures)."  Thread stacks are represented by replay prefixes
    (see DESIGN.md substitution note).
    """

    pid: ProcessId
    taken_at: float
    seq: int
    threads: dict[Any, dict[str, Any]]
    objects: dict[str, dict[str, Any]]
    log_entries: list[Any]
    dummy_entries: list[Any]
    #: Logical time of each thread at checkpoint; the source of CkpSet.
    thread_lts: dict[Any, int] = field(default_factory=dict)
    #: Bytes *written* for this checkpoint (the delta, under incremental
    #: checkpointing; otherwise equal to full_size).
    size: int = 0
    #: Bytes of the complete materialized image (what recovery must load).
    full_size: int = 0
    #: ``Thread.records_bytes`` per thread, read only by sizing (no storage
    #: section); None for an image built by hand.
    record_bytes: Optional[dict[Any, int]] = None

    @classmethod
    def capture(cls, process: Any, seq: int, log_entries: list[Any],
                dummy_entries: list[Any]) -> "Checkpoint":
        """The sized image of ``process`` now: every protocol's builder."""
        threads = sorted(process.threads.items())
        checkpoint = cls(
            pid=process.pid, taken_at=process.kernel.now, seq=seq,
            threads={tid: t.checkpoint_state() for tid, t in threads},
            objects=process.directory.snapshot(),
            log_entries=log_entries, dummy_entries=dummy_entries,
            # completed_lt() excludes in-flight acquires (see Thread docs).
            thread_lts={tid: t.completed_lt() for tid, t in threads},
            record_bytes={tid: t.records_bytes() for tid, t in threads})
        checkpoint.compute_size()
        return checkpoint

    def compute_size(self, delta_bytes: Optional[int] = None) -> int:
        """Size the image: ``full_size`` is always the materialized image;
        ``size`` (bytes written) is the delta when one is given --
        incremental checkpoints write less than recovery must read.

        Each section is sized the cheapest correct way.  Thread and dummy
        sections go through the compositional wire-size model
        (:func:`payload_size`), except that with ``record_bytes`` a
        thread's replay records, which grow with the run, are not walked:
        the list costs an empty list + ``ITEM_BYTES`` per record + the
        running total, byte-identical to the walk; nor are a thread's
        dependencies and the dummy entries: each list costs an empty list
        + ``ITEM_BYTES`` per element + the sizes the elements stored when
        they were built.  An image built by hand (no ``record_bytes``) is
        walked.  The log section sums each entry's own ``size_bytes``
        (entries mutate their threadSet).
        The object section is one C-speed serialization (:func:`blob_size`)
        of the whole section: pickle memoises across objects, so per-object
        sizes of the shared, unchanged snapshots would not add up to it.
        """
        log_bytes = 8
        for entry in self.log_entries:
            size_of = getattr(entry, "size_bytes", None)
            log_bytes += size_of() if size_of is not None else payload_size(entry)
        if self.record_bytes is None:
            thread_bytes = payload_size(self.threads)
            dummy_bytes = payload_size(self.dummy_entries)
        else:
            thread_bytes = payload_size(
                {tid: {**state, "records": [], "dep_set": []}
                 for tid, state in self.threads.items()})
            for tid, state in self.threads.items():
                thread_bytes += (_stored_list_bytes(state["dep_set"])
                                 + ITEM_BYTES * len(state["records"])
                                 + self.record_bytes[tid])
            dummy_bytes = (EMPTY_LIST_BYTES
                           + _stored_list_bytes(self.dummy_entries))
        self.full_size = (
            thread_bytes + blob_size(self.objects) + log_bytes + dummy_bytes
        )
        if delta_bytes is None:
            self.size = self.full_size
        else:
            self.size = min(delta_bytes, self.full_size)
        return self.size


def _stored_list_bytes(values: list[Any]) -> int:
    """Size of a list of values that store their size, less the empty
    list: ``ITEM_BYTES`` and the stored ``wire_bytes`` per element."""
    size = ITEM_BYTES * len(values)
    for value in values:
        size += value.wire_bytes
    return size


class StableStore:
    """Cluster-wide stable storage: cost model + accounting over a backend.

    Only the most recent intact checkpoint is served (the recovery
    procedure only ever reads "its most recent checkpoint", section 4.3);
    the backend's two-slot scheme additionally retains the previous image
    so a torn or corrupt latest slot never loses the process.
    """

    #: Simulated disk costs: a fixed latency plus a per-byte transfer.
    #: Reads are what recovery pays to load an image into a free processor.
    WRITE_BASE_TIME = 5.0
    WRITE_PER_BYTE = 0.00005
    READ_BASE_TIME = 10.0
    READ_PER_BYTE = 0.00005

    def __init__(self, backend: Optional[Any] = None) -> None:
        from repro.storage.backend import MemoryBackend

        self.backend = backend if backend is not None else MemoryBackend()
        #: Per-process write count and bytes written.
        self._writes: Counter = Counter()
        self._bytes: Counter = Counter()

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def write_duration(self, size: int) -> float:
        return self.WRITE_BASE_TIME + self.WRITE_PER_BYTE * size

    def read_duration(self, size: int) -> float:
        return self.READ_BASE_TIME + self.READ_PER_BYTE * size

    def note_write(self, pid: ProcessId, size: int) -> None:
        """Account one write of ``size`` bytes by ``pid``, including the
        writes of baselines that bypass the backend."""
        self._writes[pid] += 1
        self._bytes[pid] += size

    def begin_save(self, checkpoint: Checkpoint) -> float:
        """Stage ``checkpoint`` on the backend; returns the simulated
        write duration after which :meth:`commit` makes it loadable."""
        self.note_write(checkpoint.pid, checkpoint.size)
        self.backend.begin_write(checkpoint)
        return self.write_duration(checkpoint.size)

    def commit(self, pid: ProcessId, seq: int) -> bool:
        """Publish a staged checkpoint (the disk write completed)."""
        return self.backend.commit(pid, seq)

    def discard(self, pid: ProcessId, seq: int) -> None:
        """Drop a staged checkpoint whose write will never complete."""
        self.backend.discard(pid, seq)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def load(self, pid: ProcessId) -> Checkpoint:
        """Most recent intact checkpoint of ``pid``, CRC-verified by the
        backend, falling back to the previous slot on a corrupt latest."""
        try:
            return self.backend.read_latest(pid)
        except KeyError:
            raise RecoveryError(
                f"no checkpoint in stable storage for process {pid}"
            ) from None
        except CheckpointCorruptError as exc:
            raise RecoveryError(
                f"every stored checkpoint of process {pid} is corrupt: {exc}"
            ) from exc

    def has_checkpoint(self, pid: ProcessId) -> bool:
        return self.backend.has_checkpoint(pid)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def writes(self, pid: Optional[ProcessId] = None) -> int:
        return self._writes[pid] if pid is not None else sum(self._writes.values())

    def bytes_written(self, pid: Optional[ProcessId] = None) -> int:
        return self._bytes[pid] if pid is not None else sum(self._bytes.values())

    def storage_counters(self) -> dict[str, Any]:
        """Backend-level read/write/verify counters, for the run metrics."""
        return dict(self.backend.counters.as_dict(), backend=self.backend.name)
