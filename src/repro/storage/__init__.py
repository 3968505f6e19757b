"""Durable stable-storage subsystem.

The paper's recovery argument (sections 4.2-4.3, Theorem 1) assumes
checkpoints survive on ordinary disks.  This package supplies that layer:

* :mod:`repro.storage.backend` -- the :class:`StorageBackend` interface
  with the volatile :class:`MemoryBackend` and the durable, two-slot
  :class:`FileBackend` (write-to-temp + fsync + atomic rename, done
  behind the simulation by one writer thread per store);
* :mod:`repro.storage.format` -- the segmented on-disk image format
  (per-section CRC32, optional zlib, content-addressed delta segments);
* :mod:`repro.storage.faults` -- deterministic storage fault injection
  (torn write, bit flip, missing rename, stale slot).

:class:`repro.checkpoint.stable.StableStore` is the policy layer (disk
cost model, per-process accounting) over a backend from this package.
"""

from repro.storage.backend import (
    FileBackend,
    MemoryBackend,
    SlotInfo,
    StorageBackend,
    StorageCounters,
    make_backend,
)
from repro.storage.faults import (
    FAULTS_BY_NAME,
    StorageFault,
    StorageFaultInjector,
    StorageFaultPlan,
)

__all__ = [
    "FAULTS_BY_NAME",
    "FileBackend",
    "MemoryBackend",
    "SlotInfo",
    "StorageBackend",
    "StorageCounters",
    "StorageFault",
    "StorageFaultInjector",
    "StorageFaultPlan",
    "make_backend",
]
