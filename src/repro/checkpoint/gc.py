"""Garbage collection of protocol data structures (paper section 4.4).

Three stores grow during the failure-free period and are trimmed when a
``CkpSet`` announcement arrives from a checkpointing process ``P_ckp``:

1. regular log entries: threadSet pairs describing acquires by ``P_ckp``'s
   threads *before* the checkpoint are dropped; old entries (not the last
   version) whose threadSet becomes empty are deleted;
2. dummy log entries created by ``P_ckp`` before the checkpoint are
   deleted;
3. depSet entries whose producer execution point precedes ``P_ckp``'s
   checkpoint are dropped (the producer's checkpointed log already
   contains the corresponding threadSet pairs).

The ``gc_*`` functions return the number of items removed, for the E9
experiment; :func:`covered` is the drop rule the three stores share.

The ``observers`` keyword arguments take the run's
:class:`repro.observers.Observers` registry (``None`` while nobody
listens); every GC drop is announced there together with the CkpSet
justifying it, so GC safety can be audited online.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.checkpoint.log import ProcessLog
from repro.checkpoint.policy import CkpSet
from repro.threads.thread import Thread
from repro.types import ExecutionPoint, ProcessId, Tid

if TYPE_CHECKING:
    from repro.checkpoint.dummy import DummyLog


def covered(point: ExecutionPoint, pid: ProcessId,
            ckpt_lts: dict[Tid, int]) -> bool:
    """Section 4.4's drop rule, written once: ``point`` is on a thread of
    the checkpointing process ``pid`` strictly before that thread's
    checkpoint (``ckpt_lts``).  A CkpSet names only ``pid``'s threads, so
    the pid test comes first and spares the ``Tid``-hashing lookup."""
    tid = point.tid
    if tid.pid != pid:
        return False
    ckpt_lt = ckpt_lts.get(tid)
    return ckpt_lt is not None and point.lt < ckpt_lt


def gc_thread_sets(log: ProcessLog, ckp_set: CkpSet,
                   observers: Optional[Any] = None) -> tuple[int, int]:
    """Trim threadSets against ``ckp_set``; drop dead old entries.
    Returns ``(pairs_removed, entries_removed)``."""
    pid, lts = ckp_set.pid, ckp_set.lts_by_tid()
    pairs_removed = 0
    for entry in log:
        # Fast scan first: most entries have nothing to drop, and the
        # rebuild below allocates.
        thread_set = entry.thread_set
        for pair in thread_set:
            if covered(pair.ep_acq, pid, lts):
                break
        else:
            continue
        kept = []
        for pair in thread_set:
            if covered(pair.ep_acq, pid, lts):
                pairs_removed += 1
                if observers is not None:
                    observers.on_gc_pair_drop(entry, pair, ckp_set)
            else:
                kept.append(pair)
        thread_set[:] = kept
    entries_removed = log.drop_old_unreferenced()
    return pairs_removed, entries_removed


def gc_dummy_log(dummy_log: DummyLog, ckp_set: CkpSet,
                 observers: Optional[Any] = None) -> int:
    """Drop stored dummy entries created by ``P_ckp`` before its checkpoint."""
    dropped = dummy_log.remove_before(ckp_set.pid, ckp_set.lts_by_tid())
    if observers is not None:
        for dummy in dropped:
            observers.on_gc_dummy_drop(dummy, ckp_set)
    return len(dropped)


def gc_dep_sets(threads: Iterable[Thread], ckp_set: CkpSet,
                observers: Optional[Any] = None) -> int:
    """Drop depSet entries with ``ep_prd`` before the producer's checkpoint."""
    pid, lts = ckp_set.pid, ckp_set.lts_by_tid()
    removed = 0
    for thread in threads:
        dep_set = thread.dep_set
        for dep in dep_set:
            if covered(dep.ep_prd, pid, lts):
                break
        else:
            continue
        kept = []
        for dep in dep_set:
            if covered(dep.ep_prd, pid, lts):
                removed += 1
                if observers is not None:
                    observers.on_gc_dep_drop(thread.tid, dep, ckp_set)
            else:
                kept.append(dep)
        dep_set[:] = kept
    return removed


def gc_own_local_deps(threads: Iterable[Thread], thread_lts: dict[Tid, int]) -> int:
    """At checkpoint time, drop this process's own *local* dependencies
    whose acquire happened before the checkpoint (their dummy entries are
    simultaneously discarded, section 4.4 third paragraph)."""
    removed = 0
    for thread in threads:
        ckpt_lt = thread_lts.get(thread.tid)
        if ckpt_lt is None:
            continue
        kept = []
        for dep in thread.dep_set:
            if dep.local and dep.ep_acq.lt < ckpt_lt:
                removed += 1
            else:
                kept.append(dep)
        thread.dep_set[:] = kept
    return removed
