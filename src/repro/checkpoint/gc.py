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

All functions return the number of items removed, for the E9 experiment.

The ``observers`` keyword arguments take the unified
:class:`repro.observers.Observers` registry (the protocol passes the
run's registry through while anybody is listening, ``None`` otherwise);
every GC drop is announced there together with the CkpSet justifying
it, so GC safety can be audited online.  Register auditors on
``system.observers`` or via ``ClusterConfig(observers=...)``.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.checkpoint.dummy import DummyLog
from repro.checkpoint.log import ProcessLog
from repro.checkpoint.policy import CkpSet
from repro.threads.thread import Thread
from repro.types import Tid


def gc_thread_sets(log: ProcessLog, ckp_set: CkpSet,
                   observers: Optional[Any] = None) -> tuple[int, int]:
    """Trim threadSets against ``ckp_set``; drop dead old entries.

    Returns ``(pairs_removed, entries_removed)``.  ``observers`` (the
    registry) is told of every dropped pair together with the CkpSet
    justifying the drop, so GC safety can be checked online.
    """
    lts = ckp_set.lts_by_tid()
    lts_get = lts.get
    pairs_removed = 0
    for entry in log:
        # Fast scan first: most entries have nothing to drop, and the
        # rebuild below allocates.  ``ep_acq.lt < lts[tid]`` is the drop
        # condition from section 4.4 (acquire before the checkpoint).
        thread_set = entry.thread_set
        dirty = False
        for pair in thread_set:
            ckpt_lt = lts_get(pair.ep_acq.tid)
            if ckpt_lt is not None and pair.ep_acq.lt < ckpt_lt:
                dirty = True
                break
        if not dirty:
            continue
        kept = []
        for pair in thread_set:
            ckpt_lt = lts_get(pair.ep_acq.tid)
            if ckpt_lt is not None and pair.ep_acq.lt < ckpt_lt:
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
    if observers is not None:
        lts = ckp_set.lts_by_tid()
        for dummy in dummy_log:
            ckpt_lt = lts.get(dummy.ep_acq.tid)
            if (dummy.ep_acq.tid.pid == ckp_set.pid
                    and ckpt_lt is not None and dummy.ep_acq.lt < ckpt_lt):
                observers.on_gc_dummy_drop(dummy, ckp_set)
    return dummy_log.remove_before(ckp_set.pid, ckp_set.lts_by_tid())


def gc_dep_sets(threads: Iterable[Thread], ckp_set: CkpSet,
                observers: Optional[Any] = None) -> int:
    """Drop depSet entries with ``ep_prd`` before the producer's checkpoint."""
    lts = ckp_set.lts_by_tid()
    lts_get = lts.get
    ckp_pid = ckp_set.pid
    removed = 0
    for thread in threads:
        dep_set = thread.dep_set
        dirty = False
        for dep in dep_set:
            ckpt_lt = lts_get(dep.ep_prd.tid)
            if (dep.ep_prd.tid.pid == ckp_pid and ckpt_lt is not None
                    and dep.ep_prd.lt < ckpt_lt):
                dirty = True
                break
        if not dirty:
            continue
        kept = []
        for dep in dep_set:
            ckpt_lt = lts_get(dep.ep_prd.tid)
            if (
                dep.ep_prd.tid.pid == ckp_pid
                and ckpt_lt is not None
                and dep.ep_prd.lt < ckpt_lt
            ):
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
