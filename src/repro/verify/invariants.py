"""Online protocol invariant checker.

An :class:`InvariantChecker` instance registers on the cluster's
unified :class:`~repro.observers.Observers` registry (which every
process, protocol and log is constructed with) and validates, while
the simulation runs:

* **log-version-monotonic** -- versions appended to a process's log for
  one object strictly increase (reset per process on checkpoint
  restore, which legitimately rewinds the log);
* **gc-safety** -- every threadSet pair, dummy entry and depSet entry
  dropped by garbage collection is actually covered by the CkpSet that
  justified the drop (acquire strictly before the checkpointing
  process's floor), and the CkpSet itself never claims floors beyond
  what its process announced (**gc-forged-ckpset**);
* **dummy-coverage** -- every local acquire published as a memory
  event has a matching dummy entry recorded by the protocol (local
  acquires leave no other trace off-node, so a missing dummy is
  unrecoverable); the rule sees every event as it happens, so it does
  not depend on how much of the trace ring survives;
* **recovery-equivalence** -- at the instant a recovery completes, the
  recovered process's owned objects are at versions no newer than the
  crashed incarnation's (the shadow oracle), and once the network
  drains, no surviving read copy is stale relative to its owner
  (**recovery-coherence**).

Violations raise (``strict=True``) or accumulate (``strict=False``) a
structured :class:`~repro.errors.InvariantViolation` carrying the slice
of trace records surrounding the offending event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.errors import InvariantViolation
from repro.sim.tracing import TraceLog
from repro.types import ExecutionPoint, ObjectId, ProcessId, Tid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checkpoint.dummy import DummyEntry
    from repro.checkpoint.log import LogEntry, ThreadSetPair
    from repro.checkpoint.policy import CkpSet
    from repro.types import Dependency
    from repro.verify.events import MemEvent

#: Trace rows attached to a violation for post-mortem diagnosis.
SLICE_LEN = 16


class InvariantChecker:
    """Collects protocol observations and validates the invariants."""

    def __init__(self, trace: Optional[TraceLog] = None,
                 strict: bool = True) -> None:
        self.trace = trace
        self.strict = strict
        self.violations: List[InvariantViolation] = []
        #: Highest version appended so far, per (pid, object).
        self._log_heads: Dict[Tuple[ProcessId, ObjectId], int] = {}
        #: Highest announced checkpoint floor per process, per thread.
        self._ckp_floors: Dict[ProcessId, Dict[Tid, int]] = {}
        #: CkpSets already validated against the announcements.
        self._validated_ckp_sets: Set[Tuple[ProcessId, int, Any]] = set()
        #: Execution points of every dummy entry ever created.
        self._dummy_eps: Set[ExecutionPoint] = set()
        #: Non-replayed local acquires no dummy entry has covered yet,
        #: in first-seen order.
        self._uncovered: Dict[ExecutionPoint, "MemEvent"] = {}

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _report(self, rule: str, detail: str) -> None:
        trace_slice: List[Any] = []
        if self.trace is not None:
            trace_slice = self.trace.tail(SLICE_LEN)
        violation = InvariantViolation(rule, detail, trace_slice=trace_slice)
        if self.strict:
            raise violation
        self.violations.append(violation)

    # ------------------------------------------------------------------
    # ProcessLog notifications (stamped with the owning process's pid)
    # ------------------------------------------------------------------
    def on_log_append(self, pid: ProcessId, entry: "LogEntry") -> None:
        key = (pid, entry.obj_id)
        head = self._log_heads.get(key)
        if head is not None and entry.version <= head:
            self._report(
                "log-version-monotonic",
                f"P{pid} logged {entry.obj_id} v{entry.version} after "
                f"already logging v{head}",
            )
        if head is None or entry.version > head:
            self._log_heads[key] = entry.version

    def on_log_remove(self, pid: ProcessId, entry: "LogEntry") -> None:
        # Removal never rewinds the monotonicity head: a later append of
        # the removed version would still be a protocol bug (the version
        # was produced once and GC does not un-produce it).
        return

    def on_restore(self, pid: ProcessId) -> None:
        """A checkpoint restore legitimately rewinds ``pid``'s log."""
        for key in [k for k in self._log_heads if k[0] == pid]:
            del self._log_heads[key]

    # ------------------------------------------------------------------
    # protocol notifications (DisomCheckpointProtocol.observers)
    # ------------------------------------------------------------------
    def on_dummy_created(self, pid: ProcessId, dummy: "DummyEntry") -> None:
        self._dummy_eps.add(dummy.ep_acq)
        self._uncovered.pop(dummy.ep_acq, None)

    def on_mem_event(self, event: "MemEvent") -> None:
        """Note a local acquire that still needs its dummy entry.

        Replayed local acquires are exempt: their dummies were recorded
        by the pre-crash execution, or -- on a cold restart -- come from
        the checkpoint image itself.
        """
        if event.kind != "acquire" or not event.local or event.replayed:
            return
        point = ExecutionPoint(event.tid, event.lt)
        if point not in self._dummy_eps:
            self._uncovered.setdefault(point, event)

    def on_ckp_set(self, ckp_set: "CkpSet") -> None:
        """Record an announced CkpSet; floors only ever grow."""
        floors = self._ckp_floors.setdefault(ckp_set.pid, {})
        for point in ckp_set.points:
            if point.lt > floors.get(point.tid, -1):
                floors[point.tid] = point.lt

    def _check_ckp_set(self, ckp_set: "CkpSet") -> None:
        """A CkpSet driving GC must not exceed its process's announcements."""
        cache_key = (ckp_set.pid, ckp_set.seq, ckp_set.points)
        if cache_key in self._validated_ckp_sets:
            return
        self._validated_ckp_sets.add(cache_key)
        floors = self._ckp_floors.get(ckp_set.pid)
        if floors is None:
            # No announcement seen from this pid at all (e.g. a cold
            # restart where checkpoints predate this checker): nothing
            # to compare against.
            return
        for point in ckp_set.points:
            known = floors.get(point.tid)
            if known is None or point.lt > known:
                self._report(
                    "gc-forged-ckpset",
                    f"{ckp_set} claims floor {point} beyond P{ckp_set.pid}'s "
                    f"announced floor "
                    f"{known if known is not None else '(none)'}",
                )

    def on_gc_pair_drop(self, entry: "LogEntry", pair: "ThreadSetPair",
                        ckp_set: "CkpSet") -> None:
        self._check_ckp_set(ckp_set)
        floor = ckp_set.lt_of(pair.ep_acq.tid)
        if (pair.ep_acq.tid.pid != ckp_set.pid
                or floor is None or pair.ep_acq.lt >= floor):
            self._report(
                "gc-safety",
                f"threadSet pair {pair} of {entry} dropped by {ckp_set} "
                f"without the acquire being covered by the checkpoint",
            )

    def on_gc_dummy_drop(self, dummy: "DummyEntry",
                         ckp_set: "CkpSet") -> None:
        self._check_ckp_set(ckp_set)
        floor = ckp_set.lt_of(dummy.ep_acq.tid)
        if (dummy.ep_acq.tid.pid != ckp_set.pid
                or floor is None or dummy.ep_acq.lt >= floor):
            self._report(
                "gc-safety",
                f"dummy entry {dummy} dropped by {ckp_set} without the "
                f"acquire being covered by the checkpoint",
            )

    def on_gc_dep_drop(self, tid: Tid, dep: "Dependency",
                       ckp_set: "CkpSet") -> None:
        self._check_ckp_set(ckp_set)
        floor = ckp_set.lt_of(dep.ep_prd.tid)
        if (dep.ep_prd.tid.pid != ckp_set.pid
                or floor is None or dep.ep_prd.lt >= floor):
            self._report(
                "gc-safety",
                f"depSet entry {dep} of {tid} dropped by {ckp_set} without "
                f"the producer point being covered by the checkpoint",
            )

    # ------------------------------------------------------------------
    # recovery checks (driven by the inline verifier)
    # ------------------------------------------------------------------
    def check_recovery_shadow(self, system: Any, pid: ProcessId) -> None:
        """At recovery completion: replay reproduces pre-crash values.

        Replay is deterministic (Theorem 1), so when the recovered
        process owns an object at the same version the crashed
        incarnation (the shadow oracle) owned it at, the data must be
        identical.  Versions may legitimately differ -- replay can stop
        at an earlier recoverable prefix, and the release immediately
        after the last replayed acquire re-executes before this check
        runs -- so only matching-version copies are compared.
        """
        from repro.types import ObjectStatus

        shadow = system.shadows.get(pid)
        process = system.processes.get(pid)
        if shadow is None or process is None or not process.alive:
            return
        for obj in process.directory:
            snap = shadow.objects.get(obj.obj_id)
            if snap is None:
                continue
            if (obj.status is ObjectStatus.OWNED
                    and snap["status"] is ObjectStatus.OWNED
                    and obj.version == snap["version"]
                    and obj.data != snap["data"]):
                self._report(
                    "recovery-equivalence",
                    f"P{pid} recovered {obj.obj_id} v{obj.version} with data "
                    f"{obj.data!r} != pre-crash {snap['data']!r}",
                )

    def check_read_copy_coherence(self, system: Any) -> None:
        """Post-recovery, network drained: no read copy may be stale.

        Requires strict invalidation acks (the A3 ablation relaxes the
        write-waits-for-acks rule and legitimately allows transient
        staleness); the inline verifier gates the call accordingly.
        """
        from repro.types import ObjectStatus

        for spec in system.object_specs:
            obj_id = spec.obj_id
            owners = [
                p for p in system.processes.values()
                if p.alive and p.directory.get(obj_id).status is ObjectStatus.OWNED
            ]
            if len(owners) > 1:
                self._report(
                    "recovery-coherence",
                    f"object {obj_id!r} has {len(owners)} owners after "
                    f"recovery: {sorted(p.pid for p in owners)}",
                )
                continue
            if not owners:
                continue
            owner_obj = owners[0].directory.get(obj_id)
            for process in system.processes.values():
                if not process.alive or process.pid == owners[0].pid:
                    continue
                obj = process.directory.get(obj_id)
                if (obj.status is ObjectStatus.READ
                        and obj.version != owner_obj.version):
                    self._report(
                        "recovery-coherence",
                        f"P{process.pid} holds a stale read copy of "
                        f"{obj_id!r} at v{obj.version}; owner "
                        f"P{owners[0].pid} is at v{owner_obj.version}",
                    )

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def check_dummy_coverage(self,
                             pids: Optional[Set[ProcessId]] = None) -> None:
        """Every (non-replayed) local acquire must have a dummy entry.

        ``pids`` restricts the pass to processes actually running the
        DiSOM protocol (baselines create no dummies by design).  Each
        gap is reported once, however often the pass runs.
        """
        for point, event in list(self._uncovered.items()):
            if pids is not None and event.pid not in pids:
                continue
            del self._uncovered[point]
            self._report(
                "dummy-coverage",
                f"local acquire {point} of {event.obj_id} has no dummy "
                f"entry: it would be unrecoverable after a crash",
            )
