"""Failure-free checkpoint protocol (paper section 4.2).

:class:`DisomCheckpointProtocol` plugs into the coherence engine's hook
points and maintains, per process:

* the volatile log of produced object versions (figure 4);
* the dummy-entry machinery for local acquires (figure 5), including the
  "ship with the next coherence message" piggyback rule;
* per-thread depSets (figure 3);
* uncoordinated checkpoints to stable storage, triggered by a periodic
  timer or the log high-water mark, followed by the CkpSet garbage
  collection broadcast (section 4.4) -- itself piggybacked by default;
* its own message kinds: the eager transports of ablation A1, the
  recovery exchange of section 4.3 and the abort of section 4.5.  A
  crash is handed to a :class:`~repro.checkpoint.recovery.RecoveryManager`
  built in :meth:`DisomCheckpointProtocol.recover_from_storage`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.checkpoint.dummy import DummyEntry, DummyLog
from repro.checkpoint.gc import (
    gc_dep_sets,
    gc_dummy_log,
    gc_own_local_deps,
    gc_thread_sets,
)
from repro.checkpoint.log import (
    LogEntry,
    ProcessLog,
    is_pseudo,
    pseudo_ep,
    pseudo_tid,
)
from repro.checkpoint.policy import CkpSet
from repro.checkpoint.recovery import (
    RecoveryManager,
    RecoveryPhase,
    answer_recovery_request,
)
from repro.checkpoint.stable import Checkpoint
from repro.baselines.base import FaultToleranceProtocol
from repro.errors import ConfigError, ProtocolError
from repro.memory.coherence import PendingRequest
from repro.memory.objects import SharedObject, SharedObjectSpec
from repro.net.message import GrantControl, Message, MessageKind, NO_PAYLOAD
from repro.net.sizing import EMPTY_LIST_BYTES, ITEM_BYTES, payload_size
from repro.sim.tracing import TRACE_GATE
from repro.threads.thread import Thread, snapshot
from repro.types import (
    AcquireType,
    Dependency,
    ExecutionPoint,
    ObjectStatus,
    ProcessId,
    Tid,
)

#: How long after RECOVERY_DONE a process waits before re-issuing
#: possibly-lost acquire requests.  It must exceed the maximum in-flight
#: reply latency (see the coherence engine's module docstring).
REISSUE_DELAY = 50.0


class DisomCheckpointProtocol(FaultToleranceProtocol):
    """The paper's checkpoint protocol."""

    name = "disom"
    emits_dummies = True

    def __init__(self, process: Any) -> None:
        # ``process`` is the hosting DisomProcess; duck-typed to avoid a
        # circular import (it provides pid, kernel, threads, directory,
        # metrics, observers, stable_store, checkpoint_policy,
        # consistency, peer_pids() and send_raw()).
        if process.consistency != "entry":
            # The log records entry-consistency version/dependency
            # structure; it has no meaning on the other backends
            # (DESIGN.md section 2.13).
            raise ConfigError(
                f"the DiSOM checkpoint protocol requires consistency='entry', "
                f"got consistency={process.consistency!r}; select "
                f"baseline='none' (or another baseline) to run this backend"
            )
        super().__init__(process)
        self.policy = process.checkpoint_policy
        #: The run's observer registry (see :mod:`repro.observers`).
        self.observers = process.observers
        # Log append/remove notifications carry this process's pid.
        self.log = ProcessLog(self.observers, process.pid)
        self.dummy_log = DummyLog(process.pid)
        #: Dummy entries created locally, not yet shipped off-node.
        self.pending_dummies: list[DummyEntry] = []
        #: Newest unsent CkpSet per destination; it supersedes older ones.
        self.pending_gc: dict[ProcessId, CkpSet] = {}
        self.ckpt_seq = 0
        self.last_ckp_set: Optional[CkpSet] = None
        self._timer_event = None
        #: Checkpoint writes staged on stable storage whose simulated
        #: write duration has not elapsed yet, keyed by sequence number.
        self._inflight: dict[int, Checkpoint] = {}
        #: True while the hosting process is being recovered: replayed
        #: release-writes must not trigger high-water checkpoints.
        self.suppress_checkpoints = False
        #: Fingerprint of the previous checkpoint's state, used by the
        #: incremental-checkpoint extension to size the delta.
        self._ckpt_fingerprint: Optional[dict] = None

    # ------------------------------------------------------------------
    # shorthand
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        # The base image must be durable before the process joins the
        # cluster -- a crash at any later time must find a checkpoint.
        self.take_checkpoint("initial", synchronous=True)
        self.start_timer()

    def overhead_summary(self) -> dict[str, Any]:
        return {
            "log_bytes": self.metrics.log_bytes_created,
            "log_entries": self.metrics.log_entries_created,
            "dummies": self.metrics.dummies_created,
            "checkpoints": self.metrics.checkpoints.count,
            "checkpoint_bytes": self.metrics.checkpoints.bytes_total,
        }

    def peak_log_bytes(self) -> int:
        return self.log.peak_bytes

    # ==================================================================
    # CoherenceHooks implementation
    # ==================================================================
    def on_object_created(self, obj: SharedObject, spec: SharedObjectSpec) -> None:
        if spec.home != self.pid:
            return
        # V0 behaves like any produced version: it gets a log entry so that
        # acquires of it are recoverable.
        entry = LogEntry(
            obj_id=obj.obj_id,
            version=0,
            obj_data=snapshot(obj.data),
            tid_prd=pseudo_tid(self.pid),
            ep_release=pseudo_ep(self.pid),
        )
        self.log.append(entry)
        self.metrics.log_entries_created += 1
        self.metrics.log_bytes_created += entry.size_bytes()

    def on_local_acquire(
        self,
        thread: Thread,
        obj: SharedObject,
        acq_type: AcquireType,
        ep_acq: ExecutionPoint,
        local_dep: Optional[ExecutionPoint],
    ) -> None:
        # Paper 4.2, local acquire step 1.
        dep_point = local_dep if local_dep is not None else pseudo_ep(self.pid)
        dummy = DummyEntry(
            obj_id=obj.obj_id,
            ep_acq=ep_acq,
            local_dep=dep_point,
            p_log=None,
            type=acq_type,
        )
        self.pending_dummies.append(dummy)
        self.metrics.dummies_created += 1
        if self.observers.active:
            self.observers.on_dummy_created(self.pid, dummy)
        thread.dep_set.append(
            Dependency(obj.obj_id, acq_type, ep_acq, dep_point, self.pid, local=True)
        )
        if acq_type.is_write:
            # A local write also supersedes the last version: mark its log
            # entry so that a recovering remote *reader* of that version
            # learns (via the InvalidSet) that its copy went stale.  The
            # paper's step 2(b) only covers remote writers; this is the
            # local-writer analogue.
            entry = self.log.last_entry(obj.obj_id)
            if entry is not None and entry.version == obj.version:
                entry.next_owner = self.pid
                entry.next_owner_ep = ep_acq
                entry.copy_set_at_grant = frozenset(obj.copy_set)
        if self.policy.control_transport == "eager":
            self._ship_dummies_eagerly()

    def on_remote_grant(self, obj: SharedObject,
                        req: PendingRequest) -> ExecutionPoint:
        # Paper 4.2 step 2: record the access in the last version's
        # threadSet; for writes also pre-record the next owner.
        entry = self.log.last_entry(obj.obj_id)
        if entry is None:
            raise ProtocolError(
                f"{self.pid}: owner of {obj.obj_id} has no log entry for the "
                f"last version (v{obj.version})"
            )
        if entry.version != obj.version:
            raise ProtocolError(
                f"{self.pid}: last log entry v{entry.version} does not match "
                f"object version v{obj.version} for {obj.obj_id}"
            )
        ep_prd = self._producer_ep(entry)
        entry.add_access(req.ep_acq, ep_prd)
        if req.type.is_write:
            entry.next_owner = req.p_acq
            entry.next_owner_ep = req.ep_acq
            entry.copy_set_at_grant = frozenset(obj.copy_set - {req.p_acq})
        return ep_prd

    def _producer_ep(self, entry: LogEntry) -> ExecutionPoint:
        """Current execution point of the producer thread (paper 4.2)."""
        tid_prd = entry.tid_prd
        if is_pseudo(tid_prd):
            # Pseudo producer (V0 creation, or an ownership entry): its
            # "current" point is the entry's own release point.
            if entry.ep_release is not None:
                return entry.ep_release
            return pseudo_ep(tid_prd.pid)
        thread = self.process.threads.get(tid_prd)
        if thread is None:
            raise ProtocolError(
                f"{self.pid}: producer thread {tid_prd} not found locally"
            )
        # Only completed acquires count: an in-flight acquire's tick is not
        # a reproducible execution point, and using it would make the
        # multiple-failure detector falsely conservative (it would demand a
        # LogList element for an acquire that never happened).
        return thread.completed_ep()

    def on_reply_received(
        self,
        thread: Thread,
        obj: SharedObject,
        acq_type: AcquireType,
        ep_acq: ExecutionPoint,
        p_prd: ProcessId,
        control: GrantControl,
    ) -> None:
        # Paper 4.2 step 3: record the dependency <objId,type,ep_acq,ep_prd,P>.
        thread.dep_set.append(
            Dependency(obj.obj_id, acq_type, ep_acq, control.ep_prd, p_prd)
        )

    def on_ownership_installed(self, obj: SharedObject,
                               ep_acq: ExecutionPoint) -> None:
        # We own a version produced elsewhere and may serve (read) grants
        # before any local release: materialize the owner's entry.
        last = self.log.owner_entry(obj)
        if last.version == obj.version and last.next_owner is None:
            # This hook only fires for a local write acquire deferred
            # behind sibling readers: our own write supersedes the
            # installed version, so readers we grant meanwhile depend on
            # an entry that must record the supersession -- otherwise a
            # recovering reader replaying from this entry would believe
            # its copy is current (the producer's original entry, which
            # does say next_owner, lives at another process).  Same
            # local-writer analogue as in on_local_acquire.
            last.next_owner = self.pid
            last.next_owner_ep = ep_acq
            last.copy_set_at_grant = frozenset(obj.copy_set)

    def on_release_write(self, thread: Thread, obj: SharedObject) -> None:
        # Paper 4.2 step 4: a new version was produced; log it.
        entry = LogEntry(
            obj_id=obj.obj_id,
            version=obj.version,
            obj_data=snapshot(obj.data),
            tid_prd=thread.tid,
            ep_release=thread.current_ep(),
        )
        self.log.append(entry)
        self.metrics.log_entries_created += 1
        self.metrics.log_bytes_created += entry.size_bytes()
        # The log's size is a sum over it: taken only under a mark.
        if (self.policy.log_highwater is not None
                and self.policy.highwater_exceeded(self.log.size_bytes())):
            # Take the checkpoint outside the release path.
            self.process.kernel.call_soon(
                self._highwater_checkpoint, label=f"highwater-ckpt P{self.pid}"
            )

    def _highwater_checkpoint(self) -> None:
        if (
            self.process.alive
            and not self.suppress_checkpoints
            and self.policy.highwater_exceeded(self.log.size_bytes())
        ):
            self.take_checkpoint("highwater")

    # ==================================================================
    # piggyback transport (the "no extra messages" mechanism)
    # ==================================================================
    def collect_piggyback(self, dst: ProcessId) -> tuple[list[DummyEntry], list[CkpSet]]:
        """Attach pending dummies and GC announcements to an outgoing
        coherence message headed for ``dst`` (paper 4.2 local step 3)."""
        dummies: list[DummyEntry] = []
        if self.pending_dummies and self.policy.control_transport == "piggyback":
            dummies, self.pending_dummies = self.pending_dummies, []
            self._note_dummies_shipped(dummies, dst)
        ckp_set = self.pending_gc.pop(dst, None)
        return dummies, [] if ckp_set is None else [ckp_set]

    def _note_dummies_shipped(self, dummies: list[DummyEntry], dst: ProcessId) -> None:
        """Update the P field of the matching local dependencies (the dummy
        entry now lives in ``dst``)."""
        self.metrics.dummies_shipped += len(dummies)
        for dummy in dummies:
            thread = self.process.threads.get(dummy.ep_acq.tid)
            if thread is None:
                continue
            for i, dep in enumerate(thread.dep_set):
                if dep.local and dep.obj_id == dummy.obj_id and dep.ep_acq == dummy.ep_acq:
                    thread.dep_set[i] = dep.with_p_log(dst)
                    break

    def _ship_dummies_eagerly(self) -> None:
        """Ablation A1: ship dummies in dedicated messages immediately."""
        if not self.pending_dummies:
            return
        dst = self._some_peer()
        if dst is None:
            return
        dummies, self.pending_dummies = self.pending_dummies, []
        self._note_dummies_shipped(dummies, dst)
        self.process.send_raw(
            MessageKind.DUMMY_SHIP, dst, NO_PAYLOAD, dummies=dummies
        )

    def _some_peer(self) -> Optional[ProcessId]:
        peers = [p for p in self.process.peer_pids() if p != self.pid]
        return peers[0] if peers else None

    def on_piggyback(self, src: ProcessId, dummies: list[DummyEntry], ckp_sets: list[CkpSet]) -> None:
        """Incoming checkpoint information extracted from a message.

        While our own checkpoint is still loading the application is
        deferred (the restore would clobber the dummy log), but never
        dropped: the recovery manager applies it right after the restore.
        """
        manager = self.process.recovery_manager
        if manager is not None and manager.phase is RecoveryPhase.LOADING:
            manager.defer_piggyback(src, dummies, ckp_sets)
        else:
            self._apply_piggyback(src, dummies, ckp_sets)

    def _apply_piggyback(self, src: ProcessId, dummies: list[DummyEntry],
                         ckp_sets: list[CkpSet]) -> None:
        for dummy in dummies:
            self.dummy_log.store(dummy)
            self.metrics.dummies_stored += 1
        for ckp_set in ckp_sets:
            self.apply_gc(ckp_set)

    # ==================================================================
    # checkpointing (paper 4.2 last paragraph) and GC (4.4)
    # ==================================================================
    def start_timer(self) -> None:
        if self.policy.interval is None:
            return
        self._timer_event = self.process.kernel.schedule(
            self.policy.interval, self._on_timer, label=f"ckpt-timer P{self.pid}"
        )

    def stop_timer(self) -> None:
        if self._timer_event is not None:
            self._timer_event.cancel()
            self._timer_event = None

    def _on_timer(self) -> None:
        self._timer_event = None
        if not self.process.alive:
            return
        self.take_checkpoint("periodic")
        self.start_timer()

    def take_checkpoint(self, trigger: str, synchronous: bool = False) -> Checkpoint:
        """Checkpoint this process, independently of all others.

        The image is *staged* on stable storage and committed only after
        the simulated write duration (two-slot commit: a crash mid-write
        cannot destroy the previous checkpoint).  Garbage collection and
        the CkpSet broadcast run at commit time -- discarding log state
        or announcing the checkpoint before it is durable would make a
        torn write unrecoverable.  ``synchronous`` commits immediately
        (process start, explicit cluster-wide cuts).
        """
        kernel = self.process.kernel
        self.ckpt_seq += 1
        checkpoint = Checkpoint.capture(self.process, self.ckpt_seq,
                                        self.log.snapshot(), self.dummy_log.snapshot())
        if self.policy.incremental:
            # Re-size with the delta: ``size`` (bytes written) shrinks to
            # the changed state, ``full_size`` stays the materialized image.
            checkpoint.compute_size(delta_bytes=self._incremental_delta(checkpoint))
        duration = self.process.stable_store.begin_save(checkpoint)
        self.metrics.checkpoints.record(kernel.now, checkpoint.size, trigger)
        if TRACE_GATE.active:
            kernel.trace.emit(kernel.now, "checkpoint",
                              f"P{self.pid} checkpoint #{self.ckpt_seq} "
                              f"({trigger})",
                              bytes=checkpoint.size)
        if synchronous:
            self._commit_checkpoint(checkpoint)
        else:
            self._inflight[checkpoint.seq] = checkpoint
            kernel.schedule(
                duration, self._finish_checkpoint_write, checkpoint,
                label=f"ckpt-commit P{self.pid}#{self.ckpt_seq}",
            )
        return checkpoint

    def _finish_checkpoint_write(self, checkpoint: Checkpoint) -> None:
        """The simulated disk write completed (or the node died first)."""
        if self._inflight.pop(checkpoint.seq, None) is None:
            return  # already flushed at end of run
        if not self.process.alive:
            # Fail-stop mid-write: the staged image is torn and must never
            # become loadable; the previous committed slot stays intact.
            self.process.stable_store.discard(checkpoint.pid, checkpoint.seq)
            return
        self._commit_checkpoint(checkpoint)

    def flush_pending_writes(self) -> None:
        """Drain writes still in flight when the simulation horizon ends.

        The kernel stops as soon as the application completes, but the
        disk finishes writes it already accepted regardless of the
        simulated clock; without this, a checkpoint staged just before
        completion would never commit (and never run its GC pass).
        Dead processes instead discard their torn staged images.
        """
        for seq in sorted(self._inflight):
            checkpoint = self._inflight.pop(seq)
            if self.process.alive:
                self._commit_checkpoint(checkpoint)
            else:
                self.process.stable_store.discard(checkpoint.pid, checkpoint.seq)

    def _commit_checkpoint(self, checkpoint: Checkpoint) -> None:
        thread_lts = checkpoint.thread_lts
        committed = self.process.stable_store.commit(
            checkpoint.pid, checkpoint.seq
        )
        if not committed:
            # The write never became durable (injected storage fault).
            # Skipping GC and the CkpSet broadcast keeps every structure
            # the *previous* checkpoint needs for recovery.
            if TRACE_GATE.active:
                self.process.kernel.trace.emit(
                    self.process.kernel.now, "checkpoint",
                    f"P{self.pid} checkpoint #{checkpoint.seq} "
                    "lost before commit",
                )
            return

        # -- local garbage collection (section 4.4) ----------------------
        self.metrics.gc_log_entries_dropped += self.log.drop_old_unreferenced()
        # Own dummies created before the checkpoint are garbage; ones
        # created while the write was in flight must survive.
        def covered(dummy: DummyEntry) -> bool:
            ckpt_lt = thread_lts.get(dummy.ep_acq.tid)
            return ckpt_lt is not None and dummy.ep_acq.lt <= ckpt_lt

        survivors = [d for d in self.pending_dummies if not covered(d)]
        self.metrics.gc_dummies_dropped += len(self.pending_dummies) - len(survivors)
        self.pending_dummies[:] = survivors
        self.metrics.gc_depset_entries_dropped += gc_own_local_deps(
            self.process.threads.values(), thread_lts
        )

        # -- CkpSet broadcast ---------------------------------------------
        ckp_set = CkpSet(
            pid=self.pid,
            seq=checkpoint.seq,
            points=tuple(ExecutionPoint.of(tid, lt)
                         for tid, lt in sorted(thread_lts.items())),
        )
        self.last_ckp_set = ckp_set
        if self.observers.active:
            self.observers.on_ckp_set(ckp_set)
        if self.policy.control_transport == "eager":
            for peer in self.process.peer_pids():
                if peer != self.pid:
                    self.process.send_raw(MessageKind.CKPT_GC, peer, NO_PAYLOAD,
                                          ckp_sets=[ckp_set])
        else:
            for peer in self.process.peer_pids():
                if peer != self.pid:
                    self.pending_gc[peer] = ckp_set

    def _incremental_delta(self, checkpoint: Checkpoint) -> int:
        """Bytes that changed since the previous checkpoint (extension A4).

        The stable store keeps the materialized full image (as a real
        implementation would via log-structured segments + compaction);
        only the delta is *written*, which is the cost this models:
        objects whose version/status changed, thread replay records
        appended since the last checkpoint, and new log/dummy entries.
        """
        objects_fp = {
            oid: (snap["version"], snap["status"], snap["ep_dep"])
            for oid, snap in checkpoint.objects.items()
        }
        # Per thread: how many replay records, and their running total.
        records_fp = {tid: (len(state["records"]), checkpoint.record_bytes[tid])
                      for tid, state in checkpoint.threads.items()}
        log_fp = {(e.obj_id, e.version) for e in checkpoint.log_entries}
        dummy_fp = {(d.obj_id, d.ep_acq) for d in checkpoint.dummy_entries}

        previous = self._ckpt_fingerprint
        self._ckpt_fingerprint = {
            "objects": objects_fp,
            "records": records_fp,
            "log": log_fp,
            "dummies": dummy_fp,
        }
        if previous is None:
            return checkpoint.full_size

        delta = 64  # fixed header (timestamps, thread lts)
        for oid, fp in objects_fp.items():
            if previous["objects"].get(oid) != fp:
                delta += payload_size(checkpoint.objects[oid])
        for tid, (count, total) in records_fp.items():
            # The records appended since, sized from the running totals:
            # an empty list, ITEM_BYTES per record, the total's growth.
            old_count, old_total = previous["records"].get(tid, (0, 0))
            delta += (EMPTY_LIST_BYTES + ITEM_BYTES * (count - old_count)
                      + total - old_total + 32)
        for entry in checkpoint.log_entries:
            if (entry.obj_id, entry.version) not in previous["log"]:
                delta += entry.size_bytes()
        for dummy in checkpoint.dummy_entries:
            if (dummy.obj_id, dummy.ep_acq) not in previous["dummies"]:
                delta += dummy.wire_bytes
        return min(delta, checkpoint.full_size)

    def apply_gc(self, ckp_set: CkpSet) -> None:
        """Receiver-side GC on a CkpSet announcement (section 4.4)."""
        observers = self.observers if self.observers.active else None
        pairs, entries = gc_thread_sets(self.log, ckp_set, observers=observers)
        self.metrics.gc_threadset_pairs_dropped += pairs
        self.metrics.gc_log_entries_dropped += entries
        self.metrics.gc_dummies_dropped += gc_dummy_log(
            self.dummy_log, ckp_set, observers=observers
        )
        self.metrics.gc_depset_entries_dropped += gc_dep_sets(
            self.process.threads.values(), ckp_set, observers=observers
        )

    # ==================================================================
    # protocol messages
    # ==================================================================
    def _piggyback_only(self, message: Message) -> None:
        """DUMMY_SHIP, CKPT_GC: nothing left to do, the piggyback was
        already consumed on arrival."""

    def _on_recovery_request(self, message: Message) -> None:
        manager = self.process.recovery_manager
        if manager is not None:
            manager.on_peer_request(message)
        else:
            answer_recovery_request(self.process, message, (
                list(self.log),
                list(self.dummy_log),
                {tid: t.dep_set for tid, t in self.process.threads.items()},
            ))

    def _on_recovery_reply(self, message: Message) -> None:
        manager = self.process.recovery_manager
        if manager is not None:
            manager.on_reply(message)

    def _on_recovery_done(self, message: Message) -> None:
        manager = self.process.recovery_manager
        if manager is not None:
            # Still recovering ourselves: apply the purge once our own
            # restore/replay is finished (it operates on the live log).
            manager.defer_done(message)
        else:
            self.apply_recovery_done(message.src, message.payload.resume_lts)

    def _on_abort(self, message: Message) -> None:
        self.process.system.abort(message.payload.reason, from_pid=message.src)

    handlers = {
        MessageKind.DUMMY_SHIP: _piggyback_only,
        MessageKind.CKPT_GC: _piggyback_only,
        MessageKind.RECOVERY_REQUEST: _on_recovery_request,
        MessageKind.RECOVERY_REPLY: _on_recovery_reply,
        MessageKind.RECOVERY_DONE: _on_recovery_done,
        MessageKind.ABORT: _on_abort,
    }

    # ==================================================================
    # recovery (section 4.3) and restore support
    # ==================================================================
    def recover_crashed(self, system: Any, pid: ProcessId) -> None:
        system.claim_spare(pid)
        # "The first step to recover a process is to get its most recent
        # checkpoint and reload it in a free processor."
        system.rebuild_process(pid).checkpoint_protocol.recover_from_storage()

    def recover_from_storage(self) -> None:
        process = self.process
        manager = RecoveryManager(
            process=process,
            checkpoint=process.stable_store.load(self.pid),
        )
        process.recovery_manager = manager
        manager.start()
        # Other in-flight recoveries sent their request while this process
        # was dark; re-send so it can answer from its checkpoint.
        for other in process.system.processes.values():
            other_mgr = other.recovery_manager
            if other.pid != self.pid and other_mgr is not None and other_mgr.ckp_set is not None:
                other_mgr.send_request_to(self.pid)

    def apply_recovery_done(self, src: ProcessId, resume_lts: dict[Tid, int]) -> None:
        """RECOVERY_DONE from ``src``: forget its discarded executions,
        then retry our own blocked acquires."""
        self.process.engine.note_recovered(src, resume_lts)
        self.purge_stale(src, resume_lts)
        self.schedule_reissue()

    def schedule_reissue(self) -> None:
        """Periodically re-issue possibly-lost acquire requests until no
        thread of this process is blocked (duplicates are deduplicated
        at the owner, so retrying is safe)."""
        process = self.process

        def _tick() -> None:
            if not process.alive or process.system.aborted:
                return
            process.engine.reissue_pending()
            if any(t.wait_obj is not None for t in process.threads.values()):
                process.kernel.schedule(REISSUE_DELAY, _tick,
                                        label=f"reissue P{self.pid}")

        process.kernel.schedule(REISSUE_DELAY, _tick, label=f"reissue P{self.pid}")

    def restore_from_checkpoint(self, checkpoint: Checkpoint) -> None:
        # Writes the crashed incarnation left in flight are torn.
        for seq in sorted(self._inflight):
            staged = self._inflight.pop(seq)
            self.process.stable_store.discard(staged.pid, staged.seq)
        if self.observers.active:
            # log.restore() replays appends; the checker must forget this
            # process's pre-crash version history first.
            self.observers.on_restore(self.pid)
        self.log.restore(checkpoint.log_entries)
        self.dummy_log.restore(checkpoint.dummy_entries)
        self.pending_dummies.clear()
        self.pending_gc.clear()
        self.ckpt_seq = checkpoint.seq
        # Ownership restored from the checkpoint without a matching log
        # entry (the reply installed it while the acquiring thread was
        # still blocked on invalidation acks): synthesize the owner's
        # entry so grants work.
        for obj in self.process.directory:
            if obj.status is ObjectStatus.OWNED:
                self.log.owner_entry(obj)

    def purge_stale(self, pid: ProcessId, resume_lts: dict[Tid, int]) -> None:
        """RECOVERY_DONE from ``pid``: drop records of executions the
        recovering process discarded (acquires beyond its replay prefix).

        Without this, the re-executed thread's fresh acquires at the same
        logical times would collide with stale threadSet pairs / stored
        dummies left behind by the pre-crash execution.
        """

        def stale(point: ExecutionPoint) -> bool:
            if point.tid.pid != pid:
                return False
            resume = resume_lts.get(point.tid)
            return resume is not None and point.lt > resume

        for entry in self.log:
            entry.thread_set[:] = [p for p in entry.thread_set if not stale(p.ep_acq)]
            if (
                entry.next_owner == pid
                and entry.next_owner_ep is not None
                and stale(entry.next_owner_ep)
            ):
                # The write acquire that took ownership was discarded by
                # the recovering process's rollback: reclaim ownership of
                # the version we still hold in the log.
                entry.next_owner = None
                entry.next_owner_ep = None
                self._reclaim_ownership(entry)
                entry.copy_set_at_grant = None
        self.log.drop_old_unreferenced()
        stale_dummies = [d for d in self.dummy_log if stale(d.ep_acq)]
        if stale_dummies:
            survivors = [d for d in self.dummy_log if not stale(d.ep_acq)]
            self.dummy_log.restore(survivors)

    def _reclaim_ownership(self, entry: LogEntry) -> None:
        """Become the owner of ``entry``'s object again after the granted
        writer's recovery rolled back past its acquire."""
        obj = self.process.directory.get(entry.obj_id)
        last = self.log.last_entry(entry.obj_id)
        if last is not entry:
            return  # a newer local version supersedes this one
        if obj.status is ObjectStatus.OWNED:
            return
        obj.status = ObjectStatus.OWNED
        obj.prob_owner = self.pid
        obj.version = entry.version
        obj.data = entry.data_copy()
        obj.copy_set = entry.copy_holders(self.pid)
        if TRACE_GATE.active:
            self.process.kernel.trace.emit(
                self.process.kernel.now, "recovery",
                f"P{self.pid} reclaimed ownership of "
                f"{entry.obj_id} v{entry.version}",
            )
        # Requests for the object may have queued while nobody owned it.
        self.process.engine._process_queue(obj)
