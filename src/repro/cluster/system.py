"""Whole-cluster orchestration: the public entry point of the library.

:class:`DisomSystem` builds the kernel, network, stable storage and one
DiSOM process per simulated workstation; declares shared objects; spawns
threads; injects fail-stop crashes; and drives runs to completion,
including detection and recovery of failed processes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.analysis.metrics import SystemMetrics
from repro.baselines import ALL_BASELINES
from repro.checkpoint.policy import CheckpointPolicy
from repro.checkpoint.stable import StableStore
from repro.cluster.config import ClusterConfig, CrashPlan
from repro.cluster.process import DisomProcess
from repro.cluster.shadow import ShadowSnapshot
from repro.errors import (
    ConfigError,
    ProtocolError,
    RecoveryError,
    SimulationError,
)
from repro.storage.backend import make_backend
from repro.storage.faults import StorageFault, StorageFaultPlan
from repro.memory.objects import SharedObjectSpec
from repro.net.network import Network
from repro.observers import Observers
from repro.sim.kernel import Kernel
from repro.sim.tracing import TraceLog
from repro.threads.program import Program
from repro.types import ObjectId, ObjectStatus, ProcessId, Tid

#: Fail-stop detection bound: every survivor learns of a crash this long
#: after it happens ("all surviving processors detect the node failure
#: within bounded time", paper section 3).
DETECTION_DELAY = 5.0
#: Simulated horizon of a run to completion; reaching it raises
#: SimulationError.
MAX_TIME = 1_000_000.0


@dataclass
class RecoveryRecord:
    """One completed (or aborted) recovery, for the experiment reports."""

    pid: ProcessId
    crashed_at: float
    detected_at: float
    finished_at: Optional[float] = None
    replayed_acquires: int = 0
    #: Multiple-failure detection cut some thread's LogList short (4.5).
    truncated: bool = False

    @property
    def duration(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.detected_at


@dataclass
class RunResult:
    """Outcome of one :meth:`DisomSystem.run`."""

    completed: bool
    aborted: bool
    abort_reason: Optional[str]
    duration: float
    final_objects: dict[ObjectId, Any]
    thread_results: dict[Tid, Any]
    metrics: SystemMetrics
    net: dict[str, Any]
    stable_writes: int
    stable_bytes: int
    recoveries: list[RecoveryRecord]
    shadows: dict[ProcessId, ShadowSnapshot] = field(default_factory=dict)
    invariant_violations: list[str] = field(default_factory=list)
    #: Storage-backend counters (reads, writes, CRC failures, slot
    #: fallbacks, segment reuse) -- see StorageCounters.as_dict().
    storage: dict[str, Any] = field(default_factory=dict)
    #: Inline verification outcome (repro.verify.inline.CheckReport)
    #: when the run was checked; its violations are also merged into
    #: ``invariant_violations`` so ``ok`` reflects them.
    check_report: Optional[Any] = None
    #: Sum over processes of each volatile log's high-water byte mark
    #: (see ProcessLog.peak_bytes); the benchmark's ``checkpoint.peak_log_bytes``.
    peak_log_bytes: int = 0

    @property
    def ok(self) -> bool:
        return self.completed and not self.aborted and not self.invariant_violations


class DisomSystem:
    """A simulated DiSOM cluster running the paper's checkpoint protocol."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        checkpoint: Optional[CheckpointPolicy] = None,
        protocol_factory: Optional[Any] = None,
        storage_backend: Optional[Any] = None,
    ) -> None:
        """``protocol_factory`` selects the fault-tolerance scheme: a
        ``protocol(process)`` constructor such as ``NullProtocol`` (see
        :mod:`repro.baselines`); None runs the paper's protocol,
        registered as ``"disom"``.
        ``storage_backend`` overrides the checkpoint store built from the
        config (``ClusterConfig.store_dir`` selects the durable
        :class:`~repro.storage.backend.FileBackend`, which fsyncs); pass
        one to choose compression or fsync."""
        self.config = config or ClusterConfig()
        self.checkpoint_policy = checkpoint or CheckpointPolicy()
        self.protocol_factory = protocol_factory or ALL_BASELINES["disom"]
        trace = TraceLog(
            enabled=self.config.trace,
            max_records=self.config.trace_max_records,
        )
        self.kernel = Kernel(seed=self.config.seed, trace=trace)
        self.network = Network(self.kernel, latency=self.config.latency)
        self.network.drained_hooks.append(self._check_completion)
        if storage_backend is None:
            storage_backend = make_backend(
                self.config.store_dir,
                incremental=self.checkpoint_policy.incremental,
            )
        self.storage_backend = storage_backend
        self.stable_store = StableStore(backend=storage_backend)

        self.processes: dict[ProcessId, DisomProcess] = {}
        self.object_specs: list[SharedObjectSpec] = []
        self._spawn_records: dict[ProcessId, list[Program]] = {}
        self._crash_plans: dict[ProcessId, CrashPlan] = {}
        self._spares_left = self.config.spare_nodes
        self._started = False
        self.aborted = False
        self.abort_reason: Optional[str] = None
        self.shadows: dict[ProcessId, ShadowSnapshot] = {}
        self.recovery_records: list[RecoveryRecord] = []
        #: Cluster-wide grant-once registry (see try_claim_grant).
        self._granted_eps: dict[Any, ProcessId] = {}
        #: Inline verifier (repro.verify.inline.InlineVerifier), attached
        #: by verify.inline.attach() or the config's ``check`` flag: one
        #: more listener on the registry, kept here only so the run
        #: result can ask it to ``finalize()``.
        self.verifier: Optional[Any] = None
        #: The run's one observer registry (repro.observers.Observers):
        #: the config's instance when given, a fresh empty one otherwise.
        #: Every process -- recovery hosts included -- is constructed
        #: with it, so a listener registered here at any time before
        #: ``run()`` sees exactly what one passed via the config sees;
        #: while it is empty, call sites pay one attribute test.
        self.observers: Observers = (self.config.observers
                                     if self.config.observers is not None
                                     else Observers())

        for pid in self.config.pids():
            self._create_process(pid)
        if self.config.check:
            from repro.verify.inline import attach

            attach(self)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _create_process(self, pid: ProcessId) -> DisomProcess:
        process = DisomProcess(
            pid=pid,
            kernel=self.kernel,
            network=self.network,
            stable_store=self.stable_store,
            system=self,
            protocol_factory=self.protocol_factory,
            checkpoint_policy=self.checkpoint_policy,
            strict_invalidation_acks=self.config.strict_invalidation_acks,
            consistency=self.config.consistency,
        )
        self.processes[pid] = process
        process.engine.grant_gate = self.try_claim_grant
        self.network.register(pid, process)
        if self.observers.active:
            self.observers.on_process_created(process)
        return process

    def rebuild_process(self, pid: ProcessId) -> DisomProcess:
        """A fresh process in place of ``pid``, with its objects declared,
        its programs spawned from the start and the network routing to
        it: ready for a checkpoint restore."""
        process = self._create_process(pid)
        for spec in self.object_specs:
            process.declare_object(spec)
        for program in self._spawn_records.get(pid, []):
            process.spawn_thread(program)
        self.network.mark_recovered(pid, process)
        return process

    def claim_spare(self, pid: ProcessId) -> None:
        """Take one spare processor to restart ``pid`` on, or raise."""
        if self._spares_left <= 0:
            raise RecoveryError(
                f"no free processor available to recover P{pid} "
                f"(spare_nodes={self.config.spare_nodes})"
            )
        self._spares_left -= 1

    def try_claim_grant(self, ep: "ExecutionPoint", granting_pid: ProcessId) -> bool:
        """Cluster-wide at-most-one-grant guard per acquire execution point.

        Stands in for the coherence-level duplicate detection the paper
        assumes ("duplicate requests are detected and discarded by the
        memory coherence protocol"): a re-issued request that roams to a
        *different* owner after the original was already granted must not
        be granted a second time.  Reopened for rolled-back executions by
        :meth:`note_rollback`.
        """
        if ep in self._granted_eps:
            return False
        self._granted_eps[ep] = granting_pid
        return True

    def note_rollback(self, resume_lts: dict[Tid, int]) -> None:
        """Each thread in ``resume_lts`` resumes at that logical time:
        what it executed beyond is void.  Forget those grants -- the
        re-execution acquires at the same logical times afresh -- and
        announce ``on_rollback`` so listeners drop that suffix too (the
        re-execution may take a different, shorter path)."""
        for ep in list(self._granted_eps):
            resume = resume_lts.get(ep.tid)
            if resume is not None and ep.lt > resume:
                del self._granted_eps[ep]
        if self.observers.active:
            self.observers.on_rollback(resume_lts)

    def all_pids(self) -> list[ProcessId]:
        return self.config.pids()

    # ------------------------------------------------------------------
    # application setup
    # ------------------------------------------------------------------
    def add_object(self, obj_id: ObjectId, initial: Any = None, home: ProcessId = 0) -> None:
        """Declare a shared object with its initial value and home process."""
        if self._started:
            raise ConfigError("objects must be declared before run()")
        if home not in self.processes:
            raise ConfigError(f"unknown home process {home} for object {obj_id!r}")
        spec = SharedObjectSpec(obj_id=obj_id, initial=initial, home=home)
        self.object_specs.append(spec)
        for process in self.processes.values():
            process.declare_object(spec)

    def spawn(self, pid: ProcessId, program: Program) -> Tid:
        """Spawn a thread running ``program`` on process ``pid``."""
        if self._started:
            raise ConfigError("threads must be spawned before run()")
        if pid not in self.processes:
            raise ConfigError(f"unknown process {pid}")
        thread = self.processes[pid].spawn_thread(program)
        self._spawn_records.setdefault(pid, []).append(program)
        return thread.tid

    def inject_crash(self, pid: ProcessId, at_time: float, recover: bool = True) -> None:
        """Schedule a fail-stop crash of process ``pid``."""
        if pid not in self.processes:
            raise ConfigError(f"unknown process {pid}")
        if pid in self._crash_plans:
            raise ConfigError(
                f"process {pid} scheduled to crash twice; use separate runs "
                "(re-crash of a recovered process is driven by crash_now, "
                "not the static plan)"
            )
        plan = CrashPlan(pid=pid, at_time=at_time, recover=recover)
        self._crash_plans[pid] = plan
        self.kernel.schedule_at(at_time, self._execute_crash, plan,
                                label=f"crash P{pid}")

    def inject_storage_fault(
        self,
        kind: "StorageFault | str",
        pid: Optional[ProcessId] = None,
        seq: Optional[int] = None,
        count: Optional[int] = 1,
    ) -> StorageFaultPlan:
        """Arm a storage-level fault (torn write, bit flip, missing
        rename, stale slot) against matching checkpoint writes; see
        :mod:`repro.storage.faults`."""
        return self.storage_backend.faults.arm(kind, pid=pid, seq=seq, count=count)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    @contextmanager
    def _driving(self) -> Iterator[None]:
        """Hold the trace gate while the cluster is driven, then flush
        the store: write-behind never outlives a call, so when control
        returns every committed image is on disk."""
        try:
            with self.kernel.trace.feeding():
                yield
        finally:
            self.storage_backend.flush()

    def run(self, until: Optional[float] = None) -> RunResult:
        """Run the cluster.

        Without ``until``, runs to application completion (or abort) and
        raises :class:`SimulationError` if the horizon is hit first.  With
        ``until``, stops at that simulated time and returns the partial
        state without raising.
        """
        # The trace gate is held for exactly as long as the cluster is
        # being driven; a finished run leaves nothing set behind it, and
        # no store write pending.
        with self._driving():
            if not self._started:
                self._started = True
                for pid in sorted(self.processes):
                    self.processes[pid].start()
            horizon = until if until is not None else MAX_TIME
            self.kernel.run(until=horizon)
            completed = self.kernel.stop_reason == "completed"
            if self.aborted:
                completed = False
            if until is None:
                # The kernel stops the instant the application completes (or
                # aborts), but the disk finishes writes it already accepted:
                # commit checkpoints whose simulated write was still in flight
                # so the store is left in its durable end-of-run state.
                for pid in sorted(self.processes):
                    self.processes[pid].checkpoint_protocol.flush_pending_writes()
            if until is None and not completed and not self.aborted:
                blocked = self._describe_blocked()
                raise SimulationError(
                    f"run did not complete by t={horizon}: {blocked}"
                )
            return self._build_result(completed)

    def checkpoint_all(self, trigger: str = "explicit") -> None:
        """Checkpoint every alive process at the current simulated instant.

        All images are taken at the same simulated time and committed
        synchronously, so the resulting set of checkpoints forms a
        consistent cut: no checkpointed state can depend on a version
        produced after another process's checkpoint.  Combined with a
        durable backend this makes a planned shutdown fully restartable
        (see :meth:`recover_all_from_storage`).
        """
        if not self._started:
            raise ConfigError("checkpoint_all requires a started system")
        with self._driving():
            for pid in sorted(self.processes):
                process = self.processes[pid]
                if process.alive:
                    process.checkpoint_protocol.take_checkpoint(
                        trigger, synchronous=True)

    def recover_all_from_storage(self) -> None:
        """Cold restart: bring up a whole cluster from durable checkpoints.

        Call on a freshly constructed system (same config, objects and
        programs) whose stable store points at an existing store
        directory, *instead of* starting the application from scratch:
        every process loads its most recent intact checkpoint -- CRC
        verified, falling back to the previous slot on corruption -- and
        the standard concurrent-recovery machinery (sections 4.3/4.5)
        replays all of them to a consistent state, after which the
        remaining application work runs to completion via :meth:`run`.
        """
        if self._started:
            raise ConfigError(
                "recover_all_from_storage must be called before run()"
            )
        self._started = True
        # Each recovery only schedules its checkpoint load here, so every
        # process is recovering before the first request goes out.
        with self._driving():
            for pid in sorted(self.processes):
                self.recovery_records.append(
                    RecoveryRecord(pid=pid, crashed_at=0.0, detected_at=0.0)
                )
                self.processes[pid].checkpoint_protocol.recover_from_storage()

    def _describe_blocked(self) -> str:
        parts = []
        for pid in sorted(self.processes):
            process = self.processes[pid]
            for thread in process.scheduler.unfinished():
                parts.append(f"{thread.tid}[{thread.state.value} {thread.wait_obj}]")
        return "; ".join(parts) if parts else "no unfinished threads (internal stall)"

    # ------------------------------------------------------------------
    # completion / result
    # ------------------------------------------------------------------
    def note_thread_event(self) -> None:
        self._check_completion()

    def note_recovery_complete(self, pid: ProcessId) -> None:
        for record in self.recovery_records:
            if record.pid == pid and record.finished_at is None:
                record.finished_at = self.kernel.now
                record.replayed_acquires = self.processes[pid].metrics.replayed_acquires
        if self.observers.active:
            self.observers.on_recovery_complete(pid)
        self._check_completion()

    def _check_completion(self) -> None:
        if self.aborted:
            return
        if self.network.in_flight:
            # Not quiescent: a message on the wire (e.g. a re-invalidation
            # sent by recovery finalization) may still change state.  The
            # network's drained hook re-runs this check once it lands.
            return
        for process in self.processes.values():
            if not process.alive:
                return
            if process.recovery_manager is not None:
                return
            if not process.all_threads_done():
                return
        self.kernel.stop("completed")

    def abort(self, reason: str, from_pid: ProcessId) -> None:
        """Abort the application (Theorem 2's 'aborted' outcome)."""
        if self.aborted:
            return
        self.aborted = True
        self.abort_reason = reason
        self.kernel.trace.emit(self.kernel.now, "abort", reason, pid=from_pid)
        self.kernel.stop("aborted")

    def _build_result(self, completed: bool) -> RunResult:
        metrics = SystemMetrics(
            per_process={pid: p.metrics for pid, p in self.processes.items()})
        thread_results: dict[Tid, Any] = {}
        for process in self.processes.values():
            for tid, thread in process.threads.items():
                if thread.done:
                    thread_results[tid] = thread.result
        violations: list[str] = []
        final_objects: dict[ObjectId, Any] = {}
        if completed and not self.aborted:
            violations = self.check_invariants()
            final_objects = self.gather_final_objects()
        check_report = None
        if self.verifier is not None:
            check_report = self.verifier.finalize()
            violations.extend(check_report.problem_strings())
        peak_log_bytes = sum(p.checkpoint_protocol.peak_log_bytes()
                             for p in self.processes.values())
        return RunResult(
            completed=completed,
            aborted=self.aborted,
            abort_reason=self.abort_reason,
            duration=self.kernel.now,
            final_objects=final_objects,
            thread_results=thread_results,
            metrics=metrics,
            net=self.network.stats.as_dict(),
            stable_writes=self.stable_store.writes(),
            stable_bytes=self.stable_store.bytes_written(),
            recoveries=list(self.recovery_records),
            shadows=dict(self.shadows),
            invariant_violations=violations,
            storage=self.stable_store.storage_counters(),
            check_report=check_report,
            peak_log_bytes=peak_log_bytes,
        )

    def gather_final_objects(self) -> dict[ObjectId, Any]:
        """Current value of every shared object, read at its owner."""
        values: dict[ObjectId, Any] = {}
        for spec in self.object_specs:
            owner = self._find_owner(spec.obj_id)
            if owner is not None:
                values[spec.obj_id] = owner.directory.get(spec.obj_id).data
        return values

    def _find_owner(self, obj_id: ObjectId) -> Optional[DisomProcess]:
        owners = [
            p for p in self.processes.values()
            if p.alive and p.directory.get(obj_id).status is ObjectStatus.OWNED
        ]
        if len(owners) > 1:
            raise ProtocolError(
                f"object {obj_id!r} has {len(owners)} owners: "
                f"{[p.pid for p in owners]}"
            )
        return owners[0] if owners else None

    def check_invariants(self) -> list[str]:
        """Coherence invariants expected to hold at quiescence."""
        violations: list[str] = []
        for spec in self.object_specs:
            obj_id = spec.obj_id
            try:
                owner = self._find_owner(obj_id)
            except ProtocolError as exc:
                violations.append(str(exc))
                continue
            if owner is None:
                violations.append(f"object {obj_id!r} has no owner")
                continue
            owner_obj = owner.directory.get(obj_id)
            for process in self.processes.values():
                if not process.alive or process.pid == owner.pid:
                    continue
                obj = process.directory.get(obj_id)
                if obj.status is ObjectStatus.READ:
                    if process.pid not in owner_obj.copy_set:
                        violations.append(
                            f"{obj_id!r}: P{process.pid} holds a read copy "
                            f"missing from owner P{owner.pid}'s copySet"
                        )
                    if obj.version != owner_obj.version:
                        violations.append(
                            f"{obj_id!r}: read copy at P{process.pid} has "
                            f"v{obj.version}, owner has v{owner_obj.version}"
                        )
                if obj.version > owner_obj.version:
                    violations.append(
                        f"{obj_id!r}: P{process.pid} has v{obj.version} newer "
                        f"than owner's v{owner_obj.version}"
                    )
        return violations

    # ------------------------------------------------------------------
    # crash / recovery orchestration
    # ------------------------------------------------------------------
    def crash_now(self, pid: ProcessId, recover: bool = True) -> None:
        """Immediately crash ``pid`` (dynamic variant of inject_crash)."""
        self._execute_crash(CrashPlan(pid=pid, at_time=self.kernel.now, recover=recover))

    def _execute_crash(self, plan: CrashPlan) -> None:
        process = self.processes.get(plan.pid)
        if process is None or not process.alive:
            return
        self._crash_plans[plan.pid] = plan
        self.shadows[plan.pid] = ShadowSnapshot.capture(process, self.kernel.now)
        self.kernel.trace.emit(self.kernel.now, "failure", f"P{plan.pid} crashed")
        process.crash()
        self.kernel.schedule(DETECTION_DELAY, self._on_crash_detected, plan.pid,
                             label=f"detect crash P{plan.pid}")
        self.recovery_records.append(
            RecoveryRecord(pid=plan.pid, crashed_at=self.kernel.now,
                           detected_at=-1.0)
        )

    def _on_crash_detected(self, pid: ProcessId) -> None:
        self.kernel.trace.emit(self.kernel.now, "failure", f"crash of P{pid} detected")
        for record in self.recovery_records:
            if record.pid == pid and record.detected_at < 0:
                record.detected_at = self.kernel.now
        for process in self.processes.values():
            if process.alive and process.pid != pid:
                process.engine.note_crashed(pid)
        plan = self._crash_plans.get(pid)
        if plan is not None and not plan.recover:
            return
        self.processes[pid].checkpoint_protocol.recover_crashed(self, pid)
