"""Thread control block and generator mechanics.

Implements the paper's figure 3 structure -- ``tid``, ``lt`` (logical
time), ``waitObj`` and ``depSet`` -- plus the runtime machinery: the
program generator, the current pending syscall, CREW holding state for
entry-consistency contract checking, and the *replay prefix* recording that
stands in for stack checkpointing (see package docstring).
"""

from __future__ import annotations

import copy
import enum
from typing import Any, Callable, Optional

from repro.errors import MemoryModelError, RecoveryError
from repro.net.sizing import payload_size
from repro.threads.program import Program, ProgramContext, ProgramGen
from repro.threads.syscalls import (
    AcquireRead,
    AcquireWrite,
    Compute,
    Log,
    Release,
    Syscall,
)
from repro.types import (
    AcquireType,
    Dependency,
    ExecutionPoint,
    ObjectId,
    Tid,
    WaitObj,
)


#: Immutable scalar types whose instances never need copying.  Exact-type
#: membership only: subclasses (enums, bool-like wrappers) fall through to
#: the real deepcopy.
_ATOMIC_TYPES = frozenset((
    type(None), bool, int, float, complex, str, bytes,
))


def snapshot(value: Any) -> Any:
    """Deep copy used everywhere a private/pristine copy is required.

    Semantically ``copy.deepcopy``, with fast paths for the payload
    shapes that dominate simulated workloads: atomic scalars, flat
    lists/dicts of atomics (the synthetic workload's object values) and
    matrices (lists of distinct flat rows -- SOR, matmul).  Each fast
    path returns exactly what deepcopy would return for that shape:
    atoms and all-atomic tuples come back as the original object
    (deepcopy's own behavior for immutables), flat containers become a
    fresh container around the same atomic elements, and matrix rows
    are only copied per-row when no two rows alias each other (aliased
    rows need deepcopy's memo to preserve the aliasing).  Anything
    nested deeper, aliased or user-defined falls through to deepcopy.
    """
    atomic = _ATOMIC_TYPES
    cls = value.__class__
    if cls in atomic:
        return value
    if cls is dict:
        flat = True
        for k, v in value.items():
            if k.__class__ not in atomic or v.__class__ not in atomic:
                flat = False
                break
        if flat:
            return value.copy()
    elif cls is list:
        flat = True
        for item in value:
            if item.__class__ not in atomic:
                flat = False
                break
        if flat:
            return value.copy()
        if all(item.__class__ is list for item in value) and \
                len({id(item) for item in value}) == len(value):
            rows = []
            for row in value:
                if not all(item.__class__ in atomic for item in row):
                    return copy.deepcopy(value)
                rows.append(row.copy())
            return rows
    elif cls is tuple:
        for item in value:
            if item.__class__ not in atomic:
                return copy.deepcopy(value)
        return value
    return copy.deepcopy(value)


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"            # has a pending syscall awaiting dispatch
    WAIT_ACQUIRE = "wait-acquire"
    WAIT_COMPUTE = "wait-compute"
    WAIT_REPLAY = "wait-replay"  # recovery: waiting on a LogList ordering gate
    DONE = "done"
    FAILED = "failed"


#: One element of a thread's replay prefix: ``(kind, value)``, the
#: syscall class name and the (pristine) result the syscall returned.
#: Only acquires have non-None values.  A plain tuple pickles and
#: unpickles with no Python-level call, and the size model charges it
#: ``STATE_BYTES`` plus its two fields, as it charges a wire type.  The
#: value is a never-mutated snapshot, so a record's size is fixed and
#: :meth:`Thread.records_bytes` sizes it once.
Record = tuple[str, Any]


class Thread:
    """One DiSOM thread: figure-3 data structure plus runtime state."""

    def __init__(
        self,
        tid: Tid,
        program: Program,
        rng_factory: Callable[[bool], Any],
    ) -> None:
        # -- paper figure 3 fields ---------------------------------------
        self.tid = tid
        self.lt = 0
        self.wait_obj: Optional[WaitObj] = None
        self.dep_set: list[Dependency] = []

        # -- runtime ------------------------------------------------------
        self.program = program
        self._rng_factory = rng_factory
        self.state = ThreadState.NEW
        self.pending_syscall: Optional[Syscall] = None
        self.result: Any = None
        #: Objects currently held, with the acquire mode.
        self.held: dict[ObjectId, AcquireType] = {}
        #: Private copies held between acquire-write and release-write.
        self.acquired_values: dict[ObjectId, Any] = {}
        #: Replay prefix: results of all completed syscalls since start.
        self.records: list[Record] = []
        #: Size-model bytes of the first ``_records_sized`` records (records_bytes).
        self._records_bytes = self._records_sized = 0
        #: True between an acquire's logical-time tick (issue) and its
        #: completion; distinguishes a truly in-flight acquire from a
        #: thread merely parked at an admission gate (not yet ticked).
        self.acquire_pending = False
        self._gen: Optional[ProgramGen] = None

    # ------------------------------------------------------------------
    # identity / paper helpers
    # ------------------------------------------------------------------
    @property
    def pid(self) -> int:
        return self.tid.pid

    def current_ep(self):
        """The thread's current execution point ``<tid, lt>``."""
        return ExecutionPoint.of(self.tid, self.lt)

    def tick(self) -> None:
        """Increment logical time; called when an acquire is issued."""
        self.lt += 1

    @property
    def done(self) -> bool:
        return self.state is ThreadState.DONE

    @property
    def blocked(self) -> bool:
        return self.state in (
            ThreadState.WAIT_ACQUIRE,
            ThreadState.WAIT_COMPUTE,
            ThreadState.WAIT_REPLAY,
        )

    # ------------------------------------------------------------------
    # generator mechanics
    # ------------------------------------------------------------------
    def _make_context(self, fresh_rng: bool) -> ProgramContext:
        return ProgramContext(
            tid=self.tid,
            params=dict(self.program.params),
            rng=self._rng_factory(fresh_rng),
        )

    def start(self) -> None:
        """Instantiate the program and advance to the first syscall."""
        if self.state is not ThreadState.NEW:
            raise MemoryModelError(f"{self.tid}: start() on non-new thread")
        self._gen = self.program.instantiate(self._make_context(fresh_rng=False))
        self._advance(first=True, send_value=None)

    def resume(self, result: Any, record: bool = True) -> None:
        """Complete the pending syscall with ``result`` and advance.

        The result is recorded (pristine snapshot) into the replay prefix
        unless ``record`` is False (used while feeding a restore).
        """
        syscall = self.pending_syscall
        if syscall is None:
            raise MemoryModelError(f"{self.tid}: resume() with no pending syscall")
        self.acquire_pending = False
        if record:
            cls = syscall.__class__
            value = snapshot(result) if (cls is AcquireRead or cls is AcquireWrite) else None
            self.records.append((cls.__name__, value))
        self._advance(first=False, send_value=result)

    def _advance(self, first: bool, send_value: Any) -> None:
        assert self._gen is not None
        try:
            if first:
                syscall = next(self._gen)
            else:
                syscall = self._gen.send(send_value)
        except StopIteration as stop:
            self.pending_syscall = None
            self.state = ThreadState.DONE
            self.result = stop.value
            return
        if not isinstance(syscall, Syscall):
            raise MemoryModelError(
                f"{self.tid}: program yielded {syscall!r}, not a Syscall"
            )
        self.pending_syscall = syscall
        self.state = ThreadState.READY

    # ------------------------------------------------------------------
    # entry-consistency contract checks (used by the coherence engine)
    # ------------------------------------------------------------------
    def check_can_acquire(self, obj_id: ObjectId) -> None:
        if obj_id in self.held:
            raise MemoryModelError(
                f"{self.tid}: nested acquire of {obj_id!r} "
                f"(already held for {self.held[obj_id]})"
            )

    def check_can_release(self, obj_id: ObjectId) -> AcquireType:
        mode = self.held.get(obj_id)
        if mode is None:
            raise MemoryModelError(
                f"{self.tid}: release of {obj_id!r} which is not held"
            )
        return mode

    def note_acquired(self, obj_id: ObjectId, mode: AcquireType, value: Any) -> None:
        self.held[obj_id] = mode
        self.acquired_values[obj_id] = value

    def note_released(self, obj_id: ObjectId) -> Any:
        self.held.pop(obj_id, None)
        return self.acquired_values.pop(obj_id, None)

    # ------------------------------------------------------------------
    # checkpoint / restore (replay-prefix substitution for stack saving)
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict[str, Any]:
        """Serializable image of this thread for a process checkpoint.

        ``mid_acquire`` is True when the thread has *issued* an acquire
        (logical time already ticked) that has not completed.  On restore
        the tick is undone and the re-executed program re-issues the
        acquire at the same logical time; the checkpoint's CkpSet likewise
        uses the un-ticked value so recovery data collection includes the
        in-flight acquire.
        """
        return {
            "tid": self.tid,
            "lt": self.lt,
            "wait_obj": self.wait_obj,
            "mid_acquire": self.acquire_pending,
            "dep_set": list(self.dep_set),
            "records": list(self.records),
            "held": dict(self.held),
            "acquired_values": snapshot(self.acquired_values),
            "done": self.done,
            "result": snapshot(self.result),
        }

    def records_bytes(self) -> int:
        """Sum of ``payload_size`` over ``records``: a running total that
        sizes each record once, so a checkpoint costs O(new records)
        (the size model walks a value each time it is asked)."""
        if self._records_sized < len(self.records):
            self._records_bytes += sum(map(payload_size, self.records[self._records_sized:]))
            self._records_sized = len(self.records)
        return self._records_bytes

    def completed_lt(self) -> int:
        """Logical time counting only *completed* acquires.

        A deterministic interval starts when an acquire completes (the
        thread is blocked until then), so an in-flight acquire's tick is
        excluded.  Used for CkpSets and for the producer execution points
        recorded at grants -- both must refer to reproducible points.
        """
        return self.lt - 1 if self.acquire_pending else self.lt

    def completed_ep(self):
        return ExecutionPoint.of(self.tid, self.completed_lt())

    def restore_from(self, state: dict[str, Any]) -> None:
        """Rebuild the thread from a checkpoint image.

        Re-runs the program feeding it the recorded syscall results; under
        piece-wise determinism the generator ends up suspended at exactly
        the syscall it was at when the checkpoint was taken.
        """
        if state["tid"] != self.tid:
            raise RecoveryError(
                f"checkpoint tid {state['tid']} does not match thread {self.tid}"
            )
        self.lt = state["lt"]
        self.wait_obj = state["wait_obj"]
        self.dep_set = list(state["dep_set"])
        self.records = list(state["records"])
        self._records_bytes = self._records_sized = 0
        self.held = dict(state["held"])
        self.acquired_values = snapshot(state["acquired_values"])
        self.result = snapshot(state["result"])

        self._gen = self.program.instantiate(self._make_context(fresh_rng=True))
        self.state = ThreadState.NEW
        try:
            syscall: Optional[Syscall] = next(self._gen)
        except StopIteration as stop:
            syscall = None
            self.result = stop.value
        for kind, value in self.records:
            if syscall is None:
                raise RecoveryError(
                    f"{self.tid}: replay prefix longer than program execution"
                )
            self._check_replay_match(syscall, kind)
            send_value = snapshot(value) if value is not None else None
            try:
                syscall = self._gen.send(send_value)
            except StopIteration as stop:
                syscall = None
                self.result = stop.value
        self.pending_syscall = syscall
        if syscall is None and not state["done"]:
            raise RecoveryError(
                f"{self.tid}: program finished during restore but checkpoint "
                "says it had not -- piece-wise determinism violated"
            )
        if state.get("mid_acquire"):
            # The in-flight acquire is re-issued from scratch: undo its
            # logical-time tick and any holding state or dependency
            # recorded before the crash interrupted its completion.
            self.lt -= 1
            self.wait_obj = None
            self.dep_set = [d for d in self.dep_set if d.ep_acq.lt <= self.lt]
            if syscall is not None and isinstance(syscall, (AcquireRead, AcquireWrite)):
                self.held.pop(syscall.obj_id, None)
                self.acquired_values.pop(syscall.obj_id, None)
        self.state = ThreadState.DONE if syscall is None else ThreadState.READY

    def _check_replay_match(self, syscall: Syscall, kind: str) -> None:
        if type(syscall).__name__ != kind:
            raise RecoveryError(
                f"{self.tid}: replay divergence -- program yielded "
                f"{type(syscall).__name__} where the prefix recorded {kind}; "
                "piece-wise determinism violated"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Thread({self.tid}, lt={self.lt}, {self.state.value})"
