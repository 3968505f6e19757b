"""Abstract consistency checker (paper section 3.1 and figure 1).

The paper defines: *"A system state is consistent if all threads, holding
objects, hold the last versions of those objects and no thread has acquired
a version of an object that was lost due to a failure."*

This module evaluates that definition over an *abstract history*: a
per-thread sequence of acquires (``O_v^t`` in the paper's notation, i.e.
object, version, read/write type) and, implicitly, the versions produced by
write acquires.  A :class:`Cut` selects a prefix of each thread's history --
exactly the dashed "system state" lines S1/S2/S3 of figure 1 -- and
:func:`check_consistency` decides whether that cut is a consistent state.

The same checker doubles as the post-recovery assertion for Theorems 1/2:
an :class:`AcquireHistory` listener lowers a concrete run's final
execution into this abstract form, and the recovery integration tests
check it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import ConfigError
from repro.types import AcquireType, ObjectId, Tid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verify.events import MemEvent


@dataclass(frozen=True, slots=True)
class AbstractAcquire:
    """One acquire in the abstract notation of figure 1: ``O_v^t``.

    A write acquire of version ``v`` *produces* version ``v + 1`` at its
    release (paper section 3.1: "A new version, based on the copy, is
    produced when the thread releases the object").
    """

    obj_id: ObjectId
    version: int
    type: AcquireType

    def __str__(self) -> str:
        return f"{self.obj_id}_{self.version}^{self.type.value}"

    @property
    def produces(self) -> Optional[int]:
        """Version number produced by this acquire's release (writes only)."""
        return self.version + 1 if self.type.is_write else None


@dataclass
class History:
    """Per-thread sequences of acquires, in program order."""

    threads: dict[str, list[AbstractAcquire]] = field(default_factory=dict)

    def add(self, thread: str, *acquires: AbstractAcquire) -> "History":
        self.threads.setdefault(thread, []).extend(acquires)
        return self

    def thread_names(self) -> list[str]:
        return sorted(self.threads)

    def full_cut(self) -> "Cut":
        """The cut including every thread's complete history."""
        return Cut({t: len(seq) for t, seq in self.threads.items()})


@dataclass(frozen=True)
class Cut:
    """A system state: for each thread, how many acquires are included."""

    positions: dict[str, int]

    def included(self, history: History, thread: str) -> list[AbstractAcquire]:
        return history.threads.get(thread, [])[: self.positions.get(thread, 0)]


class AcquireHistory:
    """Observers listener: a run's completed acquires as a :class:`History`.

    Register it on ``system.observers`` before ``run()``.  Keyed by
    ``(tid, lt)``, a re-executed acquire overwrites its rolled-back
    ancestor, and ``on_rollback`` drops the suffix a shorter
    re-execution would leave behind, so at quiescence :meth:`history`
    is the *final* execution.
    """

    def __init__(self) -> None:
        self._acquires: dict[Tid, dict[int, AbstractAcquire]] = {}

    def on_mem_event(self, event: "MemEvent") -> None:
        if event.kind == "acquire":
            self._acquires.setdefault(event.tid, {})[event.lt] = AbstractAcquire(
                event.obj_id, event.version, AcquireType(event.mode))

    def on_rollback(self, resume_lts: dict[Tid, int]) -> None:
        for tid, resume in resume_lts.items():
            by_lt = self._acquires.get(tid, {})
            for lt in [lt for lt in by_lt if lt > resume]:
                del by_lt[lt]

    def history(self) -> tuple[History, Cut]:
        """``(history, cut)`` for :func:`check_consistency`: every thread's
        acquires in logical-time order, and the cut including all of them."""
        history = History()
        for tid in sorted(self._acquires):
            by_lt = self._acquires[tid]
            history.add(str(tid), *(by_lt[lt] for lt in sorted(by_lt)))
        return history, history.full_cut()


@dataclass(frozen=True)
class ConsistencyVerdict:
    """Result of a consistency check, with an explanation for reports."""

    consistent: bool
    reason: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.consistent


def _produced_versions(history: History, cut: Cut) -> dict[ObjectId, set[int]]:
    """Versions existing within the cut: V0 plus every version produced by
    an included write acquire's release."""
    produced: dict[ObjectId, set[int]] = {}
    for thread in history.thread_names():
        for acq in cut.included(history, thread):
            produced.setdefault(acq.obj_id, {0})
            if acq.produces is not None:
                produced[acq.obj_id].add(acq.produces)
    # Objects that appear anywhere in the history always have V0.
    for seq in history.threads.values():
        for acq in seq:
            produced.setdefault(acq.obj_id, {0})
    return produced


def check_consistency(
    history: History,
    cut: Cut,
    lost_versions: Iterable[tuple[ObjectId, int]] = (),
) -> ConsistencyVerdict:
    """Evaluate the section-3.1 consistency definition over a cut.

    ``lost_versions`` lists object versions destroyed by a failure; the
    definition's second clause forbids any included acquire of a lost
    version.  The first clause -- "all threads holding objects hold the
    last versions" -- is evaluated structurally: an acquire of version ``v``
    included in the cut requires version ``v`` to exist within the cut,
    i.e. the producing write acquire (of ``v - 1``) must also be included.
    This is exactly how figure 1's S1 is inconsistent: the acquire
    ``Y_2^r`` is included while the producing acquire ``Y_1^w`` is not.
    """
    lost = set(lost_versions)
    produced = _produced_versions(history, cut)

    for thread in history.thread_names():
        included = cut.included(history, thread)
        for acq in included:
            if (acq.obj_id, acq.version) in lost:
                return ConsistencyVerdict(
                    False,
                    f"thread {thread} acquired lost version "
                    f"{acq.obj_id}:v{acq.version}",
                )
            existing = produced.get(acq.obj_id, {0})
            if acq.version not in existing:
                return ConsistencyVerdict(
                    False,
                    f"thread {thread} includes acquire {acq} but version "
                    f"{acq.version} is not produced within the state",
                )
    return ConsistencyVerdict(True, "all included acquires observe produced, non-lost versions")


def enumerate_cuts(history: History) -> Iterable[Cut]:
    """Enumerate every cut of a (small) history -- used by figure-1 tests."""
    names = history.thread_names()

    def rec(i: int, positions: dict[str, int]) -> Iterable[Cut]:
        if i == len(names):
            yield Cut(dict(positions))
            return
        name = names[i]
        for k in range(len(history.threads[name]) + 1):
            positions[name] = k
            yield from rec(i + 1, positions)

    if any(len(seq) > 12 for seq in history.threads.values()):
        raise ConfigError("enumerate_cuts is exponential; history too large")
    yield from rec(0, {})
