"""Structured trace log.

Traces are for people: every protocol layer appends :class:`TraceRecord`
rows, and timelines, violation slices and tests filter them.  Nothing in
the program consumes a row's ``fields`` -- code that needs an event
subscribes to :mod:`repro.observers` instead -- which is why the log may
be bounded for very long runs; the bound is a true ring (drop-oldest,
one record at a time) so the retained window is always the most recent
``max_records`` rows.

A row stores the values it was emitted with -- its text and keyword
fields, or a renderer and the scalars (or frozen event) to render from --
and renders them on first read (``message``, ``fields``, ``str``).
:meth:`TraceLog.emit` is the one entry point; on a disabled log it
returns before any string, dict or row is built.

**Trace-free fast mode.**  Most production-sized runs trace nothing.
Hot layers guard their emits with :data:`TRACE_GATE` -- a module-level
flag object -- which saves the call itself when no enabled log in the
process is being fed; the hottest (network rows, ``mem`` rows) also test
their log's ``enabled`` before gathering arguments.  The gate belongs to
the *run*, not to the log object: whoever drives a cluster holds it open
with :meth:`TraceLog.feeding` for exactly as long as the driving call
lasts (:class:`~repro.cluster.system.DisomSystem` does so around
``run``, ``checkpoint_all`` and ``recover_all_from_storage``), so a
finished traced run can never pin later runs in the same interpreter --
server workers, fuzz batches -- on the slow path.  A harness that sends
messages through gated layers without a ``DisomSystem`` must do the
same, or its hot-path records are skipped.  Per-log ``enabled`` stays
authoritative: the gate only being *set* never makes a disabled log
record anything.  :func:`set_fast_mode` holds the gate open everywhere,
which the byte-identity regression test uses to prove the fast mode
changes no simulated behavior.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Union


class _TraceGate:
    """Process-wide tracing gate consulted by hot emit call sites.

    ``active`` is True while any enabled :class:`TraceLog` is being fed
    (or fast mode is switched off); reading one attribute of one
    module-level object is the cheapest guard Python offers short of
    inlining.
    """

    __slots__ = ("active",)

    def __init__(self) -> None:
        self.active = False


#: The gate hot call sites import and test before building trace-record
#: arguments:  ``if TRACE_GATE.active: trace.emit(...)``.
TRACE_GATE = _TraceGate()

#: Number of enabled TraceLogs currently inside :meth:`TraceLog.feeding`.
_feeding_logs = 0

#: False holds the gate open at every gated call site.
_fast_mode = True


def _refresh_gate() -> None:
    TRACE_GATE.active = _feeding_logs > 0 or not _fast_mode


def trace_active() -> bool:
    """Whether gated call sites should build and emit trace records."""
    return TRACE_GATE.active


def set_fast_mode(on: bool) -> bool:
    """Toggle the trace-free fast mode (on by default); return the
    previous setting, which is what a temporary toggle must restore.

    ``set_fast_mode(False)`` opens the gate at every gated call site;
    a disabled log still records nothing.  Simulated behavior is
    identical either way -- the byte-identity regression test runs the
    same workload in both modes and compares result fingerprints.
    """
    global _fast_mode
    previous, _fast_mode = _fast_mode, bool(on)
    _refresh_gate()
    return previous


#: Turns the values a row was emitted with into its text and fields.
RowRenderer = Callable[..., tuple[str, dict[str, Any]]]


class TraceRecord:
    """One trace row: simulated time, category, human message, fields.
    Holds its text and fields, or a renderer and the values to render
    them from; the first read renders and keeps the result."""

    __slots__ = ("time", "category", "_source", "_values")

    def __init__(self, time: float, category: str,
                 source: Union[str, RowRenderer], values: Any) -> None:
        self.time, self.category = time, category
        self._source, self._values = source, values

    def _rendered(self) -> tuple[str, dict[str, Any]]:
        source = self._source
        if isinstance(source, str):
            return source, self._values
        text, fields = source(*self._values)
        self._source, self._values = text, fields
        return text, fields

    @property
    def message(self) -> str:
        return self._rendered()[0]

    @property
    def fields(self) -> dict[str, Any]:
        return self._rendered()[1]

    def __str__(self) -> str:
        message, fields = self._rendered()
        extra = " ".join(f"{k}={v}" for k, v in fields.items())
        return f"[{self.time:10.3f}] {self.category:<12} {message} {extra}".rstrip()

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        # Rendered rows cross process boundaries (violation slices).
        return (TraceRecord, (self.time, self.category, *self._rendered()))


class TraceLog:
    """Append-only trace with an optional ring bound."""

    def __init__(
        self,
        enabled: bool = True,
        max_records: Optional[int] = None,
    ) -> None:
        #: Whether :meth:`emit` records anything.  The inline verifier
        #: flips this on when it attaches mid-setup.
        self.enabled = enabled
        self._max = max_records
        self._records: deque[TraceRecord] = deque(maxlen=max_records)
        self._dropped = 0

    @contextmanager
    def feeding(self) -> Iterator[None]:
        """Hold :data:`TRACE_GATE` open while a driver feeds this log.

        Gated call sites emit only inside some enabled log's ``feeding``
        block; the claim is dropped on exit, however the block ends.
        A disabled log claims nothing.
        """
        global _feeding_logs
        claimed = self.enabled
        if claimed:
            _feeding_logs += 1
            _refresh_gate()
        try:
            yield
        finally:
            if claimed:
                _feeding_logs -= 1
                _refresh_gate()

    def emit(self, time: float, category: str,
             message: Union[str, RowRenderer], *args: Any,
             **fields: Any) -> None:
        """Record one row: ``message`` is its text and ``fields`` its
        keywords, or ``message`` is a renderer that makes both from
        ``args`` when the row is first read."""
        if not self.enabled:
            return
        if self._max is not None and len(self._records) == self._max:
            # deque(maxlen=...) evicts the oldest on append; count it.
            self._dropped += 1
        self._records.append(TraceRecord(
            time, category, message,
            fields if isinstance(message, str) else args))

    @property
    def records(self) -> list[TraceRecord]:
        """All retained records as a fresh list.

        This *copies* the whole ring on every access; hot callers that
        only need the count or a single pass should use :meth:`__len__`
        or :meth:`iter_records` instead.
        """
        return list(self._records)

    def __len__(self) -> int:
        """Number of retained records (no copy)."""
        return len(self._records)

    def iter_records(self) -> Iterator[TraceRecord]:
        """Iterate retained records in emission order without copying.

        The log must not be emitted to during iteration --
        deque iterators raise RuntimeError on concurrent mutation.
        """
        return iter(self._records)

    def tail(self, n: int) -> list[TraceRecord]:
        """The most recent ``n`` records, oldest first (copies only the
        tail -- unlike ``records[-n:]`` which copies the whole ring)."""
        records = self._records
        size = len(records)
        if n >= size:
            return list(records)
        return [records[i] for i in range(size - n, size)]

    @property
    def dropped(self) -> int:
        """Number of records discarded due to the size bound."""
        return self._dropped

    def filter(self, category: Optional[str] = None, contains: Optional[str] = None) -> Iterator[TraceRecord]:
        """Iterate records matching a category and/or message substring."""
        for record in self._records:
            if category is not None and record.category != category:
                continue
            if contains is not None and contains not in record.message:
                continue
            yield record

    def count(self, category: Optional[str] = None, contains: Optional[str] = None) -> int:
        return sum(1 for _ in self.filter(category, contains))
