"""Timing spans installed from outside the program.

The traced pass wraps the public callables of each layer (class
attributes patched before the system is built, by-name imports re-bound
in every ``repro.*`` module that holds the original) and restores them
afterwards.  Every call records one span -- layer, parent, start, end --
in memory; :meth:`SpanRecorder.fold` turns them into per-layer self
times at the end (self = span minus the spans it caused).  Nothing here
runs during the untraced pass, which is where every end-to-end metric
comes from.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from benchmarks.e2e import stats

#: layer -> [(module, class or None, attribute names or a name predicate)].
#: A class of None means module-level functions.  The layer key is the
#: prefix of the per-layer metric the self time is reported under.
_Names = Any
TARGETS: Dict[str, List[Tuple[str, Any, _Names]]] = {
    "sim.kernel": [("repro.sim.kernel", "Kernel", ("run",))],
    "threads.resume": [("repro.threads.thread", "Thread", ("resume",))],
    "cluster.dispatch": [("repro.cluster.process", "DisomProcess",
                          ("deliver", "handle_acquire", "handle_release"))],
    "net.send": [("repro.net.network", "Network", ("send",))],
    "net.sizing": [("repro.net.sizing", None, ("payload_size", "blob_size"))],
    "checkpoint.hooks": [("repro.checkpoint.protocol", "DisomCheckpointProtocol",
                          ("on_local_acquire", "on_remote_grant",
                           "on_reply_received", "on_release_write",
                           "on_ownership_installed"))],
    "checkpoint.piggyback": [("repro.checkpoint.protocol",
                              "DisomCheckpointProtocol",
                              ("collect_piggyback", "on_piggyback"))],
    "checkpoint.take": [("repro.checkpoint.protocol", "DisomCheckpointProtocol",
                         ("take_checkpoint",))],
    "checkpoint.stable": [("repro.checkpoint.stable", "StableStore",
                           ("begin_save", "commit", "load"))],
    "checkpoint.recovery": [
        ("repro.checkpoint.recovery", "RecoveryManager",
         lambda name: not name.startswith("__")),
        ("repro.checkpoint.recovery", None, ("collect_recovery_data",)),
        ("repro.checkpoint.replay", "LogReplayer",
         ("handle_acquire", "after_event")),
    ],
    # The durable store only: the in-memory backend is a dict insert
    # that stays inside checkpoint.stable.
    "storage.write": [("repro.storage.backend", "FileBackend",
                       ("begin_write", "commit"))],
    "storage.read": [("repro.storage.backend", "FileBackend", ("read_latest",))],
    "verify.inline": [
        ("repro.verify.inline", "InlineVerifier",
         lambda name: not name.startswith("__")),
        ("repro.verify.invariants", "InvariantChecker",
         lambda name: name.startswith(("on_", "check_"))),
    ],
    "sim.trace_emit": [("repro.sim.tracing", "TraceLog", ("emit",))],
}
#: The coherence backends are found through the program's own registry.
COHERENCE_LAYER = "memory.coherence"
COHERENCE_METHODS = ("handle_acquire", "handle_release", "on_message")

LAYERS: Tuple[str, ...] = tuple(TARGETS) + (COHERENCE_LAYER,)


class SpanRecorder:
    """In-memory span store: four parallel arrays, one row per call."""

    def __init__(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]

    def reset(self) -> None:
        # In place: the installed wrappers hold these very arrays.
        for column in (self.layer, self.parent, self.start, self.end):
            del column[:]
        del self._stack[1:]

    def wrap(self, fn: Callable[..., Any], layer: int) -> Callable[..., Any]:
        layers, parents, starts, ends = (self.layer, self.parent,
                                         self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = len(layers)
            layers.append(layer)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def fold(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self seconds, total seconds and call count."""
        self_s = [0.0] * len(LAYERS)
        total_s = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        layers, parents = self.layer, self.parent
        for span, layer in enumerate(layers):
            took = self.end[span] - self.start[span]
            self_s[layer] += took
            calls[layer] += 1
            parent = parents[span]
            if parent < 0 or layers[parent] != layer:
                # Re-entrant calls within one layer count once in its total.
                total_s[layer] += took
            if parent >= 0:
                self_s[layers[parent]] -= took
        return {name: {"self_s": self_s[i], "total_s": total_s[i],
                       "calls": calls[i]}
                for i, name in enumerate(LAYERS)}


def _selected(owner: Any, names: _Names) -> Sequence[str]:
    if callable(names):
        return [name for name, value in vars(owner).items()
                if isinstance(value, types.FunctionType) and names(name)]
    return names


def _coherence_classes() -> List[type]:
    from repro.memory.model import consistency_backends

    seen: List[type] = []
    for backend in consistency_backends().values():
        for cls in backend.__mro__:
            if cls is not object and cls not in seen:
                seen.append(cls)
    return seen


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every target for the duration of the block, then restore."""
    undo: List[Tuple[Any, str, Any]] = []

    def patch(holder: Any, name: str, layer: str) -> None:
        original = vars(holder)[name]
        undo.append((holder, name, original))
        setattr(holder, name, recorder.wrap(original, LAYERS.index(layer)))

    try:
        for layer, entries in TARGETS.items():
            for module_name, class_name, names in entries:
                module = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(module, class_name)
                    for name in _selected(owner, names):
                        patch(owner, name, layer)
                    continue
                for name in names:
                    original = getattr(module, name)
                    wrapped = recorder.wrap(original, LAYERS.index(layer))
                    # ``from x import f`` copies the binding: re-bind
                    # every repro module that holds the original.
                    for holder in list(sys.modules.values()):
                        if not getattr(holder, "__name__", "").startswith("repro"):
                            continue
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                undo.append((holder, attr, original))
                                setattr(holder, attr, wrapped)
        for cls in _coherence_classes():
            for name in COHERENCE_METHODS:
                if isinstance(vars(cls).get(name), types.FunctionType):
                    patch(cls, name, COHERENCE_LAYER)
        yield recorder
    finally:
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)


def layer_metrics(folds: List[Dict[str, Dict[str, float]]],
                  walls: List[float]) -> Dict[str, float]:
    """Per-layer self seconds (median over traced repeats) by metric name.

    ``walls`` are the traced repeats' timed host seconds; the share of
    them that lies inside any span is ``trace.attributed_ratio``."""
    def mid(layer: str, field: str) -> float:
        return stats.median([fold[layer][field] for fold in folds])

    metrics = {f"{layer}_self_s": mid(layer, "self_s") for layer in LAYERS}
    # Four layers are reported under the names the issue fixed.
    metrics["net.sizing_s"] = metrics.pop("net.sizing_self_s")
    metrics["net.sizing_calls"] = mid("net.sizing", "calls")
    metrics["checkpoint.take_count"] = mid("checkpoint.take", "calls")
    # Inclusive: the image's sizing and its store write are part of it.
    metrics["checkpoint.take_total_s"] = mid("checkpoint.take", "total_s")
    metrics["storage.write_s"] = metrics.pop("storage.write_self_s")
    metrics["storage.read_s"] = metrics.pop("storage.read_self_s")
    metrics["sim.trace_emit_s"] = metrics.pop("sim.trace_emit_self_s")
    attributed = sum(mid(layer, "self_s") for layer in LAYERS)
    metrics["trace.attributed_ratio"] = attributed / stats.median(walls)
    return metrics
