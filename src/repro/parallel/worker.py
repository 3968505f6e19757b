"""The worker-side main loop of :class:`repro.parallel.engine.WorkerEngine`.

Workers are started with the ``spawn`` context, so each one is a fresh
interpreter that imports this module by name -- ``sys.path`` (and with it
the ``src/`` layout) is forwarded by multiprocessing's spawn preparation
step, and none of the parent's mutable module state leaks in.  Anything a
task needs beyond the package source (inline-check flags, experiment
defaults, seeds) therefore has to travel *inside the task payload*; the
helpers in :mod:`repro.experiments.runner` are written that way.

The message protocol on the result queue (all tuples, first element is
the message kind):

``("hello", worker_id)``
    sent once at startup;
``("start", worker_id, task_index)``
    sent immediately before a task body runs (the parent uses it to
    arm the per-task timeout clock);
``("done", worker_id, task_index, body_bytes)``
    sent after a task finishes; ``body_bytes`` unpickles to either
    ``("ok", value)`` or ``("error", type_name, message, traceback,
    pickled_exception_or_none)``.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Any


def _run_payload(payload: bytes) -> bytes:
    """Execute one pickled ``(fn, args, kwargs)`` task; marshal the outcome.

    Never raises: every exception (including result-pickling failures)
    is folded into an ``("error", ...)`` body so the parent can surface
    it as a typed :class:`~repro.parallel.engine.WorkerFailure` row.
    """
    try:
        fn, args, kwargs = pickle.loads(payload)
        value = fn(*args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - marshaled, not swallowed
        return _error_body(exc)
    try:
        return pickle.dumps(("ok", value), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        return _error_body(exc, note=(
            f"task returned an unpicklable {type(value).__name__}; "
            f"return plain data from parallel tasks"
        ))


def _error_body(exc: BaseException, note: str = "") -> bytes:
    trace = traceback.format_exc()
    try:
        exc_bytes: Any = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        # Round-trip now: exceptions with custom __init__ signatures can
        # pickle fine here yet explode at load time in the parent.
        pickle.loads(exc_bytes)
    except Exception:
        exc_bytes = None
    message = f"{note}: {exc}" if note else str(exc)
    return pickle.dumps(
        ("error", type(exc).__name__, message, trace, exc_bytes),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def worker_main(worker_id: int, task_queue: Any, result_queue: Any) -> None:
    """Announce, then serve tasks until the ``None`` sentinel arrives."""
    result_queue.put(("hello", worker_id))
    while True:
        item = task_queue.get()
        if item is None:
            break
        index, payload = item
        result_queue.put(("start", worker_id, index))
        body = _run_payload(payload)
        result_queue.put(("done", worker_id, index, body))
