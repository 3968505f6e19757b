"""Verification layer: race detection and invariant checking.

Two independent passes over a run, surfaced by the ``repro check`` CLI
command and attachable inline to any simulation:

* :mod:`repro.verify.races` -- entry-consistency race detector over the
  typed memory-event stream (vector-clock happens-before with an
  Eraser-style lockset fast path);
* :mod:`repro.verify.invariants` -- online protocol invariant checker
  hooked into the log, GC and recovery layers.

The source-level determinism rules ``repro check`` also runs live in
:mod:`repro.analysis.purity`.  :mod:`repro.verify.inline` bundles the
two passes into an
:class:`~repro.verify.inline.InlineVerifier` that attaches to a live
:class:`~repro.cluster.system.DisomSystem`.
"""

from __future__ import annotations

from repro.verify.events import MemEvent, publish_mem_event
from repro.verify.inline import CheckReport, InlineVerifier, attach
from repro.verify.invariants import InvariantChecker
from repro.verify.races import RaceDetector, RaceFinding

__all__ = [
    "CheckReport",
    "InlineVerifier",
    "InvariantChecker",
    "MemEvent",
    "RaceDetector",
    "RaceFinding",
    "attach",
    "publish_mem_event",
]
