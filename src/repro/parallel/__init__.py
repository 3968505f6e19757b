"""Deterministic multi-core fan-out for independent simulation runs.

A single simulated run is inherently serial (one discrete-event kernel),
but everything *above* a run is embarrassingly parallel: experiments,
fuzz trials, scenario requests.  This package
provides the one pool all of those layers share:

* :class:`~repro.parallel.service.PoolService` -- the single owner of
  worker processes: warm spawn-context workers, tickets, the collector
  thread, liveness/deadline sweeps, typed :class:`WorkerFailure` rows,
  bounded admission; ``map`` for a batch merged in submission order,
  ``submit``/``result`` for one task at a time;
* :func:`~repro.parallel.seeds.derive_seed` -- hash-based, process- and
  platform-stable child-seed derivation;
* :func:`~repro.parallel.seeds.resolve_jobs` -- the uniform ``--jobs``
  contract (``1`` serial, ``0`` = one worker per CPU).

Consumers: ``repro experiments --jobs N``, ``repro fuzz --jobs N``,
``repro serve`` and the corresponding :mod:`repro.api` knobs.
The determinism guarantee is that any of those with ``jobs=N`` produces
byte-identical tables and metrics to ``jobs=1``; only wall-clock
changes.
"""

from repro.parallel.seeds import derive_seed, resolve_jobs
from repro.parallel.service import (
    PoolService,
    QueueFullError,
    ServiceClosedError,
    WorkerError,
    WorkerFailure,
)

__all__ = [
    "PoolService",
    "QueueFullError",
    "ServiceClosedError",
    "WorkerError",
    "WorkerFailure",
    "derive_seed",
    "resolve_jobs",
]
