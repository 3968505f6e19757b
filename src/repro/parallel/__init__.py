"""Deterministic multi-core fan-out for independent simulation runs.

A single simulated run is inherently serial (one discrete-event kernel),
but everything *above* a run is embarrassingly parallel: experiments,
fuzz trials, scenario requests.  This package
provides the one engine all of those layers share:

* :class:`~repro.parallel.engine.WorkerEngine` -- the single owner of
  worker processes: warm spawn-context workers, tickets, the collector
  thread, liveness/deadline sweeps, typed :class:`WorkerFailure` rows;
* :class:`~repro.parallel.pool.RunPool` -- its batch face:
  submission-index-ordered merging, serial fallback and progress
  callbacks;
* :func:`~repro.parallel.seeds.derive_seed` -- hash-based, process- and
  platform-stable child-seed derivation;
* :func:`~repro.parallel.seeds.resolve_jobs` -- the uniform ``--jobs``
  contract (``1`` serial, ``0`` = one worker per CPU);
* :class:`~repro.parallel.service.PoolService` -- its long-lived
  request/response face (pre-warmed workers, bounded admission,
  per-task deadlines) used by the scenario server.

Consumers: ``repro experiments --jobs N``, ``repro fuzz --jobs N``,
``repro serve`` and the corresponding :mod:`repro.api` knobs.
The determinism guarantee is that any of those with ``jobs=N`` produces
byte-identical tables and metrics to ``jobs=1``; only wall-clock
changes.
"""

from repro.parallel.pool import (
    Call,
    RunPool,
    WorkerError,
    WorkerFailure,
    raise_failures,
)
from repro.parallel.seeds import derive_seed, resolve_jobs
from repro.parallel.service import (
    PoolService,
    QueueFullError,
    ServiceClosedError,
)

__all__ = [
    "Call",
    "PoolService",
    "QueueFullError",
    "RunPool",
    "ServiceClosedError",
    "WorkerError",
    "WorkerFailure",
    "derive_seed",
    "raise_failures",
    "resolve_jobs",
]
