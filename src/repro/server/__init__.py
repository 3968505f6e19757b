"""Simulation-as-a-service: the long-running scenario server.

The north-star is serving checkpoint-protocol scenarios at scale, and
the simulator's strict determinism is the enabling trick: a result is a
pure function of ``(configuration, seed, code version)``, so every
result is infinitely cacheable.  This package turns that property into
a service (DESIGN.md section 2.10):

* :mod:`repro.server.scenario` -- the request schema, validation
  against the live registries, and the deterministic worker-side runner;
* :mod:`repro.server.cache` -- the content-addressed, CRC-protected,
  disk-backed :class:`~repro.server.cache.ResultCache`;
* :mod:`repro.server.app` -- :class:`~repro.server.app.ScenarioServer`
  (stdlib ``ThreadingHTTPServer`` + shared warm
  :class:`~repro.parallel.service.PoolService` + the cache);
* :mod:`repro.server.handlers` -- the HTTP routing layer;
* :mod:`repro.server.wire` -- the HTTP head reader both ends share;
* :mod:`repro.server.metrics` -- request/cache/pool/latency counters
  behind ``/metrics``;
* :mod:`repro.server.client` -- :class:`~repro.server.client.ScenarioClient`,
  a socket codec on the standard library alone.

Entry points: ``repro serve`` on the command line,
:func:`repro.api.serve` / :class:`repro.ScenarioClient` from code.
"""

from repro.server.app import ScenarioServer, default_code_version
from repro.server.cache import CacheCounters, ResultCache
from repro.server.client import ScenarioClient, ScenarioReply
from repro.server.metrics import ServerMetrics
from repro.server.scenario import (
    CONSISTENCY_MODELS,
    SCHEMA,
    ScenarioSpec,
    encode_response,
    run_scenario,
    validate_scenario,
)

__all__ = [
    "CONSISTENCY_MODELS",
    "CacheCounters",
    "ResultCache",
    "SCHEMA",
    "ScenarioClient",
    "ScenarioReply",
    "ScenarioServer",
    "ScenarioSpec",
    "ServerMetrics",
    "default_code_version",
    "encode_response",
    "run_scenario",
    "validate_scenario",
]
