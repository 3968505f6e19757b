"""Scenario requests: schema, validation, canonical form, execution.

A *scenario* is one JSON document describing a simulation the server
should run: either a single workload run (``kind="workload"``) or a
whole experiment table (``kind="experiment"``).  The document is
validated against the live registries (:data:`repro.workloads.ALL_WORKLOADS`,
:data:`repro.baselines.ALL_BASELINES`,
:data:`repro.experiments.ALL_EXPERIMENTS`) so every 400 names the thing
that does not exist and what would.

Canonicalization is what makes the result cache work: two documents
that *mean* the same scenario -- one spelling every default, one
spelling none -- resolve to the same :class:`ScenarioSpec`, the same
:meth:`ScenarioSpec.as_dict`, and therefore the same
:func:`repro.fingerprint.config_fingerprint`.  The cache key composes
that fingerprint with the seed and the running code version, so a
deploy of new simulator code never serves stale results.

:func:`run_scenario` is the module-level (hence picklable) task body a
:class:`~repro.parallel.service.PoolService` worker executes; it builds
the response *payload* -- a pure function of the spec and the code, with
no wall-clock anywhere -- and :func:`encode_response` pins the one
canonical byte spelling, so a cached body and a fresh recompute are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.fingerprint import canonical_json, config_fingerprint
from repro.memory.model import CONSISTENCY_MODELS

#: Response document schema identifier (surfaced in bodies + /version).
SCHEMA = "repro-scenario/v1"

# CONSISTENCY_MODELS (re-exported above) is the live coherence-backend
# registry (:mod:`repro.memory.model`): "entry" (the paper's model) and
# "sequential".  Requests declare what they assume and get
# a 400 -- not silently wrong semantics -- for an unimplemented model.

_KINDS = ("workload", "experiment")

_WORKLOAD_KEYS = {"kind", "workload", "params", "processes", "seed",
                  "interval", "baseline", "consistency", "crashes", "check",
                  "latency", "highwater"}

#: Keys accepted in the optional ``latency`` sub-document (the wire
#: model knobs the failure-schedule fuzzer explores; see
#: :class:`repro.net.channel.LatencyModel`).
_LATENCY_KEYS = ("base", "per_byte", "jitter")
_EXPERIMENT_KEYS = {"kind", "experiment", "quick", "seed", "consistency",
                    "check"}


def _require(document: Mapping[str, Any], key: str, types: tuple,
             default: Any) -> Any:
    value = document.get(key, default)
    if value is None and default is None:
        return None
    ok = isinstance(value, types)
    if isinstance(value, bool) and bool not in types:
        ok = False  # bool is an int subclass; don't accept True as 1
    if not ok:
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(
            f"scenario field {key!r} must be {names}, "
            f"got {type(value).__name__}: {value!r}"
        )
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """A validated, fully-resolved scenario (every default explicit)."""

    kind: str
    workload: Optional[str]
    params: Tuple[Tuple[str, Any], ...]
    processes: int
    #: None only for experiments (= use the experiment's curated seeds).
    seed: Optional[int]
    interval: Optional[float]
    baseline: str
    consistency: str
    crashes: Tuple[Tuple[int, float], ...]
    check: bool
    experiment: Optional[str]
    quick: bool
    #: Wire latency-model overrides as sorted (knob, value) pairs; None
    #: keeps the default model.  Workload scenarios only.
    latency: Optional[Tuple[Tuple[str, float], ...]] = None
    #: Log high-water checkpoint trigger in bytes; None disables.
    highwater: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        """The canonical plain-data form (the fingerprint input)."""
        if self.kind == "experiment":
            return {
                "kind": self.kind,
                "experiment": self.experiment,
                "quick": self.quick,
                "seed": self.seed,
                "consistency": self.consistency,
                "check": self.check,
            }
        return {
            "kind": self.kind,
            "workload": self.workload,
            "params": {key: value for key, value in self.params},
            "processes": self.processes,
            "seed": self.seed,
            "interval": self.interval,
            "baseline": self.baseline,
            "consistency": self.consistency,
            "crashes": [[pid, when] for pid, when in self.crashes],
            "check": self.check,
            "latency": (None if self.latency is None
                        else {key: value for key, value in self.latency}),
            "highwater": self.highwater,
        }

    def build_args(self) -> Dict[str, Any]:
        """This workload scenario as :func:`repro.api.build_workload`
        keywords -- the one mapping the server and the fuzzer both run
        through, so a key the validator accepts cannot be dropped by a
        runner (``kind`` is consumed here: experiments have no cluster).
        """
        from repro.workloads import ALL_WORKLOADS

        if self.kind != "workload" or self.workload is None:
            raise ConfigError(
                f"a {self.kind!r} scenario does not describe a cluster")
        return {
            "workload": ALL_WORKLOADS[self.workload](**dict(self.params)),
            "processes": self.processes,
            "seed": self.seed,
            "interval": self.interval,
            "baseline": self.baseline,
            "consistency": self.consistency,
            "crashes": self.crashes,
            "check": self.check,
            "latency": None if self.latency is None else dict(self.latency),
            "highwater": self.highwater,
        }

    def fingerprint(self) -> str:
        """Content address of the configuration alone (seed included)."""
        return config_fingerprint(self.as_dict())

    def cache_key(self, code_version: str) -> str:
        """The result-cache key: config fingerprint ⊕ seed ⊕ code version.

        The seed is already part of the canonical form; it is mixed in
        again as an explicit component so the key derivation matches
        the documented ``fingerprint ⊕ seed ⊕ code`` recipe even if a
        future spec revision moves the seed out of the config document.
        """
        return config_fingerprint({
            "schema": SCHEMA,
            "config": self.as_dict(),
            "seed": self.seed,
            "code": code_version,
        })


def validate_scenario(document: Mapping[str, Any]) -> ScenarioSpec:
    """Validate one request document; raise :class:`ConfigError` with a
    message that names the offending field and the valid choices."""
    from repro.api import default_baseline, resolve_experiment
    from repro.baselines import ALL_BASELINES
    from repro.workloads import ALL_WORKLOADS

    if not isinstance(document, Mapping):
        raise ConfigError(
            f"scenario must be a JSON object, got {type(document).__name__}"
        )
    kind = document.get("kind", "workload")
    if kind not in _KINDS:
        raise ConfigError(
            f"scenario kind {kind!r} is not one of {list(_KINDS)}"
        )

    allowed = _EXPERIMENT_KEYS if kind == "experiment" else _WORKLOAD_KEYS
    unknown = sorted(set(document) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown scenario field(s) {unknown} for kind {kind!r}; "
            f"allowed: {sorted(allowed)}"
        )

    consistency = _require(document, "consistency", (str,), "entry")
    if consistency not in CONSISTENCY_MODELS:
        raise ConfigError(
            f"consistency model {consistency!r} is not implemented; "
            f"supported: {list(CONSISTENCY_MODELS)}"
        )
    check = _require(document, "check", (bool,), False)

    if kind == "experiment":
        experiment = resolve_experiment(document.get("experiment"))
        # Experiments curate their own per-run seeds; a seed here is an
        # explicit override (null = use the experiment's defaults).
        seed = _require(document, "seed", (int,), None)
        return ScenarioSpec(
            kind="experiment", workload=None, params=(), processes=0,
            seed=seed, interval=None, baseline="disom",
            consistency=consistency, crashes=(), check=check,
            experiment=experiment,
            quick=_require(document, "quick", (bool,), True),
        )
    seed = _require(document, "seed", (int,), 7)

    workload = document.get("workload")
    if workload not in ALL_WORKLOADS:
        raise ConfigError(
            f"unknown workload {workload!r}; one of {sorted(ALL_WORKLOADS)}"
        )
    # An *explicit* "disom" with a non-entry model is rejected at
    # process construction (ConfigError -> 400), keeping wrong
    # combinations loud.
    baseline = _require(document, "baseline", (str,),
                        default_baseline(consistency))
    if baseline not in ALL_BASELINES:
        raise ConfigError(
            f"unknown baseline {baseline!r}; one of {sorted(ALL_BASELINES)}"
        )
    processes = _require(document, "processes", (int,), 4)
    if not 1 <= processes <= 64:
        raise ConfigError(f"processes must be in [1, 64], got {processes}")
    interval = document.get("interval", 50.0)
    if interval is not None and not isinstance(interval, (int, float)):
        raise ConfigError(
            f"interval must be a number or null, got {interval!r}"
        )

    raw_params = _require(document, "params", (dict,), {}) or {}
    defaults = ALL_WORKLOADS[workload].default_params()
    bad = sorted(set(raw_params) - set(defaults))
    if bad:
        raise ConfigError(
            f"unknown parameter(s) {bad} for workload {workload!r}; "
            f"available: {sorted(defaults)}"
        )
    params = tuple(sorted(raw_params.items()))

    highwater = _require(document, "highwater", (int,), None)
    if highwater is not None and highwater <= 0:
        raise ConfigError(f"highwater must be positive, got {highwater}")

    raw_latency = _require(document, "latency", (dict,), None)
    latency: Optional[Tuple[Tuple[str, float], ...]] = None
    if raw_latency is not None:
        bad = sorted(set(raw_latency) - set(_LATENCY_KEYS))
        if bad:
            raise ConfigError(
                f"unknown latency knob(s) {bad}; allowed: "
                f"{sorted(_LATENCY_KEYS)}"
            )
        for knob, value in raw_latency.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(
                    f"latency knob {knob!r} must be a number, got {value!r}"
                )
            if value < 0:
                raise ConfigError(
                    f"latency knob {knob!r} must be non-negative, got {value}"
                )
        latency = tuple(sorted(
            (knob, float(value)) for knob, value in raw_latency.items()
        ))

    raw_crashes = document.get("crashes", [])
    if not isinstance(raw_crashes, (list, tuple)):
        raise ConfigError("crashes must be a list of [pid, time] pairs")
    crashes = []
    for entry in raw_crashes:
        try:
            pid, when = entry
            crashes.append((int(pid), float(when)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"bad crash entry {entry!r}: expected [pid, time]"
            ) from exc
        if not 0 <= crashes[-1][0] < processes:
            raise ConfigError(
                f"crash pid {crashes[-1][0]} outside [0, {processes})"
            )

    return ScenarioSpec(
        kind="workload", workload=workload, params=params,
        processes=processes, seed=seed,
        interval=float(interval) if interval is not None else None,
        baseline=baseline, consistency=consistency,
        crashes=tuple(crashes), check=check, experiment=None, quick=True,
        latency=latency, highwater=highwater,
    )


def _jsonable(value: Any) -> Any:
    """Lower arbitrary result structures to deterministic plain JSON."""
    if isinstance(value, Mapping):
        return {str(key): _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        # NaN/inf cannot survive canonical encoding; spell them out.
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        return value
    return str(value)


def run_scenario(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one validated scenario; return the response payload.

    Runs inside a :class:`~repro.parallel.service.PoolService` worker
    (module-level, picklable, self-contained).  The payload contains
    only simulated quantities -- no wall-clock, host name, or process
    id -- so recomputing the same spec on any machine yields the same
    payload, and :func:`encode_response` the same bytes.
    """
    from repro.errors import InvariantViolation

    spec = validate_scenario(spec_dict)
    run = (_run_experiment_scenario if spec.kind == "experiment"
           else _run_workload_scenario)
    try:
        body = run(spec)
    except InvariantViolation as exc:
        # A deterministic outcome of this scenario, not a server fault:
        # report (and cache) it as a failed-check result.
        body = {"completed": False, "check_failed": str(exc)}
    return {"schema": SCHEMA, "scenario": spec.as_dict(), "result": body}


def _run_workload_scenario(spec: ScenarioSpec) -> Dict[str, Any]:
    from repro.api import run_workload

    args = spec.build_args()
    _, result = run_workload(**args)
    verdict = args["workload"].verify(result) if result.completed else None
    body: Dict[str, Any] = {
        "completed": result.completed,
        "aborted": result.aborted,
        "abort_reason": result.abort_reason,
        "verified": verdict.ok if verdict is not None else None,
        "duration": result.duration,
        "final_objects": _jsonable(result.final_objects),
        "messages": result.net.get("total_messages"),
        "checkpoint_messages": result.net.get("checkpoint_messages"),
        "checkpoints": result.metrics.total_checkpoints,
        "log_bytes": result.metrics.total_log_bytes,
        "peak_log_bytes": result.peak_log_bytes,
        "stable_writes": result.stable_writes,
        "survivor_rollbacks": result.metrics.total_survivor_rollbacks,
        "recoveries": [
            {
                "pid": record.pid,
                "detected_at": record.detected_at,
                "duration": record.duration,
                "replayed_acquires": record.replayed_acquires,
            }
            for record in result.recoveries
        ],
    }
    if result.check_report is not None:
        # overhead_seconds is host wall-clock: deliberately excluded.
        body["check"] = {
            "races": len(result.check_report.races),
            "violations": len(result.check_report.violations),
            "events_checked": result.check_report.events_checked,
        }
    return body


def _run_experiment_scenario(spec: ScenarioSpec) -> Dict[str, Any]:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.base import ExperimentDefaults

    assert spec.experiment is not None
    with ExperimentDefaults(check=spec.check, seed=spec.seed).active():
        outcome = ALL_EXPERIMENTS[spec.experiment](quick=spec.quick)
    return {
        "title": outcome.title,
        "claim_holds": outcome.claim_holds,
        "findings": _jsonable(outcome.findings),
    }


def encode_response(payload: Mapping[str, Any]) -> bytes:
    """The one canonical byte spelling of a response payload.

    Cached bodies are these bytes verbatim, so cached-vs-fresh
    responses are byte-identical by construction.
    """
    return (canonical_json(payload) + "\n").encode("ascii")


__all__ = [
    "CONSISTENCY_MODELS",
    "SCHEMA",
    "ScenarioSpec",
    "encode_response",
    "run_scenario",
    "validate_scenario",
]
