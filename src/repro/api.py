"""The public facade: one import surface for the common workflows.

Everything here is re-exported from :mod:`repro`, so user code (and the
CLI, and the examples) can stay on a handful of verbs without knowing
the package layout::

    from repro import run_workload, run_experiment
    from repro import attach_checkers, open_store
    from repro import serve, ScenarioClient

    system, result = run_workload("synthetic", processes=8, seed=3)
    system = build_workload("sor", crashes=[(1, 40.0)])   # un-run
    report = run_experiment("E2")

    server = serve(port=0, jobs=2, block=False)    # scenario service
    reply = ScenarioClient(server.base_url).run_workload("sor", seed=3)

Each function is a thin composition over the underlying subsystems --
:mod:`repro.cluster`, :mod:`repro.experiments`, :mod:`repro.verify`
and :mod:`repro.storage` -- with uniform spellings
for the knobs the CLI exposes (``seed``, ``check``, ``store_dir``).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence, Tuple, Union

from repro.checkpoint.policy import CheckpointPolicy
from repro.cluster.config import ClusterConfig
from repro.cluster.system import DisomSystem, RunResult
from repro.errors import ConfigError, InvariantViolation
from repro.net.channel import LatencyModel


def default_baseline(consistency: str) -> str:
    """The fault-tolerance scheme a run gets when none is named.

    The paper's DiSOM protocol on the entry backend; ``"none"`` on the
    others, because the DiSOM checkpoint protocol is EC-only (naming
    ``"disom"`` explicitly with a non-entry backend raises a precise
    :class:`~repro.errors.ConfigError` at process construction).
    """
    return "disom" if consistency == "entry" else "none"


def resolve_experiment(experiment: Any) -> str:
    """The registered experiment id ``experiment`` names: an exact id,
    else a unique prefix (``"E2"``); anything else is a ConfigError."""
    from repro.experiments import ALL_EXPERIMENTS

    matches = [eid for eid in ALL_EXPERIMENTS if eid == experiment]
    if not matches and isinstance(experiment, str):
        matches = [eid for eid in ALL_EXPERIMENTS
                   if eid.startswith(experiment)]
    if len(matches) != 1:
        raise ConfigError(
            f"experiment {experiment!r} matches {matches or 'nothing'}; "
            f"ids: {list(ALL_EXPERIMENTS)}"
        )
    return matches[0]


def build_workload(
    workload: Union[str, Any],
    *,
    processes: int = 4,
    seed: int = 7,
    interval: Optional[float] = 50.0,
    crashes: Sequence[Tuple[int, float]] = (),
    check: bool = False,
    store_dir: Optional[str] = None,
    observers: Optional[Any] = None,
    baseline: Optional[str] = None,
    protocol_factory: Optional[Any] = None,
    spare_nodes: Optional[int] = None,
    highwater: Optional[int] = None,
    latency: Union[LatencyModel, Mapping[str, float], None] = None,
    consistency: str = "entry",
    trace: bool = False,
    control_transport: str = "piggyback",
) -> DisomSystem:
    """Assemble one cluster execution of ``workload`` and return it un-run.

    The one place outside :mod:`repro.cluster` where run parameters
    become a :class:`ClusterConfig`, a :class:`CheckpointPolicy` and a
    protocol factory: the CLI, the scenario server, the fuzzer and the
    experiment harness all come through here, so
    "the same execution under another scheme" is assembled identically
    whichever door it came in by.  Callers that time or inspect the run
    call ``system.run()`` themselves; :func:`run_workload` does it for
    everyone else.

    ``workload`` is a registered workload name (see ``repro list``) or a
    :class:`~repro.workloads.base.Workload` instance.  ``baseline``
    selects a fault-tolerance scheme by name (``"coordinated"``,
    ``"sender-msg-log"``, ...; default :func:`default_baseline`) --
    mutually exclusive with passing a ``protocol_factory`` directly (a
    ``protocol(process)`` constructor such as
    ``functools.partial(CoordinatedProtocol, interval=40.0)``).
    ``crashes`` is a sequence of ``(pid, at_time)`` fail-stop
    injections; ``spare_nodes`` defaults to one more than their number
    (at least 2).  ``latency`` overrides the wire model: a
    :class:`~repro.net.channel.LatencyModel` or a mapping with any of
    ``base`` / ``per_byte`` / ``jitter`` (unnamed knobs keep their
    defaults).  ``consistency`` selects the coherence backend (one of
    :data:`repro.memory.model.CONSISTENCY_MODELS`).  ``check`` attaches
    the inline verifier, ``trace`` enables the structured trace log,
    ``observers`` is a :class:`repro.observers.Observers` registry wired
    to every process, ``store_dir`` routes checkpoints through a
    durable on-disk store.
    """
    from repro.workloads import ALL_WORKLOADS

    if isinstance(workload, str):
        try:
            workload = ALL_WORKLOADS[workload]()
        except KeyError:
            raise ConfigError(
                f"unknown workload {workload!r}; one of "
                f"{sorted(ALL_WORKLOADS)}"
            ) from None
    if protocol_factory is None:
        from repro.baselines import ALL_BASELINES

        name = (default_baseline(consistency) if baseline is None
                else baseline)
        try:
            protocol_factory = ALL_BASELINES[name]
        except KeyError:
            raise ConfigError(
                f"unknown baseline {name!r}; one of {sorted(ALL_BASELINES)}"
            ) from None
    elif baseline is not None:
        raise ConfigError("pass baseline or protocol_factory, not both")
    crashes = tuple(crashes)
    if spare_nodes is None:
        spare_nodes = max(2, len(crashes) + 1)
    if not isinstance(latency, LatencyModel):
        latency = LatencyModel(**dict(latency or {}))
    system = DisomSystem(
        ClusterConfig(processes=processes, seed=seed, latency=latency,
                      spare_nodes=spare_nodes, check=check, trace=trace,
                      store_dir=store_dir, observers=observers,
                      consistency=consistency),
        CheckpointPolicy(interval=interval, log_highwater=highwater,
                         control_transport=control_transport),
        protocol_factory=protocol_factory,
    )
    workload.setup(system)
    for pid, when in crashes:
        system.inject_crash(pid, at_time=when)
    return system


def raise_on_failed_check(result: RunResult) -> None:
    """Turn a failed inline check into an :class:`InvariantViolation`.

    The message is a pure function of the run: the report's host-clock
    verifier overhead stays on ``result.check_report``, out of it.
    """
    report = result.check_report
    if report is not None and not report.ok:
        raise InvariantViolation(
            "inline-check",
            f"inline verification failed: {report.verdict()}; "
            + "; ".join(report.problem_strings()),
        )


def run_workload(workload: Union[str, Any],
                 **params: Any) -> Tuple[DisomSystem, RunResult]:
    """Build (:func:`build_workload`, same keywords) and run one cluster
    execution of ``workload``; return ``(system, result)``.

    With ``check=True`` any race or invariant violation the inline
    verifier finds raises :class:`~repro.errors.InvariantViolation`.
    """
    system = build_workload(workload, **params)
    result = system.run()
    raise_on_failed_check(result)
    return system, result


def run_experiment(
    experiment: str,
    *,
    quick: bool = True,
    check: bool = False,
) -> Any:
    """Run one experiment by id (exact or unique prefix, e.g. ``"E2"``).

    Returns its :class:`~repro.experiments.base.ExperimentResult`.
    ``check=True`` attaches the inline verification layer to every run
    the experiment makes.
    """
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.base import ExperimentDefaults

    runner = ALL_EXPERIMENTS[resolve_experiment(experiment)]
    with ExperimentDefaults(check=check).active():
        return runner(quick=quick)


def fuzz(
    *,
    budget_trials: int = 100,
    seed: int = 7,
    jobs: int = 1,
    shrink: bool = True,
    budget_seconds: Optional[float] = None,
    corpus_dir: Optional[str] = None,
) -> Any:
    """Run the coverage-guided failure-schedule fuzzer.

    Executes ``budget_trials`` random failure schedules (crash times,
    checkpoint cadence, wire delay/jitter, varied workloads and
    baselines) under the inline checker stack, guided by coverage of
    the checkpoint protocol's state space; any violation is shrunk to
    a minimal scenario document.  ``corpus_dir`` (default
    ``tests/corpus``) supplies the known-bug allowlist -- findings
    matching it are reported but not counted as new.  The whole run is
    a pure function of ``seed``: repeats (at any ``jobs`` value) yield
    byte-identical trial logs and coverage maps.  Returns the
    :class:`~repro.fuzz.engine.FuzzReport`.
    """
    from repro.fuzz import DEFAULT_CORPUS_DIR, load_allowlist, run_fuzz

    known = load_allowlist(corpus_dir or DEFAULT_CORPUS_DIR)
    return run_fuzz(budget_trials=budget_trials, seed=seed, jobs=jobs,
                    known_signatures=known, shrink=shrink,
                    budget_seconds=budget_seconds)


def analyze(
    *,
    root: Optional[str] = None,
    baseline: Optional[str] = None,
    analyzers: Optional[Sequence[str]] = None,
) -> Any:
    """Run the static analyzer suite over the repro source tree.

    Builds one AST/CFG/call-graph view of the package and runs the
    lock-discipline, simulation-purity, handler-exhaustiveness and
    exception-safety analyzers over it.  ``baseline`` (default: the
    checked-in ``ANALYSIS_baseline.json`` when present) suppresses
    known accepted findings; anything else lands in ``report.new``.
    Returns the :class:`~repro.analysis.runner.AnalysisReport`.
    """
    from pathlib import Path

    from repro.analysis.runner import run_analysis

    return run_analysis(
        root=Path(root) if root else None,
        baseline_path=Path(baseline) if baseline else None,
        analyzers=analyzers,
    )


def attach_checkers(system: DisomSystem, strict: bool = False) -> Any:
    """Attach the inline verification layer to a not-yet-run system.

    Equivalent to constructing with ``ClusterConfig(check=True)``;
    returns the :class:`~repro.verify.inline.InlineVerifier`.  The
    verifier's findings land in ``RunResult.check_report``.
    """
    from repro.verify.inline import attach

    return attach(system, strict=strict)


def open_store(store_dir: str, *, compress: bool = True, fsync: bool = True,
               incremental: bool = False) -> Any:
    """Open (creating if needed) a durable on-disk checkpoint store.

    Returns the :class:`~repro.storage.FileBackend` for ``store_dir``,
    ready to pass as ``DisomSystem(storage_backend=...)`` or to inspect
    an existing store (``backend.verify()``, ``backend.pids()``).
    """
    from repro.storage.backend import make_backend

    if not store_dir:
        raise ConfigError("open_store requires a store directory path")
    return make_backend(store_dir, compress=compress, fsync=fsync,
                        incremental=incremental)


def serve(host: str = "127.0.0.1", port: int = 8723, *, jobs: int = 1,
          cache_dir: Optional[str] = None, cache_entries: int = 1024,
          request_timeout: Optional[float] = 300.0, max_pending: int = 16,
          quiet: bool = True, block: bool = True) -> Any:
    """Run the scenario server: simulation-as-a-service over HTTP/JSON.

    Accepts JSON scenario documents on ``POST /scenario`` and serves
    repeat requests from a content-addressed result cache (keyed on
    configuration fingerprint ⊕ seed ⊕ code version) without
    recomputing; ``/healthz``, ``/metrics`` and ``/version`` ride
    along.  ``jobs`` sizes the warm worker pool, ``request_timeout``
    is the per-scenario deadline, ``max_pending`` bounds admission
    (beyond it requests answer 429), and ``cache_dir`` makes the cache
    durable on disk.  ``block=False`` serves from a background thread
    and returns the live :class:`~repro.server.app.ScenarioServer`
    (close it yourself); ``block=True`` serves on the calling thread
    until KeyboardInterrupt and returns the closed server.
    """
    from repro.server.app import ScenarioServer

    server = ScenarioServer(
        host, port, jobs=jobs, cache_dir=cache_dir,
        cache_entries=cache_entries, request_timeout=request_timeout,
        max_pending=max_pending, quiet=quiet)
    if not block:
        return server.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.close()
    return server


def __getattr__(name: str) -> Any:
    # Lazy re-exports: pulling the server package at repro import time
    # would cycle through repro/__init__ (handlers read __version__).
    if name in ("ScenarioClient", "ScenarioReply"):
        from repro.server import client

        return getattr(client, name)
    if name == "ScenarioServer":
        from repro.server.app import ScenarioServer

        return ScenarioServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
