"""The fuzz loop: generate, run, observe coverage, shrink, report.

One *trial* is one schedule document executed under the full inline
checker stack (:func:`run_trial`): the coverage probe and the inline
verifier both ride the run's :class:`~repro.observers.Observers`
registry, so a trial yields both a feature set (the coverage signal)
and a verdict.  Any :class:`~repro.errors.InvariantViolation` (races
and invariant breaches surface as this through ``check=True``),
:class:`~repro.errors.ProtocolError`,
:class:`~repro.errors.MemoryModelError` or kernel
:class:`~repro.errors.SimulationError` is a *violation*; an
:class:`~repro.errors.ApplicationAborted` run is the protocol's
designed multiple-failure outcome and explicitly not a bug.

Determinism contract: for a fixed master seed the whole run -- every
trial document, the trial log, the coverage map, the findings -- is a
pure function of the seed, byte-identical across repeats and across
``--jobs`` values.  Trials are generated in fixed-size batches from
per-trial RNGs (``derive_seed(seed, "fuzz-trial", i)``); the batch is
what fans out over :meth:`~repro.parallel.service.PoolService.map`,
and the coverage map is folded in submission order afterwards.  The
only wall-clock in this module is the optional ``budget_seconds`` cap,
checked *between* batches so a wall-capped run is always a prefix of
the uncapped one.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.errors import ApplicationAborted, ConfigError, ReproError
from repro.fingerprint import canonical_json, config_fingerprint
from repro.fuzz.coverage import CoverageMap, CoverageProbe, outcome_features
from repro.fuzz.schedule import (
    DEFAULT_BASELINES,
    DEFAULT_WORKLOADS,
    mutate_schedule,
    random_schedule,
)
from repro.observers import Observers
from repro.parallel.service import PoolService, WorkerFailure
from repro.parallel.seeds import derive_seed

#: Trials per generation batch.  Fixed (never sized from ``jobs``) so
#: the generated trial sequence -- and everything derived from it -- is
#: identical whether the batch runs serially or fans out.
BATCH_SIZE = 16

#: Probability that a trial mutates an interesting schedule instead of
#: generating a fresh one (once the interesting pool is non-empty).
MUTATE_PROBABILITY = 0.5

#: Most recent coverage-increasing schedules kept as mutation sources.
POOL_LIMIT = 64

_SIGNATURE_LIMIT = 160


def failure_signature(error_type: str, message: str) -> str:
    """A stable bug-class identifier for a failure.

    Digits are folded to ``#`` (logical times, pids, counts vary per
    schedule; the *shape* of the message is the bug class) and
    whitespace collapsed, so every schedule tripping the same check
    maps to one signature -- the unit of the corpus allowlist and the
    shrinker's oracle.
    """
    normalized = re.sub(r"\d+", "#", message)
    normalized = re.sub(r"\s+", " ", normalized).strip()
    return f"{error_type}:{normalized[:_SIGNATURE_LIMIT]}"


def run_trial(document: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one schedule under probe + inline checkers (picklable).

    Returns a plain dict: ``status`` (``"ok"`` / ``"aborted"`` /
    ``"violation"``), the sorted coverage ``features``, and on
    violation the ``error_type`` / ``message`` / ``signature``.
    A pure function of the document -- safe to fan out.
    """
    from repro.api import run_workload
    from repro.server.scenario import validate_scenario

    probe = CoverageProbe()
    outcome: Dict[str, Any] = {"status": "ok"}
    result: Optional[Any] = None
    try:
        # A schedule is a scenario document, checked unless it says
        # otherwise; the spec -> builder mapping is the server's.
        spec = validate_scenario({"check": True, **document})
        _, result = run_workload(**spec.build_args(),
                                 observers=Observers(probe))
        if result.aborted:
            outcome = {"status": "aborted"}
    except ApplicationAborted:
        # Theorem 2's designed outcome for unrecoverable multiple
        # failures -- a legitimate terminal state, not a finding.
        outcome = {"status": "aborted"}
    except (ConfigError, ValueError) as exc:
        # A schedule the simulator rejects up front (e.g. a workload's
        # minimum cluster size) -- a generator/author problem, not a
        # protocol bug.
        outcome = {
            "status": "invalid",
            "error_type": type(exc).__name__,
            "message": str(exc),
        }
    except ReproError as exc:
        # InvariantViolation (races + invariants via check=True),
        # ProtocolError, MemoryModelError, DeadlockError, ... -- all
        # of these mean a checker or the kernel caught a real bug.
        outcome = {
            "status": "violation",
            "error_type": type(exc).__name__,
            "message": str(exc),
            "signature": failure_signature(type(exc).__name__, str(exc)),
        }
    features = probe.features() + outcome_features(result)
    features.append(f"outcome:{outcome['status']}")
    if outcome["status"] == "violation":
        features.append(f"outcome:error:{outcome['error_type']}")
    outcome["features"] = sorted(set(features))
    return outcome


@dataclass
class Finding:
    """One violation discovered by the fuzzer (plus its minimized form)."""

    trial: int
    signature: str
    error_type: str
    message: str
    document: Dict[str, Any]
    known: bool = False
    minimized: Optional[Dict[str, Any]] = None
    shrink_runs: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trial": self.trial,
            "signature": self.signature,
            "error_type": self.error_type,
            "message": self.message,
            "known": self.known,
            "document": self.document,
            "minimized": self.minimized,
            "shrink_runs": self.shrink_runs,
            "fingerprint": config_fingerprint(
                self.minimized if self.minimized is not None
                else self.document),
        }


@dataclass
class FuzzReport:
    """The outcome of one fuzz run (canonical, byte-stable forms)."""

    seed: int
    trials: int
    coverage: CoverageMap
    findings: List[Finding] = field(default_factory=list)
    trial_rows: List[Dict[str, Any]] = field(default_factory=list)
    #: True when the wall cap ended the run before the trial budget.
    wall_capped: bool = False

    @property
    def new_findings(self) -> List[Finding]:
        """Findings whose signature is not in the known allowlist."""
        return [finding for finding in self.findings if not finding.known]

    def trial_log(self) -> str:
        """Canonical JSONL trial log -- one line per trial, byte-stable."""
        return "".join(canonical_json(row) + "\n" for row in self.trial_rows)

    def summary(self) -> str:
        known = sum(1 for finding in self.findings if finding.known)
        return (
            f"{self.trials} trials, {len(self.coverage)} coverage features, "
            f"{len(self.findings)} violation(s) "
            f"({known} known, {len(self.new_findings)} new)"
        )


def run_fuzz(
    budget_trials: int = 100,
    seed: int = 7,
    jobs: int = 1,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    baselines: Sequence[str] = DEFAULT_BASELINES,
    known_signatures: Optional[Set[str]] = None,
    shrink: bool = True,
    budget_seconds: Optional[float] = None,
    progress: Optional[Callable[[int, int, str], None]] = None,
) -> FuzzReport:
    """Run the coverage-guided fuzz loop.

    ``budget_trials`` bounds the number of schedules executed;
    ``budget_seconds`` adds a wall cap checked between batches (a
    capped run is a strict prefix of the uncapped one, so determinism
    holds per-trial even when the cap fires).  ``known_signatures`` are
    allowlisted bug classes (typically the checked-in corpus): they are
    recorded but not re-shrunk and do not count as *new* findings.
    ``shrink=True`` minimizes the first instance of each new signature
    via :func:`repro.fuzz.shrink.shrink_schedule`.
    """
    from repro.fuzz.shrink import shrink_schedule

    known = set(known_signatures or ())
    coverage = CoverageMap()
    report = FuzzReport(seed=seed, trials=0, coverage=coverage)
    interesting: List[Dict[str, Any]] = []
    shrunk_signatures: Set[str] = set()
    deadline = (time.monotonic() + budget_seconds
                if budget_seconds is not None else None)

    with PoolService(jobs=jobs) as pool:
        trial = 0
        while trial < budget_trials:
            if deadline is not None and time.monotonic() >= deadline:
                report.wall_capped = True
                break
            batch_indices = list(
                range(trial, min(trial + BATCH_SIZE, budget_trials)))
            documents = []
            for index in batch_indices:
                rng = random.Random(derive_seed(seed, "fuzz-trial", index))
                if interesting and rng.random() < MUTATE_PROBABILITY:
                    source = rng.choice(interesting)
                    documents.append(
                        mutate_schedule(rng, source, workloads, baselines))
                else:
                    documents.append(
                        random_schedule(rng, workloads, baselines))
            outcomes = pool.map(run_trial, [(document,)
                                            for document in documents])
            for index, document, outcome in zip(batch_indices, documents,
                                                outcomes):
                if isinstance(outcome, WorkerFailure):
                    # A worker crash under a schedule is itself a
                    # finding: the simulator died outside its own
                    # exception hierarchy.
                    outcome = {
                        "status": "violation",
                        "error_type": outcome.error_type,
                        "message": outcome.message,
                        "signature": failure_signature(
                            outcome.error_type, outcome.message),
                        "features": ["outcome:worker-failure"],
                    }
                new_features = coverage.observe(outcome["features"], index)
                if new_features:
                    interesting.append(document)
                    del interesting[:-POOL_LIMIT]
                row = {
                    "trial": index,
                    "fingerprint": config_fingerprint(document),
                    "status": outcome["status"],
                    "new_features": new_features,
                }
                if outcome["status"] == "violation":
                    row["signature"] = outcome["signature"]
                report.trial_rows.append(row)
                if progress is not None:
                    progress(index + 1, budget_trials, outcome["status"])
                if outcome["status"] != "violation":
                    continue
                finding = Finding(
                    trial=index,
                    signature=outcome["signature"],
                    error_type=outcome["error_type"],
                    message=outcome["message"],
                    document=document,
                    known=outcome["signature"] in known,
                )
                if (shrink and not finding.known
                        and finding.signature not in shrunk_signatures):
                    shrunk_signatures.add(finding.signature)
                    minimized, runs = shrink_schedule(
                        document, finding.signature)
                    finding.minimized = minimized
                    finding.shrink_runs = runs
                report.findings.append(finding)
            trial = batch_indices[-1] + 1
            report.trials = trial
    return report
