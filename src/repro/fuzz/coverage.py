"""Coverage signal: protocol-state features observed during one run.

The fuzzer is *coverage-guided*: a schedule is interesting not because
it crashed differently but because it drove the checkpoint protocol
through states no earlier schedule reached.  :class:`CoverageProbe` is
an :class:`repro.observers.Observers` listener that distils a run into a
set of small, deterministic *feature* strings over exactly the protocol
dimensions the paper's correctness argument lives in:

* **recovery phases** -- which of ``loading`` / ``collecting`` /
  ``replaying`` / ``done`` / ``aborted`` were entered, how many
  recoveries ran, and how many overlapped (multi-failure recovery is
  where the hard bugs hide);
* **GC floor advances** -- CkpSet announcements whose per-thread floor
  actually moved forward, i.e. the garbage-collection frontier;
* **dummy-entry chain depths** -- runs of consecutive local acquires
  recorded as dummies with no intervening regular log entry (the
  recovery-chain structure of section 4.3.2);
* **log-version transitions** -- per-object version steps observed at
  log-append time (sequential vs skipping), log size and churn.

Counts are folded through :func:`bucket` (exact up to 2, then powers of
two) so the feature space stays small and a schedule only counts as new
coverage when it changes the *shape* of a run, not its exact totals.

:class:`CoverageMap` accumulates features across trials; its canonical
JSON form is byte-stable for a fixed master seed, which is what the CI
artifact diff and the determinism acceptance test rely on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.checkpoint.recovery import RecoveryPhase
from repro.fingerprint import canonical_json

#: Coverage-map document schema identifier.
COVERAGE_SCHEMA = "repro-fuzz-coverage/v1"

#: Counts above this fold into one terminal bucket.
_BUCKET_CAP = 512


def bucket(count: int) -> str:
    """Deterministic coarse bucket label for a non-negative count.

    Exact for 0/1/2, then power-of-two ranges (``3-4``, ``5-8``, ...)
    capped at ``>512``.  Keeps the feature space bounded so coverage
    saturates instead of growing with every distinct total.
    """
    if count < 0:
        count = 0
    if count <= 2:
        return str(count)
    low, high = 3, 4
    while count > high and high < _BUCKET_CAP:
        low, high = high + 1, high * 2
    if count > high:
        return f">{high}"
    return f"{low}-{high}"


class CoverageProbe:
    """Observer listener turning one run into protocol-state features.

    Register on an :class:`~repro.observers.Observers` registry before
    the run; call :meth:`features` afterwards.  All callbacks are
    pure bookkeeping -- the probe never influences the simulation.
    """

    def __init__(self) -> None:
        self.phases_seen: Set[RecoveryPhase] = set()
        self.recoveries_started = 0
        self.max_concurrent_recoveries = 0
        self._active_recoveries: Set[int] = set()
        self.ckp_sets = 0
        self.gc_floor_advances = 0
        self._gc_floor: Dict[int, int] = {}
        self.dummies = 0
        self.max_dummy_chain = 0
        self._dummy_chain: Dict[int, int] = {}
        self.log_appends = 0
        self.log_removes = 0
        self.max_log_version = 0
        self.version_skips = 0
        self._last_version: Dict[Any, int] = {}
        self.gc_drops = 0
        self.restores = 0

    # ------------------------------------------------------------------
    # Observers listener surface (all optional callbacks we implement)
    # ------------------------------------------------------------------
    def on_recovery_phase(self, pid: int, phase: RecoveryPhase) -> None:
        self.phases_seen.add(phase)
        # The coverage map only keys on recovery start/end; the interior
        # phases (COLLECTING, REPLAYING) are deliberately untracked.
        if phase is RecoveryPhase.LOADING:
            self.recoveries_started += 1
            self._active_recoveries.add(pid)
            self.max_concurrent_recoveries = max(
                self.max_concurrent_recoveries, len(self._active_recoveries)
            )
        elif phase in (RecoveryPhase.DONE, RecoveryPhase.ABORTED):
            self._active_recoveries.discard(pid)

    def on_ckp_set(self, ckp_set: Any) -> None:
        self.ckp_sets += 1
        floor = 0
        for point in getattr(ckp_set, "points", ()):
            floor = max(floor, point.lt)
        previous = self._gc_floor.get(ckp_set.pid)
        if previous is None or floor > previous:
            if previous is not None:
                self.gc_floor_advances += 1
            self._gc_floor[ckp_set.pid] = floor

    def on_dummy_created(self, pid: int, dummy: Any) -> None:
        self.dummies += 1
        depth = self._dummy_chain.get(pid, 0) + 1
        self._dummy_chain[pid] = depth
        self.max_dummy_chain = max(self.max_dummy_chain, depth)

    def on_log_append(self, pid: int, entry: Any) -> None:
        self.log_appends += 1
        # A regular (remote) entry breaks the local-acquire dummy chain.
        self._dummy_chain[pid] = 0
        version = getattr(entry, "version", None)
        if version is None:
            return
        self.max_log_version = max(self.max_log_version, version)
        key = (pid, getattr(entry, "obj_id", None))
        last = self._last_version.get(key)
        if last is not None and version > last + 1:
            self.version_skips += 1
        if last is None or version > last:
            self._last_version[key] = version

    def on_log_remove(self, pid: int, entry: Any) -> None:
        self.log_removes += 1

    def on_gc_pair_drop(self, entry: Any, pair: Any, ckp_set: Any) -> None:
        self.gc_drops += 1

    def on_gc_dummy_drop(self, dummy: Any, ckp_set: Any) -> None:
        self.gc_drops += 1

    def on_gc_dep_drop(self, tid: Any, dep: Any, ckp_set: Any) -> None:
        self.gc_drops += 1

    def on_restore(self, pid: int) -> None:
        self.restores += 1

    # ------------------------------------------------------------------
    # distillation
    # ------------------------------------------------------------------
    def features(self) -> List[str]:
        """The run's protocol-state features, sorted (deterministic)."""
        out: List[str] = []
        for phase in self.phases_seen:
            out.append(f"recovery-phase:{phase.value}")
        if self.recoveries_started:
            out.append(f"recoveries:{bucket(self.recoveries_started)}")
        if self.max_concurrent_recoveries > 1:
            out.append(
                f"concurrent-recoveries:{self.max_concurrent_recoveries}"
            )
        out.append(f"ckp-sets:{bucket(self.ckp_sets)}")
        out.append(f"gc-floor-advances:{bucket(self.gc_floor_advances)}")
        if self.dummies:
            out.append(f"dummy-chain-depth:{bucket(self.max_dummy_chain)}")
        out.append(f"log-appends:{bucket(self.log_appends)}")
        if self.max_log_version:
            out.append(f"log-version-max:{bucket(self.max_log_version)}")
        if self.version_skips:
            out.append("log-version-skip")
        if self.gc_drops:
            out.append(f"gc-drops:{bucket(self.gc_drops)}")
        if self.log_removes:
            out.append(f"log-removes:{bucket(self.log_removes)}")
        if self.restores:
            out.append(f"restores:{bucket(self.restores)}")
        return sorted(out)


class CoverageMap:
    """Accumulated feature -> (first trial, hit count) across a fuzz run."""

    def __init__(self) -> None:
        self._features: Dict[str, Dict[str, int]] = {}

    def observe(self, features: List[str], trial: int) -> List[str]:
        """Record one trial's features; return the *new* ones, sorted."""
        new: List[str] = []
        for feature in features:
            entry = self._features.get(feature)
            if entry is None:
                self._features[feature] = {"first_trial": trial, "trials": 1}
                new.append(feature)
            else:
                entry["trials"] += 1
        return sorted(new)

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, feature: str) -> bool:
        return feature in self._features

    @property
    def features(self) -> List[str]:
        return sorted(self._features)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": COVERAGE_SCHEMA,
            "features": {
                name: dict(self._features[name])
                for name in sorted(self._features)
            },
        }

    def to_json(self) -> str:
        """Canonical byte-stable JSON spelling (the CI artifact)."""
        return canonical_json(self.as_dict()) + "\n"


def outcome_features(result: Optional[Any]) -> List[str]:
    """Run-outcome features from a :class:`~repro.cluster.system.RunResult`.

    Complements the probe's protocol-state view with the terminal shape
    of the run; ``None`` (the run died in an exception) contributes
    nothing -- the error class itself becomes the feature via the
    engine's ``outcome:error:...`` tag.
    """
    if result is None:
        return []
    out: List[str] = []
    if result.aborted:
        out.append("outcome:aborted")
    elif result.completed:
        out.append("outcome:completed")
    rollbacks = result.metrics.total_survivor_rollbacks
    if rollbacks:
        out.append(f"survivor-rollbacks:{bucket(rollbacks)}")
    if result.recoveries:
        truncated = sum(1 for record in result.recoveries if record.truncated)
        if truncated:
            out.append("recovery-truncated")
    return sorted(out)
