"""Metric counters collected by the simulator.

:class:`ProcessMetrics` is owned by each simulated process;
:class:`SystemMetrics` aggregates across the cluster at the end of a run.
These counters (plus :class:`repro.net.stats.NetworkStats`) are the raw
material of every experiment row in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.checkpoint.policy import CheckpointStats


@dataclass
class ProcessMetrics:
    """Per-process protocol counters."""

    # -- coherence ---------------------------------------------------------
    local_acquires: int = 0
    remote_acquires: int = 0
    request_forwards: int = 0
    grants: int = 0
    queued_requests: int = 0
    ownership_transfers: int = 0
    invalidations_sent: int = 0
    invalidations_received: int = 0
    release_writes: int = 0
    release_reads: int = 0
    duplicate_requests_discarded: int = 0

    # -- checkpoint protocol ------------------------------------------------
    log_entries_created: int = 0
    log_bytes_created: int = 0
    dummies_created: int = 0
    dummies_shipped: int = 0
    dummies_stored: int = 0
    gc_log_entries_dropped: int = 0
    gc_threadset_pairs_dropped: int = 0
    gc_dummies_dropped: int = 0
    gc_depset_entries_dropped: int = 0
    checkpoints: CheckpointStats = field(default_factory=CheckpointStats)

    # -- recovery ------------------------------------------------------------
    replayed_acquires: int = 0
    reissued_requests: int = 0
    survivor_rollbacks: int = 0  # must stay 0: the protocol is pessimistic

    def as_dict(self) -> dict:
        """Every counter by field name; the checkpoint stats flatten to
        ``checkpoints`` (count) and ``checkpoint_bytes``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["checkpoints"] = self.checkpoints.count
        out["checkpoint_bytes"] = self.checkpoints.bytes_total
        return out


@dataclass
class SystemMetrics:
    """Cluster-wide aggregate of :class:`ProcessMetrics` counters."""

    per_process: dict[int, ProcessMetrics] = field(default_factory=dict)

    def total(self, attribute: str) -> int:
        return sum(getattr(metrics, attribute) for metrics in self.per_process.values())

    @property
    def total_local_acquires(self) -> int:
        return self.total("local_acquires")

    @property
    def total_remote_acquires(self) -> int:
        return self.total("remote_acquires")

    @property
    def total_log_bytes(self) -> int:
        return self.total("log_bytes_created")

    @property
    def total_checkpoints(self) -> int:
        return sum(m.checkpoints.count for m in self.per_process.values())

    @property
    def total_checkpoint_bytes(self) -> int:
        return sum(m.checkpoints.bytes_total for m in self.per_process.values())

    @property
    def total_survivor_rollbacks(self) -> int:
        return self.total("survivor_rollbacks")

    def as_dict(self) -> dict:
        """Per-key sums over the processes."""
        out = dict.fromkeys(ProcessMetrics().as_dict(), 0)
        for metrics in self.per_process.values():
            for key, value in metrics.as_dict().items():
                out[key] += value
        return out
