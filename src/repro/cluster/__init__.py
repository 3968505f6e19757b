"""Cluster orchestration: DiSOM processes, nodes and the whole system."""

from repro.cluster.config import ClusterConfig, CrashPlan
from repro.cluster.process import DisomProcess
from repro.cluster.system import DisomSystem, RunResult

__all__ = [
    "ClusterConfig",
    "CrashPlan",
    "DisomProcess",
    "DisomSystem",
    "RunResult",
]
