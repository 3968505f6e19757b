"""Workload abstraction.

A :class:`Workload` knows how to populate a :class:`~repro.cluster.system.
DisomSystem` (declare shared objects, spawn threads) and how to verify the
final shared state.  Verification is the backbone of the Theorem-1
experiments: a workload must produce the same verifiable final state with
and without injected failures.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.system import DisomSystem, RunResult


@dataclass
class WorkloadResult:
    """Outcome of verifying a finished run against workload expectations."""

    ok: bool
    issues: list[str] = field(default_factory=list)

    @staticmethod
    def failure(*issues: str) -> "WorkloadResult":
        return WorkloadResult(ok=False, issues=list(issues))


class Workload(abc.ABC):
    """Base class: parameterized application for the simulated cluster."""

    name: str = "workload"

    def __init__(self, **params: Any) -> None:
        self.params = {**self.default_params(), **params}

    @classmethod
    def default_params(cls) -> dict[str, Any]:
        return {}

    def param(self, key: str) -> Any:
        return self.params[key]

    @abc.abstractmethod
    def setup(self, system: DisomSystem) -> None:
        """Declare shared objects and spawn threads on ``system``."""

    @abc.abstractmethod
    def verify(self, result: RunResult) -> WorkloadResult:
        """Check the final shared state of a completed run."""

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"
