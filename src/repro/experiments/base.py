"""Common experiment plumbing."""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Tuple

from repro.analysis.report import Table
from repro.api import build_workload, raise_on_failed_check
from repro.cluster.system import DisomSystem, RunResult
from repro.workloads.base import Workload


@dataclass(frozen=True)
class ExperimentDefaults:
    """What ``repro experiments --check/--seed/--store-dir`` asks of
    every run an experiment makes, without threading a flag through
    each experiment function.

    Frozen and picklable: a spawn worker does not inherit the parent's
    active defaults, so the experiment runner ships this object along
    with each experiment and re-enters :meth:`active` on the other side.
    """

    #: Attach the inline verifier to every run.
    check: bool = False
    #: Replace every experiment's per-run seed (``None``: keep them).
    seed: Optional[int] = None
    #: Route all checkpoints through a durable on-disk store.
    store_dir: Optional[str] = None

    @contextmanager
    def active(self) -> Iterator[List[Any]]:
        """Put these defaults in force for the block.

        Yields the list that collects the
        :class:`~repro.verify.inline.CheckReport` of every checked run
        made inside it.  Outside any block nothing is collected, so a
        long-lived worker keeps no per-run residue.
        """
        reports: List[Any] = []
        token = _ACTIVE.set((self, reports))
        try:
            yield reports
        finally:
            _ACTIVE.reset(token)


#: The defaults in force and the check-report collector of the
#: enclosing :meth:`ExperimentDefaults.active` block (``None`` outside).
_ACTIVE: ContextVar[Tuple[ExperimentDefaults, Optional[List[Any]]]] = \
    ContextVar("experiment_defaults", default=(ExperimentDefaults(), None))


def current_defaults() -> ExperimentDefaults:
    """The :class:`ExperimentDefaults` in force."""
    return _ACTIVE.get()[0]


@dataclass
class ExperimentResult:
    """One experiment's outcome: tables plus machine-readable findings."""

    experiment_id: str
    title: str
    tables: list[Table] = field(default_factory=list)
    findings: dict[str, Any] = field(default_factory=dict)
    #: True when the paper's claim held in this run (shape, not numbers).
    claim_holds: Optional[bool] = None

    def render(self) -> str:
        head = f"### {self.experiment_id}: {self.title}"
        body = "\n\n".join(t.render() for t in self.tables)
        verdict = ""
        if self.claim_holds is not None:
            verdict = f"\nclaim holds: {'YES' if self.claim_holds else 'NO'}"
        return f"{head}\n{body}{verdict}"


def build_system(
    workload: Workload,
    processes: int = 4,
    seed: int = 7,
    *,
    spare_nodes: int = 4,
    check: Optional[bool] = None,
    store_dir: Optional[str] = None,
    **build_args: Any,
) -> DisomSystem:
    """Build one cluster execution under the defaults in force
    (:class:`ExperimentDefaults`) and return it un-run.

    Takes the keywords of :func:`repro.api.build_workload`.  ``check=None``
    yields to the defaults' ``check``, ``seed`` to their seed override,
    and ``store_dir=None`` to their store directory.
    """
    defaults = current_defaults()
    return build_workload(
        workload,
        processes=processes,
        seed=seed if defaults.seed is None else defaults.seed,
        spare_nodes=spare_nodes,
        check=defaults.check if check is None else check,
        store_dir=defaults.store_dir if store_dir is None else store_dir,
        **build_args,
    )


def run_system(system: DisomSystem) -> RunResult:
    """Run a system from :func:`build_system`.  When the inline verifier
    rode along, any race or invariant violation it found fails the
    experiment, and its report goes to the active collector."""
    result = system.run()
    raise_on_failed_check(result)
    reports = _ACTIVE.get()[1]
    if reports is not None and result.check_report is not None:
        reports.append(result.check_report)
    return result


def run_workload(workload: Workload, *args: Any,
                 **kwargs: Any) -> Tuple[DisomSystem, RunResult]:
    """:func:`build_system` (same arguments), then :func:`run_system`."""
    system = build_system(workload, *args, **kwargs)
    return system, run_system(system)
