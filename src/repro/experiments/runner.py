"""Run the selected experiments and collect their results.

:func:`run_experiments` is the engine behind ``repro experiments``.
With ``jobs`` > 1 independent experiments run concurrently in worker
processes; the outcomes still come back in registry order and are
identical to a serial run.  Each experiment runs its own points in
its process, one after another: fan-out happens at this one level.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.base import ExperimentDefaults


def _experiment_task(exp_id: str, quick: bool,
                     defaults: ExperimentDefaults) -> Tuple[Any, List[Any]]:
    """Worker-side body: run one experiment under ``defaults``.

    Spawn workers start with blank defaults, so the ones the CLI asked
    for travel with the task and are entered here, inside the worker --
    this is what makes ``--check`` attach the verification observers per
    worker.  Returns the result together with the check reports the
    runs handed in, for parent-side merging.
    """
    with defaults.active() as reports:
        result = ALL_EXPERIMENTS[exp_id](quick=quick)
    return result, reports


def run_experiments(
    ids: Sequence[str] = (),
    quick: bool = True,
    check: bool = False,
    jobs: int = 1,
    seed: Optional[int] = None,
    store_dir: Optional[str] = None,
) -> Tuple[List[Tuple[str, Any]], Optional[Any]]:
    """Run the selected experiments, optionally fanned out over workers.

    Returns ``(outcomes, merged_check_report)`` where ``outcomes`` is a
    list of ``(experiment_id, ExperimentResult | WorkerFailure)`` in
    registry order regardless of completion order, and the merged report
    aggregates every inline-checked run across all workers (``None``
    unless ``check``).

    Each of ``ids`` names one experiment the way
    :func:`repro.api.resolve_experiment` reads it (an exact id, else a
    unique prefix; anything else raises
    :class:`~repro.errors.ConfigError`); none selects them all.
    ``jobs`` follows the uniform contract (``1`` serial, ``0`` = one
    worker per CPU) and fans the experiments out over that many workers.
    """
    from repro.api import resolve_experiment
    from repro.parallel import Call, RunPool, WorkerFailure

    named = {resolve_experiment(exp_id) for exp_id in ids}
    selected = [eid for eid in ALL_EXPERIMENTS if not ids or eid in named]
    defaults = ExperimentDefaults(check=check, seed=seed, store_dir=store_dir)
    calls = [Call(_experiment_task, (exp_id, quick, defaults), key=exp_id)
             for exp_id in selected]
    with RunPool(jobs=jobs) as pool:
        raw = pool.map(calls)
    outcomes: List[Tuple[str, Any]] = []
    reports: List[Any] = []
    for exp_id, item in zip(selected, raw):
        if isinstance(item, WorkerFailure):
            outcomes.append((exp_id, item))
        else:
            result, run_reports = item
            outcomes.append((exp_id, result))
            reports.extend(run_reports)
    merged = None
    if check:
        from repro.verify.inline import CheckReport

        merged = CheckReport.merge(reports)
    return outcomes, merged

