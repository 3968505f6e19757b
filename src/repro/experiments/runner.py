"""Run every experiment and print its tables.

Usage::

    python -m repro.experiments.runner            # quick versions
    python -m repro.experiments.runner --full     # wider sweeps
    python -m repro.experiments.runner E3 E8      # a subset
    python -m repro.experiments.runner --check    # inline verification on
    python -m repro.experiments.runner --jobs 4   # fan out over 4 workers

This is ``python -m repro experiments ...`` under its older spelling.
With ``--jobs N`` independent experiments run concurrently in worker
processes; output is still printed in registry order and is identical to
a serial run.  When exactly one experiment is selected, the fan-out
happens one level down instead (its internal sweeps run with ``jobs=N``),
unless ``--check`` is on: check reports are collected where the runs
happen, so a checked single experiment runs its sweeps in this process.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, List, Optional, Sequence, Tuple

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
    timeout: Optional[float] = None,
    progress: Optional[Callable[[int, int, str], None]] = None,
) -> Tuple[List[Tuple[str, Any]], Optional[Any]]:
    """Run the selected experiments, optionally fanned out over workers.

    Returns ``(outcomes, merged_check_report)`` where ``outcomes`` is a
    list of ``(experiment_id, ExperimentResult | WorkerFailure)`` in
    registry order regardless of completion order, and the merged report
    aggregates every inline-checked run across all workers (``None``
    unless ``check``).

    ``jobs`` follows the uniform contract (``1`` serial, ``0`` = one
    worker per CPU).  With several experiments selected the fan-out is
    across experiments and each worker runs its experiment's internal
    sweeps serially; with exactly one experiment selected the experiment
    runs in-process and its internal sweeps get ``jobs`` workers -- or
    none under ``check``, since a sweep worker's check reports would not
    come back with its metrics.
    """
    from repro.parallel import Call, RunPool, WorkerFailure, resolve_jobs

    selected = [eid for eid in ALL_EXPERIMENTS
                if not ids or any(eid.startswith(w) for w in ids)]
    n_jobs = resolve_jobs(jobs)
    defaults = ExperimentDefaults(
        check=check, seed=seed, store_dir=store_dir,
        jobs=n_jobs if len(selected) == 1 and not check else 1)
    pool_jobs = 1 if len(selected) <= 1 else n_jobs
    calls = [Call(_experiment_task, (exp_id, quick, defaults), key=exp_id)
             for exp_id in selected]
    with RunPool(jobs=pool_jobs, timeout=timeout, progress=progress) as pool:
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


def main(argv: list[str]) -> int:
    """``python -m repro.experiments.runner ARGS`` is spelled
    ``repro experiments ARGS``; one command prints the tables."""
    from repro.cli import main as cli_main

    return cli_main(["experiments", *argv])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
