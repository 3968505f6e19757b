"""Parameter-sweep utility for experiments and exploratory studies.

A :class:`Sweep` runs a factory over the cross product of parameter axes,
collects per-run metrics through an extractor, and renders the result as a
table.  Used by the ``--full`` experiment mode and available to library
users for their own studies::

    sweep = Sweep(axes={"processes": [2, 4, 8], "seed": [0, 1]})
    table = sweep.run(my_run_fn, extract=lambda r: {"msgs": r.net["total_messages"]})

``run(jobs=N)`` fans the points out over a :class:`repro.parallel.RunPool`
of worker processes.  The merge is by submission index, so the resulting
table is byte-identical to the serial one; ``run_fn``/``extract`` must be
picklable (module-level functions, ``functools.partial``) to actually
fan out -- lambdas silently fall back to the serial path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.analysis.report import Table


@dataclass
class SweepRow:
    """One point of the sweep: the parameters and the extracted metrics."""

    params: dict[str, Any]
    metrics: dict[str, Any]
    error: str | None = None


@dataclass
class Sweep:
    """Cross-product parameter sweep."""

    axes: Mapping[str, Iterable[Any]]
    title: str = "sweep"

    def points(self) -> list[dict[str, Any]]:
        names = sorted(self.axes)
        combos = itertools.product(*(list(self.axes[n]) for n in names))
        return [dict(zip(names, combo)) for combo in combos]

    def run(
        self,
        run_fn: Callable[..., Any],
        extract: Callable[[Any], dict[str, Any]],
        keep_errors: bool = False,
        jobs: int = 1,
        timeout: Optional[float] = None,
        progress: Optional[Callable[[int, int, str], None]] = None,
        pool: Optional[Any] = None,
    ) -> "SweepResult":
        """Run ``run_fn(**params)`` at every point; extract metrics.

        With ``keep_errors`` a failing point becomes a row with its error
        recorded instead of propagating (useful for abort-rate studies).

        ``jobs`` > 1 distributes the points over that many worker
        processes (``0`` = one per CPU); rows come back in cross-product
        order either way, so the rendered table is identical to a serial
        run.  ``extract`` runs in the worker, keeping only the small
        metrics dict crossing the process boundary.  ``timeout`` bounds
        each point's wall-clock in the parallel path (an overdue point
        becomes an error row under ``keep_errors``); ``progress(done,
        total, key)`` is called as points complete.  An already-warm
        :class:`repro.parallel.RunPool` can be passed as ``pool`` to
        amortize worker startup across several sweeps (``jobs``/
        ``timeout``/``progress`` are then the pool's own).
        """
        points = self.points()
        from repro.parallel import Call, RunPool, WorkerFailure

        calls = [
            Call(_sweep_point, (run_fn, extract, params),
                 key=",".join(f"{k}={params[k]}" for k in sorted(params)))
            for params in points
        ]
        if pool is not None:
            outcomes = pool.map(calls)
        else:
            with RunPool(jobs=jobs, timeout=timeout,
                         progress=progress) as own_pool:
                outcomes = own_pool.map(calls)
        rows: list[SweepRow] = []
        for params, outcome in zip(points, outcomes):
            if isinstance(outcome, WorkerFailure):
                if not keep_errors:
                    outcome.raise_()
                rows.append(SweepRow(
                    params, {},
                    error=f"{outcome.error_type}: {outcome.message}"))
            else:
                rows.append(SweepRow(params, dict(outcome)))
        return SweepResult(title=self.title, rows=rows)


def _sweep_point(
    run_fn: Callable[..., Any],
    extract: Callable[[Any], dict[str, Any]],
    params: dict[str, Any],
) -> dict[str, Any]:
    """Worker-side body of one sweep point: run, extract, return metrics.

    Module-level so it pickles by reference into spawn workers; the full
    run outcome stays in the worker and only the metrics dict travels
    back.
    """
    return dict(extract(run_fn(**params)))


@dataclass
class SweepResult:
    """Collected sweep rows with table rendering and simple aggregation."""

    title: str
    rows: list[SweepRow] = field(default_factory=list)

    def metric_names(self) -> list[str]:
        names: list[str] = []
        for row in self.rows:
            for key in row.metrics:
                if key not in names:
                    names.append(key)
        return names

    def param_names(self) -> list[str]:
        return sorted(self.rows[0].params) if self.rows else []

    def table(self) -> Table:
        params = self.param_names()
        metrics = self.metric_names()
        table = Table(self.title, params + metrics + (["error"] if any(
            r.error for r in self.rows) else []))
        for row in self.rows:
            values = [row.params[p] for p in params]
            values += [row.metrics.get(m) for m in metrics]
            if any(r.error for r in self.rows):
                values.append(row.error or "-")
            table.add_row(*values)
        return table

    def aggregate(self, metric: str, over: str) -> dict[Any, float]:
        """Mean of ``metric`` grouped by the value of parameter ``over``."""
        groups: dict[Any, list[float]] = {}
        for row in self.rows:
            value = row.metrics.get(metric)
            if isinstance(value, (int, float)):
                groups.setdefault(row.params[over], []).append(float(value))
        return {key: sum(vals) / len(vals) for key, vals in groups.items() if vals}

    def column(self, metric: str) -> list[Any]:
        return [row.metrics.get(metric) for row in self.rows]
