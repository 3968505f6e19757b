"""Measurement, reporting, and static-analysis utilities.

Two halves live here:

* **run analysis** -- metrics and tables over simulation results
  (:mod:`~repro.analysis.metrics`, :mod:`~repro.analysis.report`,
  :mod:`~repro.analysis.timeline`);
* **static analysis** -- the whole-program analyzer suite behind
  ``repro analyze`` (:mod:`~repro.analysis.runner` and friends):
  AST->CFG dataflow (:mod:`~repro.analysis.cfg`), a module-level call
  graph (:mod:`~repro.analysis.callgraph`), and the lock-discipline,
  simulation-purity, handler-exhaustiveness, and exception-safety
  analyzers.
"""

from repro.analysis.findings import Finding
from repro.analysis.metrics import ProcessMetrics, SystemMetrics
from repro.analysis.report import Table, format_table
from repro.analysis.runner import AnalysisReport, run_analysis

__all__ = [
    "AnalysisReport",
    "Finding",
    "ProcessMetrics",
    "SystemMetrics",
    "Table",
    "format_table",
    "run_analysis",
]
