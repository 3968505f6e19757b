"""Measurement, reporting, and static-analysis utilities.

Two halves live here:

* **run analysis** -- metrics and tables over simulation results
  (:mod:`~repro.analysis.metrics`, :mod:`~repro.analysis.report`,
  :mod:`~repro.analysis.timeline`);
* **static analysis** -- the whole-program analyzer suite behind
  ``repro analyze`` (:mod:`~repro.analysis.runner` and friends):
  AST->CFG dataflow (:mod:`~repro.analysis.cfg`), a module-level call
  graph (:mod:`~repro.analysis.callgraph`), and the lock-discipline,
  simulation-purity and exception-safety analyzers.

Nothing is re-exported here: the simulator imports
:mod:`~repro.analysis.metrics` on every run, and importing the package
must not drag the static analyzers in with it.
"""
