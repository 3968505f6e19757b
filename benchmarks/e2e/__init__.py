"""The benchmark of record: six workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root names the workloads, the
metrics, their units and their regression bounds; this package measures
them.  It drives the program only through public functions and installs
its own timing spans from the outside; see ``README.md`` here.

Two entry points::

    python3 benchmarks/e2e/run.py --workload ff_wide --seed 7 --seconds 10 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e run|compare ...

The first is the contract the driver runs (one workload, one JSON line);
the second runs every workload into one result file and compares two
such files.  ``repro bench`` / ``BENCH_perf.json`` stay the
micro-benchmark regression gate; every end-to-end performance claim
names one metric and one workload from ``BENCHMARK.json`` instead.
"""
