"""The process that does the work: one workload, one fresh interpreter.

``python -m benchmarks.e2e.child --workload W --seed N --seconds S --trace 0|1``
builds the workload, prints ``{"ready": true}``, measures, and prints one
``{"result": ...}`` line.  The parent (``harness.py``) times the span from
spawning this process to the ready line -- that is ``setup_s``: the
interpreter, ``import repro``, the build and the workload's own set-up.
A fresh process per workload matters because the program keeps
process-global state (intern tables, the size cache, the trace gate).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, Sequence

from benchmarks.e2e.spec import load_spec, metric_table

SIM_WORKLOADS = ("ff_wide", "ff_long", "crash_storm", "durable_restart")


def make_workload(name: str, seed: int, smoke: bool, work_dir: str) -> Any:
    if name in SIM_WORKLOADS:
        from benchmarks.e2e.sims import SimWorkload as factory
    elif name == "serve_mix":
        from benchmarks.e2e.serve import ServeWorkload as factory
    elif name == "fuzz_checked":
        from benchmarks.e2e.fuzzload import FuzzWorkload as factory
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return factory(name, seed, smoke, work_dir)


def _emit(document: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro  # noqa: F401 - part of the set-up being timed

    workload = make_workload(args.workload, args.seed, args.smoke,
                             args.work_dir)
    try:
        workload.setup()
        _emit({"ready": True, "process_groups": workload.process_groups})
        if args.setup_only:
            return 0
        outcome = (workload.measure_traced(args.seconds) if args.trace
                   else workload.measure(args.seconds))
    finally:
        workload.close()

    declared = metric_table(load_spec(), bool(args.trace))
    metrics = outcome["metrics"]
    if args.trace:
        # A layer a workload never enters reads zero.
        metrics = {**dict.fromkeys(declared, 0.0), **metrics}
    else:
        metrics["peak_rss_mb"] = workload.peak_rss_mb()
    undeclared = sorted(set(metrics) - set(declared) - {"setup_s"})
    if undeclared:
        raise SystemExit(f"metrics not in BENCHMARK.json: {undeclared}")
    outcome["metrics"] = metrics
    _emit({"result": outcome})
    return 0


if __name__ == "__main__":
    sys.exit(main())
