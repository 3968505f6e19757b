"""``python -m benchmarks.e2e run|compare`` (with ``PYTHONPATH=src``).

``run`` executes every workload -- each in fresh child processes -- and
writes one result file; ``compare`` judges two such files against the
bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, Sequence

from benchmarks.e2e.compare import compare
from benchmarks.e2e.harness import BenchmarkError, run_all
from benchmarks.e2e.spec import load_spec, workload_names

#: ``--smoke`` measures this long per workload.
SMOKE_SECONDS = 0.3


def _progress(name: str, row: Dict[str, Any], took: float) -> None:
    status = "ok" if row["correct"] else "FAILED"
    print(f"{name}: {status}, {row['attempted']} attempted, "
          f"{row['failed']} failed, {took:.1f} s")
    for metric, entry in row["metrics"].items():
        print(f"    {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
    for why in row["detail"].get("failures", []):
        print(f"    failure: {why}")


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    seconds = (SMOKE_SECONDS if args.smoke else
               args.seconds if args.seconds is not None else
               float(spec["run_seconds"]))
    try:
        document = run_all(args.seed, seconds, args.trace, args.smoke,
                           args.runs, only=args.workload, progress=_progress)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    rows = [row for rows in document["workloads"].values() for row in rows]
    return 0 if all(row["correct"] for row in rows) else 1


def cmd_compare(args: argparse.Namespace) -> int:
    documents = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    lines, bad = compare(*documents)
    print("\n".join(lines))
    return 1 if bad else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run every workload")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--trace", action="store_true",
                     help="the traced pass: per-layer metrics")
    run.add_argument("--smoke", action="store_true",
                     help="about a twentieth of the size, a few seconds")
    run.add_argument("--runs", type=int, default=1,
                     help="runs per workload (compare wants several)")
    run.add_argument("--seconds", type=float, default=None,
                     help="measured seconds per run "
                          "(default: BENCHMARK.json run_seconds)")
    run.add_argument("--workload", action="append",
                     choices=workload_names(load_spec()),
                     help="only this workload (repeatable)")
    run.add_argument("--out", metavar="FILE", help="write the result file")
    run.set_defaults(handler=cmd_run)
    cmp_parser = commands.add_parser("compare", help="compare two result files")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    cmp_parser.set_defaults(handler=cmd_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
