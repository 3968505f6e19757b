"""The contract entry point the driver runs, one workload per call::

    python3 benchmarks/e2e/run.py --workload ff_wide --seed 7 --seconds 10 --trace 0

Prints the run's detail as one JSON line, then -- as the last line --
the result object with exactly ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero when the program cannot be imported, a
child dies, a metric is missing, or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

# Run as a script: make the checkout root importable, nothing else.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.harness import BenchmarkError, result_line, run_workload  # noqa: E402
from benchmarks.e2e.spec import load_spec, workload_names  # noqa: E402


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workload_names(spec))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="about a twentieth of the size (self-check)")
    args = parser.parse_args(argv)
    try:
        document = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), smoke=args.smoke)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": document["detail"]}))
    print(result_line(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
