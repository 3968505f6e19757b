"""``compare A.json B.json``: is B worse than A by more than the bounds?

Both files come from ``python -m benchmarks.e2e run``.  One row per
(end-to-end metric, workload) with both medians and quartiles over the
files' runs, the bound ``BENCHMARK.json`` fixed, and a verdict:

``worse``       B's median is worse than A's by more than the bound
``better``      B's median is better by more than A's own spread (by more
                than the bound when A is a single run)
``within``      neither
``unresolved``  the run-to-run spread is wider than the bound, so the
                medians cannot be told apart -- unless every run of B
                reads better than every run of A, which is ``better``

Per-layer metrics have no bound and are listed without a verdict.
Behaviour digests and exact counts must be identical when both files
used the same seed; a difference is reported and fails the comparison.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from benchmarks.e2e import stats
from benchmarks.e2e.spec import load_spec


def _values(rows: List[Dict[str, Any]], metric: str) -> List[float]:
    return [row["metrics"][metric]["value"] for row in rows
            if metric in row["metrics"]]


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, relative change of the median; positive = worse)."""
    mid_a, mid_b = stats.median(a), stats.median(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
    spreads = [s for s in (stats.spread(a), stats.spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        clean = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return ("better" if clean else "unresolved"), change
    if change > bound:
        return "worse", change
    own = stats.spread(a)
    # A single run says nothing about its spread: ask for the bound.
    if change < -(bound if own is None else own):
        return "better", change
    return "within", change


def _quartile_text(values: List[float]) -> str:
    quarts = stats.quartiles(values)
    mid = stats.median(values)
    if quarts is None:
        return f"{mid:.4g}"
    return f"{mid:.4g} [{quarts[0]:.4g}, {quarts[1]:.4g}]"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], bool]:
    """(report lines, whether anything is worse or behaviour differs)."""
    spec = load_spec()
    lines: List[str] = []
    bad = False
    header = (f"{'workload':<16} {'metric':<36} {'A median [Q1, Q3]':<34} "
              f"{'B median [Q1, Q3]':<34} {'change':>8} {'bound':>6}  verdict")
    lines.append(header)
    lines.append("-" * len(header))
    same_seed = a.get("seed") == b.get("seed")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name:<16} missing from B")
            continue
        rows_a, rows_b = a["workloads"][name], b["workloads"][name]
        for family, bounded in (("end_to_end", True), ("per_layer", False)):
            for metric in spec[family]:
                va = _values(rows_a, metric["name"])
                vb = _values(rows_b, metric["name"])
                if not va or not vb:
                    continue
                if bounded:
                    word, change = verdict(va, vb, metric["better"],
                                           metric["bound"])
                    bad = bad or word == "worse"
                    bound = f"{metric['bound']:.2f}"
                else:
                    mid = stats.median(va)
                    change = ((stats.median(vb) - mid) / abs(mid)
                              if mid else 0.0)
                    word, bound = "-", "-"
                lines.append(
                    f"{name:<16} {metric['name']:<36} "
                    f"{_quartile_text(va):<34} {_quartile_text(vb):<34} "
                    f"{change:>+8.1%} {bound:>6}  {word}")
        for row in rows_a + rows_b:
            if not row["correct"]:
                bad = True
                lines.append(f"{name:<16} a run reported failures: "
                             f"{row['detail'].get('failures')}")
        if same_seed:
            for key in ("digest", "counts"):
                seen_a = {json.dumps(row["detail"].get(key), sort_keys=True)
                          for row in rows_a}
                seen_b = {json.dumps(row["detail"].get(key), sort_keys=True)
                          for row in rows_b}
                if seen_a != seen_b:
                    bad = True
                    lines.append(f"{name:<16} BEHAVIOUR DIFFERS: {key} "
                                 "is not the same in A and B")
    return lines, bad
