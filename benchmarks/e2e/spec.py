"""``BENCHMARK.json`` is the single source of metric names, units and bounds."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

#: The checkout root (``benchmarks/e2e/spec.py`` is two levels below it).
ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(spec: Dict[str, Any]) -> List[str]:
    return [entry["name"] for entry in spec["workloads"]]


def metric_table(spec: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    """name -> declaration, for the metric family one run prints."""
    family = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry for entry in family}
