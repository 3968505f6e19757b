"""Driver for the static analyzer suite.

:func:`run_analysis` parses the tree once, runs the requested analyzers
over the shared :class:`~repro.analysis.findings.ModuleTable` and call
graph, applies the two suppression layers (inline ``# analyze:
allow(<rule>)`` comments, then the checked-in baseline file), and
returns an :class:`AnalysisReport` -- the object behind ``repro
analyze`` (which ``repro check`` runs first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.callgraph import build_call_graph
from repro.analysis.escapes import analyze_escapes
from repro.analysis.findings import (
    Finding,
    ModuleTable,
    default_baseline_path,
    load_baseline,
    load_tree,
    split_by_baseline,
)
from repro.analysis.locks import analyze_locks
from repro.analysis.purity import analyze_purity
from repro.errors import ConfigError

#: Analyzer registry: name -> callable(table) -> findings.
ANALYZERS: Dict[str, Callable[[ModuleTable], List[Finding]]] = {
    "locks": analyze_locks,
    "purity": analyze_purity,
    "escapes": analyze_escapes,
}


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    analyzers: Tuple[str, ...]
    modules: int
    findings: List[Finding] = field(default_factory=list)
    inline_suppressed: List[Finding] = field(default_factory=list)
    new: List[Finding] = field(default_factory=list)
    baseline_suppressed: List[Finding] = field(default_factory=list)
    stale_keys: List[str] = field(default_factory=list)
    baseline_path: Optional[str] = None

    @property
    def clean(self) -> bool:
        return not self.new

    def rule_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def as_dict(self) -> Dict[str, object]:
        return {
            "analyzers": list(self.analyzers),
            "modules": self.modules,
            "rule_counts": self.rule_counts(),
            "new": [finding.as_dict() for finding in self.new],
            "baseline_suppressed": [finding.as_dict()
                                    for finding in self.baseline_suppressed],
            "inline_suppressed": [finding.as_dict()
                                  for finding in self.inline_suppressed],
            "stale_keys": list(self.stale_keys),
            "baseline_path": self.baseline_path,
            "clean": self.clean,
        }

    def summary(self) -> str:
        counts = self.rule_counts()
        parts = [f"{rule}={count}" for rule, count in counts.items()]
        return (f"analyzed {self.modules} modules with "
                f"{', '.join(self.analyzers)}: "
                f"{len(self.new)} new, "
                f"{len(self.baseline_suppressed)} baselined, "
                f"{len(self.inline_suppressed)} inline-allowed, "
                f"{len(self.stale_keys)} stale baseline keys"
                + (f" [{', '.join(parts)}]" if parts else ""))


def run_analysis(
    root: Optional[Path] = None,
    baseline_path: Optional[Path] = None,
    analyzers: Optional[Sequence[str]] = None,
    table: Optional[ModuleTable] = None,
    use_default_baseline: bool = True,
) -> AnalysisReport:
    """Run the suite.

    ``baseline_path=None`` falls back to the checked-in
    ``ANALYSIS_baseline.json`` when it exists (pass
    ``use_default_baseline=False`` to analyze without one).
    """
    names = tuple(analyzers) if analyzers else tuple(ANALYZERS)
    unknown = [name for name in names if name not in ANALYZERS]
    if unknown:
        raise ConfigError(
            f"unknown analyzer(s) {', '.join(unknown)}; expected "
            f"{', '.join(ANALYZERS)}")
    if table is None:
        table = load_tree(root)

    raw: List[Finding] = []
    for module in table:
        if module.error is not None:
            raw.append(Finding(rule="syntax", path=module.path, line=1,
                               message=f"does not parse: {module.error}"))
    graph = build_call_graph(table)
    for name in names:
        if name == "purity":
            raw.extend(analyze_purity(table, graph=graph))
        else:
            raw.extend(ANALYZERS[name](table))
    raw.sort(key=lambda f: (f.path, f.line, f.rule, f.message))

    findings: List[Finding] = []
    inline_suppressed: List[Finding] = []
    for finding in raw:
        module = table.by_path.get(finding.path)
        if module is not None and finding.rule in module.allowed_rules(
                finding.line):
            inline_suppressed.append(finding)
        else:
            findings.append(finding)

    resolved_baseline: Optional[Path] = baseline_path
    if resolved_baseline is None and use_default_baseline:
        candidate = default_baseline_path()
        if candidate.exists():
            resolved_baseline = candidate
    if resolved_baseline is not None:
        keys = load_baseline(resolved_baseline)
        new, baseline_suppressed, stale = split_by_baseline(findings, keys)
    else:
        new, baseline_suppressed, stale = list(findings), [], []

    return AnalysisReport(
        analyzers=names,
        modules=len(table),
        findings=findings,
        inline_suppressed=inline_suppressed,
        new=new,
        baseline_suppressed=baseline_suppressed,
        stale_keys=stale,
        baseline_path=(str(resolved_baseline)
                       if resolved_baseline is not None else None),
    )
