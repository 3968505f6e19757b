"""Shared plumbing for the static analyzer suite.

Three pieces every analyzer uses:

* :class:`Module` / :func:`load_tree` -- the parsed source tree (one AST
  + source lines per module, with stable package-relative paths);
* :class:`Finding` -- one structured analyzer result (rule, location,
  message, witness chain), with a *stable key* that folds line numbers
  and digits out so a checked-in baseline survives unrelated edits;
* the baseline-suppressions file -- pre-existing findings recorded in
  ``ANALYSIS_baseline.json`` gate no builds, while anything new fails
  ``repro analyze --against``.

Inline suppression: a finding can be silenced at its source line with a
trailing ``# analyze: allow(<rule>)`` comment.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: Baseline file schema identifier.
BASELINE_SCHEMA = "repro-analyze-baseline/v1"

#: Default baseline filename, checked in at the repository root (next to
#: ``BENCHMARK.json``).
BASELINE_NAME = "ANALYSIS_baseline.json"

_ALLOW_RE = re.compile(r"#\s*analyze:\s*allow\(([a-z0-9_,\s-]+)\)")


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding.

    ``witness`` carries the evidence trail: CFG path fragments for the
    lock rules, the interprocedural call chain for purity, the dispatch
    sites for exhaustiveness.  ``key()`` is the identity used by the
    baseline file: rule + path + message with digit runs folded to ``#``,
    so line drift from unrelated edits does not churn the baseline.
    """

    rule: str
    path: str
    line: int
    message: str
    witness: Tuple[str, ...] = ()

    def key(self) -> str:
        folded = re.sub(r"\d+", "#", self.message)
        return f"{self.rule} {self.path} {folded}"

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def render(self) -> str:
        lines = [str(self)]
        lines.extend(f"    {step}" for step in self.witness)
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "witness": list(self.witness),
            "key": self.key(),
        }


@dataclass
class Module:
    """One parsed source module of the analyzed tree."""

    path: str          #: package-relative, forward slashes ("repro/sim/kernel.py")
    name: str          #: dotted module name ("repro.sim.kernel")
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    error: Optional[str] = None   #: syntax error, when the parse failed

    def allowed_rules(self, lineno: int) -> Tuple[str, ...]:
        """Rules suppressed by ``# analyze: allow(...)`` on ``lineno``."""
        if not (1 <= lineno <= len(self.lines)):
            return ()
        match = _ALLOW_RE.search(self.lines[lineno - 1])
        if match is None:
            return ()
        return tuple(part.strip() for part in match.group(1).split(","))


class ModuleTable:
    """Every module of the analyzed tree, parsed once and shared."""

    def __init__(self, modules: Sequence[Module]) -> None:
        self.modules: List[Module] = sorted(modules, key=lambda m: m.path)
        self.by_name: Dict[str, Module] = {m.name: m for m in self.modules}
        self.by_path: Dict[str, Module] = {m.path: m for m in self.modules}

    def __iter__(self) -> Iterable[Module]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    def get(self, name: str) -> Optional[Module]:
        return self.by_name.get(name)


def module_name_for(relative: Path) -> str:
    parts = list(relative.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][:-3]
    return ".".join(parts)


def default_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parent.parent


def load_tree(root: Optional[Path] = None) -> ModuleTable:
    """Parse every ``*.py`` under ``root`` (default: the repro package).

    A module that fails to parse is represented by an empty AST; the
    runner surfaces the syntax error as its own finding.
    """
    base = (root if root is not None else default_root()).resolve()
    modules: List[Module] = []
    for path in sorted(base.rglob("*.py")):
        relative = path.relative_to(base.parent)
        text = path.read_text(encoding="utf-8")
        error: Optional[str] = None
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            tree = ast.Module(body=[], type_ignores=[])
            error = f"line {exc.lineno}: {exc.msg}"
        modules.append(Module(
            path=str(relative).replace("\\", "/"),
            name=module_name_for(relative),
            tree=tree,
            lines=text.splitlines(),
            error=error,
        ))
    return ModuleTable(modules)


def load_source_table(sources: Dict[str, str]) -> ModuleTable:
    """Build a table from in-memory sources (tests, seeded snippets).

    Keys are package-relative paths like ``"pkg/mod.py"`` (backslashes
    are normalized, as :func:`load_tree` does).
    """
    modules = []
    for path, text in sources.items():
        path = path.replace("\\", "/")
        modules.append(Module(
            path=path,
            name=module_name_for(Path(path)),
            tree=ast.parse(text, filename=path),
            lines=text.splitlines(),
        ))
    return ModuleTable(modules)


# ----------------------------------------------------------------------
# baseline suppressions
# ----------------------------------------------------------------------
def default_baseline_path() -> Path:
    """``ANALYSIS_baseline.json`` at the repository root.

    Resolved relative to the installed package (``src/repro`` ->
    ``src`` -> repo root) so tests and the CLI agree regardless of the
    working directory.
    """
    return default_root().parent.parent / BASELINE_NAME


def load_baseline(path: Path) -> List[str]:
    """Read a baseline file; returns the suppression keys."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != BASELINE_SCHEMA:
        raise ConfigError(
            f"{path}: baseline schema {document.get('schema')!r} is not "
            f"{BASELINE_SCHEMA!r}")
    keys = document.get("suppressions")
    if (not isinstance(keys, list)
            or not all(isinstance(key, str) for key in keys)):
        raise ConfigError(f"{path}: 'suppressions' must be a list of keys")
    return list(keys)


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Record ``findings`` as the new baseline (sorted, deduplicated)."""
    document = {
        "schema": BASELINE_SCHEMA,
        "suppressions": sorted({finding.key() for finding in findings}),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def split_by_baseline(
    findings: Sequence[Finding], baseline_keys: Iterable[str],
) -> Tuple[List[Finding], List[Finding], List[str]]:
    """Partition findings into (new, suppressed) + stale baseline keys.

    Stale keys -- baseline entries matching no current finding -- are
    reported so a fixed finding's suppression can be retired.
    """
    keys = set(baseline_keys)
    new: List[Finding] = []
    suppressed: List[Finding] = []
    seen: set = set()
    for finding in findings:
        key = finding.key()
        if key in keys:
            suppressed.append(finding)
            seen.add(key)
        else:
            new.append(finding)
    stale = sorted(keys - seen)
    return new, suppressed, stale
