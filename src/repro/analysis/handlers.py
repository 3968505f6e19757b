"""Closed-vocabulary analysis: message kinds and recovery phases.

Message kinds are routed by table: each layer's class-level ``handlers``
maps the kinds it owns to one handler each, and a unit test checks that
every :class:`~repro.net.message.MessageKind` has exactly one row.  What
a test cannot see is a line that is never run, so two static rules stay:

* ``handler-dispatch`` -- a reference to a nonexistent ``MessageKind``
  member (an ``AttributeError`` only when that line first runs);
* ``phase-coverage`` -- every phase string literal compared against or
  assigned to a ``phase`` variable must be a member of
  ``RECOVERY_PHASES`` (:mod:`repro.checkpoint.recovery`); phase
  dispatch chains without a fallback must cover every phase.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.analysis.cfg import iter_functions
from repro.analysis.findings import Finding, Module, ModuleTable

#: Module that defines the MessageKind enum.
ENUM_MODULE = "repro/net/message.py"
ENUM_NAME = "MessageKind"

#: Module that defines the recovery phase vocabulary.
PHASE_MODULE = "repro/checkpoint/recovery.py"
PHASE_CONST = "RECOVERY_PHASES"

#: Methods that take a phase literal as their first argument.
_PHASE_SETTERS = frozenset({"_set_phase", "_announce_phase",
                            "on_recovery_phase"})


@dataclass
class _Chain:
    """One if/elif chain comparing a phase subject against literals."""

    subject: str
    lineno: int
    covered: Set[str]
    literals: int
    has_fallback: bool = False


def _enum_members(table: ModuleTable) -> Tuple[Optional[Module],
                                               List[str]]:
    for module in table:
        if not module.path.endswith("net/message.py"):
            continue
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == ENUM_NAME:
                members = []
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and len(stmt.targets) == 1
                            and isinstance(stmt.targets[0], ast.Name)
                            and stmt.targets[0].id.isupper()):
                        members.append(stmt.targets[0].id)
                return module, members
    return None, []


def _phase_members(table: ModuleTable) -> Tuple[Optional[Module],
                                                List[str]]:
    for module in table:
        if not module.path.endswith("checkpoint/recovery.py"):
            continue
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target: Optional[ast.expr] = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            else:
                continue
            if (isinstance(target, ast.Name)
                    and target.id == PHASE_CONST
                    and isinstance(node.value, (ast.Tuple, ast.List))):
                phases = [elt.value for elt in node.value.elts
                          if isinstance(elt, ast.Constant)
                          and isinstance(elt.value, str)]
                return module, phases
    return None, []


def _phase_comparison(test: ast.expr) -> Optional[Tuple[str,
                                                        Tuple[str, ...]]]:
    """``(subject text, literals)`` when ``test`` compares a
    phase-named subject against string literals."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
        return None
    if not isinstance(test.ops[0], (ast.Eq, ast.NotEq, ast.In)):
        return None
    left, right = test.left, test.comparators[0]
    try:
        subject = ast.unparse(left)
    except Exception:  # pragma: no cover
        return None
    if "phase" not in subject:
        return None
    literals: List[str] = []
    candidates = right.elts if isinstance(right, (ast.Tuple, ast.List,
                                                  ast.Set)) else [right]
    for item in candidates:
        if isinstance(item, ast.Constant) and isinstance(item.value, str):
            literals.append(item.value)
        else:
            return None
    return subject, tuple(literals)


def _phase_chains(module: Module) -> List[_Chain]:
    """All if/elif chains in ``module`` over one phase subject."""
    chains: List[_Chain] = []
    consumed: Set[int] = set()
    for _, func in iter_functions(module.tree):
        for node in ast.walk(func):
            if not isinstance(node, ast.If) or id(node) in consumed:
                continue
            first = _phase_comparison(node.test)
            if first is None:
                continue
            chain = _Chain(subject=first[0], lineno=node.lineno,
                           covered=set(first[1]), literals=len(first[1]))
            cursor: ast.If = node
            while True:
                orelse = cursor.orelse
                if len(orelse) == 1 and isinstance(orelse[0], ast.If):
                    nxt = orelse[0]
                    part = _phase_comparison(nxt.test)
                    consumed.add(id(nxt))
                    if part is None or part[0] != chain.subject:
                        # An elif on something else acts as a fallback.
                        chain.has_fallback = True
                        break
                    chain.covered.update(part[1])
                    chain.literals += len(part[1])
                    cursor = nxt
                else:
                    chain.has_fallback = bool(orelse)
                    break
            if chain.literals >= 2:
                chains.append(chain)
    return chains


def analyze_handlers(table: ModuleTable) -> List[Finding]:
    findings: List[Finding] = []
    enum_module, members = _enum_members(table)
    if enum_module is not None:
        findings.extend(_kind_findings(table, enum_module, members))
    phase_module, phases = _phase_members(table)
    if phase_module is not None:
        findings.extend(_phase_findings(table, phase_module, phases))
    return findings


def _kind_findings(table: ModuleTable, enum_module: Module,
                   members: List[str]) -> List[Finding]:
    """References to nonexistent members (a typo is an AttributeError
    only when the line first runs)."""
    member_set = set(members)
    return [
        Finding(rule="handler-dispatch", path=module.path, line=node.lineno,
                message=f"reference to nonexistent {ENUM_NAME}.{node.attr}")
        for module in table if module.path != enum_module.path
        for node in ast.walk(module.tree)
        if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == ENUM_NAME
            and node.attr.isupper()
            and node.attr not in member_set)
    ]


def _phase_findings(table: ModuleTable, phase_module: Module,
                    phases: List[str]) -> List[Finding]:
    findings: List[Finding] = []
    phase_set = set(phases)
    for module in table:
        for node in ast.walk(module.tree):
            literals: List[Tuple[str, int]] = []
            if isinstance(node, ast.Compare):
                part = _phase_comparison(node)
                if part is not None:
                    literals = [(value, node.lineno) for value in part[1]]
            elif isinstance(node, ast.Call):
                name = (node.func.attr
                        if isinstance(node.func, ast.Attribute)
                        else node.func.id
                        if isinstance(node.func, ast.Name) else "")
                if name in _PHASE_SETTERS and node.args:
                    arg = node.args[-1]
                    if (isinstance(arg, ast.Constant)
                            and isinstance(arg.value, str)):
                        literals = [(arg.value, node.lineno)]
            elif isinstance(node, ast.Assign):
                target = node.targets[0] if len(node.targets) == 1 else None
                named_phase = (
                    (isinstance(target, ast.Attribute)
                     and target.attr == "phase")
                    or (isinstance(target, ast.Name)
                        and target.id == "phase"))
                if (named_phase and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str)):
                    literals = [(node.value.value, node.lineno)]
            for value, lineno in literals:
                if value not in phase_set:
                    findings.append(Finding(
                        rule="phase-coverage", path=module.path,
                        line=lineno,
                        message=(f"recovery phase literal {value!r} is "
                                 f"not in {PHASE_CONST} "
                                 f"({', '.join(phases)})"),
                    ))

        for chain in _phase_chains(module):
            if not chain.covered & phase_set:
                continue
            if not chain.has_fallback:
                missing = sorted(phase_set - chain.covered)
                if missing:
                    findings.append(Finding(
                        rule="phase-coverage", path=module.path,
                        line=chain.lineno,
                        message=(f"phase dispatch over {chain.subject!r} "
                                 f"has no else and does not cover: "
                                 f"{', '.join(missing)}"),
                    ))
    return findings
