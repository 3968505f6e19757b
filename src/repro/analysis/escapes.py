"""Exception-safety analysis for callback and decoder boundaries.

Two idioms in the threaded/driver layers let a *foreign* exception
escape into a loop that must not die:

* **dynamic callable fan-out** -- ``for method in targets: method(...)``
  (the :mod:`repro.observers` registry) or a stored ``progress``/
  ``callback`` handle invoked while ``RunPool.map`` waits on its
  tickets (:mod:`repro.parallel.pool`).  The callee is user-supplied;
  if it raises, the exception propagates into the simulation kernel or
  abandons the batch half-collected.
* **wire decoders** -- ``pickle.loads``/``json.loads`` on bytes that
  crossed a process or socket boundary.  Malformed bytes raise, and an
  unprotected decode in the worker engine's collector loop
  (:mod:`repro.parallel.engine`) kills the thread (every pending ticket
  then hangs forever).

The rule (``exception-safety``) flags such calls when no enclosing
``try`` catches ``Exception`` (or is a bare ``except``).  Findings that
are deliberate policy -- e.g. the observers registry propagates listener
errors by design so the fuzzer's coverage hooks fail loudly -- are
suppressed in the checked-in baseline rather than silenced in code.
"""

from __future__ import annotations

import ast
from typing import List, Sequence, Set, Tuple

from repro.analysis.cfg import iter_functions
from repro.analysis.findings import Finding, Module, ModuleTable
from repro.analysis.locks import path_in_scope

#: Layers where an escaping exception kills a loop that must survive.
ESCAPE_SCOPE: Tuple[str, ...] = (
    "repro/observers.py",
    "repro/parallel/",
    "repro/server/",
    "repro/sim/kernel.py",
    "repro/fuzz/coverage.py",
)

#: Attribute/variable names that hold user-supplied callables.
CALLBACK_NAMES = frozenset({"progress", "callback", "on_progress",
                            "hook", "listener"})

#: Deserializers of bytes that crossed a trust boundary.
DECODER_CALLS = frozenset({("pickle", "loads"), ("json", "loads")})


def _catches_broadly(handler: ast.ExceptHandler) -> bool:
    """True when the handler catches Exception/BaseException or is bare."""
    if handler.type is None:
        return True
    names = []
    if isinstance(handler.type, ast.Name):
        names = [handler.type.id]
    elif isinstance(handler.type, ast.Tuple):
        names = [elt.id for elt in handler.type.elts
                 if isinstance(elt, ast.Name)]
    return any(name in ("Exception", "BaseException") for name in names)


def _loop_callables(func: ast.AST) -> Set[str]:
    """Names bound by ``for NAME in ...`` anywhere in ``func`` -- the
    fan-out iteration variables."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.target, ast.Name):
            names.add(node.target.id)
    return names


def _call_risk(call: ast.Call, loop_names: Set[str],
               ) -> Tuple[str, str]:
    """``(category, reason)`` when this call can raise foreign
    exceptions; category is ``"callback"`` (needs a broad catch --
    anything can come out of user code) or ``"decoder"`` (raises a known
    family, so any enclosing ``try`` counts)."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in loop_names:
            return ("callback",
                    f"dynamic callable {func.id}() from a fan-out loop")
        if func.id in CALLBACK_NAMES:
            return "callback", f"user-supplied callback {func.id}()"
    elif isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and (
                func.value.id, func.attr) in DECODER_CALLS:
            return ("decoder",
                    f"wire decoder {func.value.id}.{func.attr}() on "
                    f"boundary-crossing bytes")
        if func.attr in CALLBACK_NAMES:
            return "callback", f"user-supplied callback .{func.attr}()"
    return "", ""


def _visit(statements: Sequence[ast.stmt], broad: bool, narrow: bool,
           loop_names: Set[str], sites: List[Tuple[int, str]]) -> None:
    """Scan ``statements``, pruning at ``try`` (protection changes
    there) and at nested function definitions (they run later, on the
    caller's stack, and get their own pass).  ``broad`` = inside a
    ``try`` catching Exception; ``narrow`` = inside any ``try`` with
    handlers at all (enough for decoder calls)."""
    for stmt in statements:
        stack: List[ast.AST] = [stmt]
        trys: List[ast.Try] = []
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Try):
                trys.append(node)
                continue
            if isinstance(node, ast.Call):
                category, risk = _call_risk(node, loop_names)
                exposed = ((category == "callback" and not broad)
                           or (category == "decoder" and not narrow))
                if exposed:
                    sites.append((node.lineno, risk))
            stack.extend(ast.iter_child_nodes(node))
        for try_stmt in trys:
            body_broad = broad or any(
                _catches_broadly(handler) for handler in try_stmt.handlers)
            body_narrow = narrow or bool(try_stmt.handlers)
            _visit(try_stmt.body, body_broad, body_narrow, loop_names,
                   sites)
            _visit(try_stmt.orelse, body_broad, body_narrow, loop_names,
                   sites)
            for handler in try_stmt.handlers:
                _visit(handler.body, broad, narrow, loop_names, sites)
            _visit(try_stmt.finalbody, broad, narrow, loop_names, sites)


def _nested_defs(func: ast.AST) -> List[ast.AST]:
    """Directly nested function definitions (one level; deeper ones are
    found when their parent is processed)."""
    found: List[ast.AST] = []
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node)
            continue
        stack.extend(ast.iter_child_nodes(node))
    return found


def analyze_escapes(table: ModuleTable,
                    scope: Sequence[str] = ESCAPE_SCOPE) -> List[Finding]:
    findings: List[Finding] = []
    for module in table:
        if not path_in_scope(module.path, scope):
            continue
        # Nested defs run later, on the caller's stack: a try around the
        # *definition* protects nothing, so each gets its own pass with
        # fresh protection state.
        work: List[Tuple[str, ast.AST]] = []
        for class_name, func in iter_functions(module.tree):
            owner = (f"{class_name}.{func.name}" if class_name
                     else func.name)
            work.append((owner, func))
        cursor = 0
        while cursor < len(work):
            owner, func = work[cursor]
            cursor += 1
            for inner in _nested_defs(func):
                work.append((f"{owner}.{inner.name}", inner))
            loop_names = _loop_callables(func)
            sites: List[Tuple[int, str]] = []
            _visit(list(getattr(func, "body", [])), False, False,
                   loop_names, sites)
            seen: Set[Tuple[int, str]] = set()
            for lineno, risk in sites:
                if (lineno, risk) in seen:
                    continue
                seen.add((lineno, risk))
                findings.append(Finding(
                    rule="exception-safety", path=module.path, line=lineno,
                    message=(f"{owner}: {risk} with no enclosing "
                             f"except Exception"),
                ))
    return findings
