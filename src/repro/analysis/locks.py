"""Lock-discipline analysis for the threaded layers.

Three rules, all driven by one held-locks dataflow over each function's
CFG (``with``-statements are recognized and always balance; explicit
``acquire()``/``release()`` calls are tracked path-sensitively):

* **lock-balance** -- an explicit ``acquire()`` must be dominated by a
  ``release()`` on every path to the function exit; releasing a lock
  that is not held, and merge points where a lock is held on one
  incoming path but not another, are reported too.
* **lock-guard** -- which lock guards each shared attribute is
  *inferred from majority usage* (Eraser's lockset discipline, applied
  statically): an attribute of a class that owns locks, accessed at
  least :data:`MIN_ACCESSES` times with at least
  :data:`GUARD_MAJORITY` of those accesses under a held lock, is
  considered guarded -- every remaining unguarded access is a finding.
  ``__init__`` is exempt (no concurrent aliases yet), and methods named
  ``*_locked`` are treated as guarded throughout (the codebase's
  caller-holds-the-lock convention).
* **lock-order** -- acquiring B while holding A adds the edge A->B to a
  global acquisition-order graph; a cycle is a potential deadlock.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import (
    STMT,
    WITH_ENTER,
    WITH_EXIT,
    Block,
    analyze_forward,
    build_cfg,
    iter_calls,
    iter_functions,
)
from repro.analysis.findings import Finding, Module, ModuleTable

#: Modules the lock rules run over: the threaded layers.  Entries
#: ending in ``/`` are directory prefixes, anything else a path suffix.
THREADED_PATHS: Tuple[str, ...] = (
    "repro/server/",
    "repro/parallel/engine.py",
    "repro/parallel/service.py",
    "repro/parallel/pool.py",
)

#: Guard inference thresholds (see module docstring).
MIN_ACCESSES = 4
GUARD_MAJORITY = 0.75

#: Constructors that create a lock object.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore",
                   "BoundedSemaphore"}

_LOCKISH_RE = re.compile(r"(^|_)(r?lock|mutex|cond|condition|sem)s?($|_)")

#: Held-lock state element: (lock id, "with" | "call").
_HeldElem = Tuple[str, str]
_Held = FrozenSet[_HeldElem]


def path_in_scope(path: str, scope: Sequence[str]) -> bool:
    """True when ``path`` falls under one of the scope entries."""
    for entry in scope:
        if entry == "":
            return True
        if entry.endswith("/"):
            if path.startswith(entry):
                return True
        elif path.endswith(entry):
            return True
    return False


def _lockish_name(name: str) -> bool:
    return bool(_LOCKISH_RE.search(name))


def _expr_text(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _expr_text(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


@dataclass
class _ClassInfo:
    module: Module
    name: str
    #: attribute names assigned a lock constructor in this class.
    lock_attrs: Set[str] = field(default_factory=set)


def _collect_classes(module: Module) -> Dict[str, _ClassInfo]:
    classes: Dict[str, _ClassInfo] = {}
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        info = _ClassInfo(module=module, name=node.name)
        for call in ast.walk(node):
            if not isinstance(call, ast.Assign):
                continue
            value = call.value
            if not (isinstance(value, ast.Call)):
                continue
            func = value.func
            factory = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "")
            if factory not in _LOCK_FACTORIES:
                continue
            for target in call.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    info.lock_attrs.add(target.attr)
        classes[node.name] = info
    return classes


class _FunctionLocks:
    """Held-locks dataflow over one function."""

    def __init__(self, module: Module, class_name: Optional[str],
                 node: ast.AST, lock_attrs: Set[str]) -> None:
        self.module = module
        self.class_name = class_name
        self.node = node
        self.func_name = getattr(node, "name", "<lambda>")
        self.lock_attrs = lock_attrs
        self.cfg = build_cfg(node)
        #: (rule, lineno, detail) -> message; deduped across fixpoint
        #: re-runs of the transfer function.
        self.events: Dict[Tuple[str, int, str], str] = {}
        #: ordered (outer, inner, lineno) acquisition pairs.
        self.order_pairs: List[Tuple[str, str, int]] = []

    # -- lock identification -------------------------------------------
    def _lock_id(self, expr: ast.expr) -> Optional[str]:
        text = _expr_text(expr)
        if text is None:
            return None
        leaf = text.rsplit(".", 1)[-1]
        if text.startswith("self."):
            if leaf in self.lock_attrs or _lockish_name(leaf):
                owner = self.class_name or self.func_name
                return f"{self.module.path}::{owner}.{text[5:]}"
            return None
        if _lockish_name(leaf):
            return f"{self.module.path}::{self.func_name}:{text}"
        return None

    # -- transfer ------------------------------------------------------
    def _acquire(self, state: Set[_HeldElem], lock: str, kind: str,
                 lineno: int) -> None:
        for held, _ in state:
            if held != lock:
                self.order_pairs.append((held, lock, lineno))
        state.add((lock, kind))

    def _release(self, state: Set[_HeldElem], lock: str,
                 lineno: int) -> None:
        for elem in list(state):
            if elem[0] == lock:
                state.discard(elem)
                return
        self.events[("lock-balance", lineno, f"release {lock}")] = (
            f"release of {lock.split('::')[-1]} which is not held on "
            f"this path")

    def _transfer(self, state: _Held, block: Block) -> _Held:
        current: Set[_HeldElem] = set(state)
        for tag, node in block.atoms:
            if tag == WITH_ENTER:
                lock = self._lock_id(node)
                if lock is not None:
                    self._acquire(current, lock, "with", node.lineno)
                continue
            if tag == WITH_EXIT:
                lock = self._lock_id(node)
                if lock is not None:
                    current = {elem for elem in current if elem[0] != lock}
                continue
            if tag != STMT:
                continue
            for call in iter_calls(node):
                func = call.func
                if not isinstance(func, ast.Attribute):
                    continue
                if func.attr not in ("acquire", "release"):
                    continue
                lock = self._lock_id(func.value)
                if lock is None:
                    continue
                if func.attr == "acquire":
                    self._acquire(current, lock, "call", call.lineno)
                else:
                    self._release(current, lock, call.lineno)
        return frozenset(current)

    @staticmethod
    def _merge(states: List[_Held]) -> _Held:
        merged = set(states[0])
        for state in states[1:]:
            merged &= set(state)
        return frozenset(merged)

    # -- the pass ------------------------------------------------------
    def run(self) -> Tuple[Dict[int, _Held], List[Finding]]:
        entry_states, reaching_exit = analyze_forward(
            self.cfg, frozenset(), self._transfer, self._merge)
        findings: List[Finding] = []
        short = lambda lock: lock.split("::")[-1]  # noqa: E731

        # Divergent held-state at merges: a lock held on one incoming
        # path but not another means acquire does not dominate release.
        exit_states = {
            index: self._transfer(entry_states[index],
                                  self.cfg.blocks[index])
            for index in entry_states
        }
        preds = self.cfg.preds()
        divergent: Set[str] = set()
        for block in self.cfg.blocks:
            incoming = [exit_states[p] for p in preds[block.index]
                        if p in exit_states]
            if len(incoming) < 2:
                continue
            union: Set[_HeldElem] = set()
            inter: Optional[Set[_HeldElem]] = None
            for state in incoming:
                union |= set(state)
                inter = set(state) if inter is None else inter & set(state)
            for lock, kind in union - (inter or set()):
                if kind == "call":
                    divergent.add(lock)

        leaked: Set[str] = set()
        for state in reaching_exit:
            for lock, kind in state:
                if kind == "call":
                    leaked.add(lock)
        for lock in sorted(leaked | divergent):
            findings.append(Finding(
                rule="lock-balance",
                path=self.module.path,
                line=self.cfg.lineno,
                message=(f"{self.func_name}: acquire of {short(lock)} is "
                         f"not matched by a release on every path to the "
                         f"function exit"),
                witness=(f"function {self._qualname()}",),
            ))
        for (rule, lineno, _), message in sorted(self.events.items()):
            findings.append(Finding(
                rule=rule, path=self.module.path, line=lineno,
                message=f"{self.func_name}: {message}",
                witness=(f"function {self._qualname()}",),
            ))
        return entry_states, findings

    def _qualname(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.func_name}"
        return self.func_name


@dataclass
class _Access:
    module: Module
    class_name: str
    attr: str
    lineno: int
    func_name: str
    guarded: bool
    is_write: bool


def _iter_nodes_skipping_functions(root: ast.AST) -> Iterator[ast.AST]:
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        if node is not root and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _attribute_accesses(stmt: ast.AST) -> Iterator[Tuple[str, int, bool]]:
    """``self.X`` accesses in a statement as (attr, lineno, is_write);
    call targets (``self.m(...)``) are methods, not shared state."""
    call_targets = {
        id(node.func) for node in _iter_nodes_skipping_functions(stmt)
        if isinstance(node, ast.Call)
    }
    for node in _iter_nodes_skipping_functions(stmt):
        if not isinstance(node, ast.Attribute):
            continue
        if id(node) in call_targets:
            continue
        if not (isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            continue
        yield node.attr, node.lineno, isinstance(node.ctx,
                                                 (ast.Store, ast.Del))


def analyze_locks(table: ModuleTable,
                  scope: Sequence[str] = THREADED_PATHS) -> List[Finding]:
    """Run all three lock rules over the modules in ``scope``."""
    findings: List[Finding] = []
    accesses: List[_Access] = []
    order_pairs: List[Tuple[str, str, str, int]] = []  # (a, b, path, line)

    for module in table:
        if not path_in_scope(module.path, scope):
            continue
        classes = _collect_classes(module)
        for class_name, node in iter_functions(module.tree):
            lock_attrs = (classes[class_name].lock_attrs
                          if class_name in classes else set())
            pass_ = _FunctionLocks(module, class_name, node, lock_attrs)
            entry_states, func_findings = pass_.run()
            findings.extend(func_findings)
            for outer, inner, lineno in pass_.order_pairs:
                order_pairs.append((outer, inner, module.path, lineno))

            if class_name is None or not lock_attrs:
                continue
            func_name = getattr(node, "name", "")
            if func_name == "__init__":
                continue
            always_guarded = func_name.endswith("_locked")
            for index, state in entry_states.items():
                block = pass_.cfg.blocks[index]
                current: Set[_HeldElem] = set(state)
                for tag, atom in block.atoms:
                    if tag == STMT:
                        held = bool(current) or always_guarded
                        for attr, lineno, is_write in \
                                _attribute_accesses(atom):
                            if attr in lock_attrs:
                                continue
                            accesses.append(_Access(
                                module=module, class_name=class_name,
                                attr=attr, lineno=lineno,
                                func_name=func_name, guarded=held,
                                is_write=is_write))
                    # Advance the held set through this atom alone.
                    single = Block(index=block.index, atoms=[(tag, atom)])
                    current = set(pass_._transfer(frozenset(current),
                                                  single))

    findings.extend(_guard_findings(accesses))
    findings.extend(_order_findings(order_pairs))
    return findings


def _guard_findings(accesses: List[_Access]) -> List[Finding]:
    by_attr: Dict[Tuple[str, str, str], List[_Access]] = {}
    for access in accesses:
        key = (access.module.path, access.class_name, access.attr)
        by_attr.setdefault(key, []).append(access)
    findings: List[Finding] = []
    for (path, class_name, attr), group in sorted(by_attr.items()):
        total = len(group)
        guarded = sum(1 for access in group if access.guarded)
        if total < MIN_ACCESSES or guarded / total < GUARD_MAJORITY:
            continue
        for access in group:
            if access.guarded:
                continue
            kind = "write to" if access.is_write else "read of"
            findings.append(Finding(
                rule="lock-guard",
                path=path,
                line=access.lineno,
                message=(f"{access.func_name}: unguarded {kind} "
                         f"{class_name}.{attr}, which is lock-guarded at "
                         f"{guarded} of its {total} access sites"),
                witness=tuple(
                    f"{'guarded' if a.guarded else 'UNGUARDED'} "
                    f"{'write' if a.is_write else 'read'} at "
                    f"{path}:{a.lineno} in {a.func_name}"
                    for a in sorted(group, key=lambda a: a.lineno)[:8]
                ),
            ))
    return findings


def _order_findings(
        pairs: List[Tuple[str, str, str, int]]) -> List[Finding]:
    edges: Dict[Tuple[str, str], Tuple[str, int]] = {}
    for outer, inner, path, lineno in pairs:
        edges.setdefault((outer, inner), (path, lineno))
    findings: List[Finding] = []
    reported: Set[Tuple[str, str]] = set()
    for (a, b), (path, lineno) in sorted(edges.items()):
        if (b, a) not in edges or (b, a) in reported:
            continue
        reported.add((a, b))
        other_path, other_line = edges[(b, a)]
        short = lambda lock: lock.split("::")[-1]  # noqa: E731
        findings.append(Finding(
            rule="lock-order",
            path=path,
            line=lineno,
            message=(f"inconsistent lock order: {short(a)} -> {short(b)} "
                     f"here but {short(b)} -> {short(a)} at "
                     f"{other_path}:{other_line} (potential deadlock)"),
            witness=(f"{short(a)} then {short(b)} at {path}:{lineno}",
                     f"{short(b)} then {short(a)} at "
                     f"{other_path}:{other_line}"),
        ))
    return findings
