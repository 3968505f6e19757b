"""Module-level call graph over the analyzed tree.

Python has no static types to resolve calls with, so the graph is built
from the resolution heuristics that hold in this codebase:

* ``f(...)`` -- a function of the same module, or a ``from m import f``
  symbol from another module of the tree;
* ``mod.f(...)`` -- where ``mod`` is an imported module of the tree;
* ``self.m(...)`` -- a method of the enclosing class (falling back to a
  unique same-module match);
* ``obj.m(...)`` -- linked only when exactly one class in the whole
  tree defines a method ``m`` and ``m`` is not a common container/file
  method name (``get``, ``append``, ...) -- a deliberate
  precision/recall trade-off: distinctive protocol methods resolve,
  ubiquitous names stay unlinked rather than linking wrongly;
* ``Class(...)`` -- the class's ``__init__``.

Calls inside nested functions and lambdas are attributed to their
enclosing top-level function or method (closures overwhelmingly run on
behalf of their definer), which keeps the graph closed without
modelling escape.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Module, ModuleTable
from repro.analysis.cfg import iter_functions

#: Attribute-call names never resolved by unique match: they belong to
#: builtin containers/files far more often than to tree classes.
AMBIENT_METHOD_NAMES = frozenset({
    "get", "items", "keys", "values", "append", "appendleft", "add",
    "pop", "popleft", "update", "copy", "clear", "sort", "split",
    "join", "strip", "read", "write", "readline", "flush", "close",
    "put", "extend", "remove", "discard", "insert", "count", "index",
    "format", "encode", "decode", "startswith", "endswith", "replace",
    "setdefault", "lower", "upper", "most_common", "isdigit", "group",
})


@dataclass
class FunctionInfo:
    """One function or method of the analyzed tree."""

    qualname: str
    module: Module
    node: ast.AST
    class_name: Optional[str] = None

    @property
    def lineno(self) -> int:
        return int(getattr(self.node, "lineno", 0))


@dataclass
class CallSite:
    """One resolved call edge."""

    callee: str
    lineno: int


@dataclass
class CallGraph:
    """Functions plus resolved call edges, with reverse lookup."""

    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    calls: Dict[str, List[CallSite]] = field(default_factory=dict)


class _ModuleScope:
    """Import aliases and local definitions of one module."""

    def __init__(self, module: Module, table: ModuleTable) -> None:
        self.module = module
        #: local alias -> dotted module name (tree modules only)
        self.module_aliases: Dict[str, str] = {}
        #: local name -> qualified function (``from m import f``)
        self.symbol_aliases: Dict[str, str] = {}
        #: function name -> qualname (module-level defs)
        self.functions: Dict[str, str] = {}
        #: class name -> {method name -> qualname}
        self.classes: Dict[str, Dict[str, str]] = {}
        for node in module.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if table.get(alias.name) is not None:
                        local = alias.asname or alias.name.split(".")[0]
                        self.module_aliases[local] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    dotted = f"{node.module}.{alias.name}"
                    if table.get(dotted) is not None:
                        self.module_aliases[local] = dotted
                    else:
                        self.symbol_aliases[local] = dotted


def _collect_definitions(table: ModuleTable, graph: CallGraph,
                         scopes: Dict[str, _ModuleScope]) -> None:
    for module in table:
        scope = scopes[module.name]
        for class_name, node in iter_functions(module.tree):
            func_name = getattr(node, "name", "")
            if class_name is None:
                qualname = f"{module.name}.{func_name}"
                scope.functions[func_name] = qualname
            else:
                qualname = f"{module.name}.{class_name}.{func_name}"
                scope.classes.setdefault(class_name, {})[func_name] = qualname
            graph.functions[qualname] = FunctionInfo(
                qualname=qualname, module=module, node=node,
                class_name=class_name)


def _method_index(graph: CallGraph) -> Dict[str, List[str]]:
    """method name -> qualnames of every class method with that name."""
    index: Dict[str, List[str]] = {}
    for qualname, info in graph.functions.items():
        if info.class_name is not None:
            index.setdefault(qualname.rsplit(".", 1)[-1],
                             []).append(qualname)
    return index


def build_call_graph(table: ModuleTable) -> CallGraph:
    """Resolve every call in every function of ``table``."""
    graph = CallGraph()
    scopes = {module.name: _ModuleScope(module, table) for module in table}
    _collect_definitions(table, graph, scopes)
    methods = _method_index(graph)

    for module in table:
        scope = scopes[module.name]
        for class_name, node in iter_functions(module.tree):
            func_name = getattr(node, "name", "")
            if class_name is None:
                caller = f"{module.name}.{func_name}"
            else:
                caller = f"{module.name}.{class_name}.{func_name}"
            sites = graph.calls.setdefault(caller, [])
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                callee = _resolve(call.func, scope, class_name, methods,
                                  graph)
                if callee is not None:
                    sites.append(CallSite(callee=callee,
                                          lineno=call.lineno))
    return graph


def _resolve(func: ast.expr, scope: _ModuleScope,
             class_name: Optional[str], methods: Dict[str, List[str]],
             graph: CallGraph) -> Optional[str]:
    if isinstance(func, ast.Name):
        name = func.id
        if name in scope.functions:
            return scope.functions[name]
        if name in scope.classes:
            init = scope.classes[name].get("__init__")
            if init is not None:
                return init
        if name in scope.symbol_aliases:
            target = scope.symbol_aliases[name]
            if target in graph.functions:
                return target
            init = f"{target}.__init__"
            if init in graph.functions:
                return init
        return None
    if not (isinstance(func, ast.Attribute)):
        return None
    attr = func.attr
    value = func.value
    if isinstance(value, ast.Name):
        if value.id == "self" and class_name is not None:
            own = scope.classes.get(class_name, {})
            if attr in own:
                return own[attr]
        elif value.id in scope.module_aliases:
            target_module = scope.module_aliases[value.id]
            qualname = f"{target_module}.{attr}"
            if qualname in graph.functions:
                return qualname
            init = f"{qualname}.__init__"
            if init in graph.functions:
                return init
            return None
        elif value.id in scope.classes:
            # ClassName.method(...) -- explicit class dispatch.
            found = scope.classes[value.id].get(attr)
            if found is not None:
                return found
    # Unique-match fallback for distinctive method names.
    if attr in AMBIENT_METHOD_NAMES:
        return None
    candidates = methods.get(attr, ())
    if len(candidates) == 1:
        return candidates[0]
    return None
