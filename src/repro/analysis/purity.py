"""Determinism analysis: a run must stay a pure function of its seed.

Every claim the simulator makes -- reproducible experiments, the
piece-wise-determinism assumption behind recovery replay, the stability
of the fuzz corpus -- rests on that property.  This module is the one
engine that guards it in the source, with one table saying which paths
may touch the host (:data:`PATH_TABLE`) and two families of rules:

**Per-statement rules, over every module of the tree.**

* **wall-clock** -- calls that read the host clock (``time.time``,
  ``time.perf_counter``, ``datetime.now``, ...).  Simulated time comes
  from the kernel; host time must not leak into behavior.  Waived only
  for the *host-side* rows of the table.
* **unseeded-random** -- calls to module-level :mod:`random` functions
  (``random.random()``, ``random.choice()``, ...).  All randomness must
  flow through named, seeded streams (:mod:`repro.sim.rng`, the one
  row trusted with it).  Constructing seeded ``random.Random``
  instances is allowed everywhere -- only the shared module-level
  generator is forbidden.
* **unordered-iteration** -- ``for`` loops and comprehensions iterating
  directly over a set expression (set literals, ``set(...)`` /
  ``frozenset(...)`` calls, set operators, or attributes known to be
  sets in this codebase).  Set iteration order depends on hashing and
  insertion history; when it feeds scheduling or message emission the
  run becomes order-sensitive.  Wrap in ``sorted(...)``.

These run tree-wide because none of them needs a call graph to be
wrong: a ``time.time()`` in ``cluster/`` or ``threads/`` is as much a
leak as one in ``sim/``.

**Zone rules, over the deterministic core only.**  Filesystem and
threading/process/socket use are normal on the host side, so they are
findings only inside the *core* rows -- as direct statements, and
*interprocedurally*: each function's direct effects are propagated over
the module-level call graph, and a core function whose call chain
reaches an effect outside the core is flagged at the call site that
leaves it, with the full chain as the witness.  Calls into *trusted*
rows do not propagate effects (the effect is their job).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.findings import Finding, Module, ModuleTable
from repro.analysis.locks import path_in_scope

#: Effect classes.
WALL_CLOCK = "wall-clock"
UNSEEDED_RANDOM = "unseeded-random"
UNORDERED_ITERATION = "unordered-iteration"
FILESYSTEM = "filesystem"
THREADING = "threading"

#: The per-statement rules that apply to every module of the tree.
TREE_WIDE_RULES = (WALL_CLOCK, UNSEEDED_RANDOM, UNORDERED_ITERATION)

#: Path-table roles.
CORE = "core"            #: deterministic simulation: every rule applies
HOST_SIDE = "host-side"  #: may read the host clock; the other rules apply
TRUSTED = "trusted"      #: the licensed effect is its job; effects stop here

#: The one path table: ``(path, role, licensed effect, reason)``.  Paths
#: ending in ``/`` are directory prefixes, anything else a module.  A
#: module not matched by any row is ordinary host-adjacent code: the
#: tree-wide rules apply to it in full and the zone rules do not.
PATH_TABLE: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("repro/sim/", CORE, None,
     "event kernel, simulated clock, trace log"),
    ("repro/memory/", CORE, None,
     "coherence engines and consistency models"),
    ("repro/checkpoint/", CORE, None,
     "the paper's protocol: log, GC, recovery, replay"),
    ("repro/net/", CORE, None,
     "simulated network, latency model, wire sizing"),
    ("repro/workloads/", CORE, None,
     "application programs that recovery re-executes"),
    ("repro/sim/rng.py", TRUSTED, UNSEEDED_RANDOM,
     "owns the seeding of every named random stream"),
    ("repro/storage/", TRUSTED, FILESYSTEM,
     "owns durable checkpoint I/O, behind fault injection and the "
     "fsync policy"),
    ("repro/verify/inline.py", TRUSTED, WALL_CLOCK,
     "a listener the core notifies through the observer registry; it "
     "times its own overhead for reports, never control flow"),
    ("repro/parallel/service.py", HOST_SIDE, WALL_CLOCK,
     "task deadlines, liveness sweeps and join timeouts; workers stay a "
     "pure function of their payload"),
    ("repro/server/app.py", HOST_SIDE, WALL_CLOCK,
     "request latency and uptime; response bodies stay clock-free"),
    ("repro/server/handlers.py", HOST_SIDE, WALL_CLOCK,
     "per-request latency measurement"),
    ("repro/server/metrics.py", HOST_SIDE, WALL_CLOCK,
     "latency windows and uptime for /metrics"),
    ("repro/server/client.py", HOST_SIDE, WALL_CLOCK,
     "readiness polling against a live server"),
    ("repro/fuzz/engine.py", HOST_SIDE, WALL_CLOCK,
     "the --budget-seconds cap, checked between batches: a capped run "
     "is a strict prefix of the uncapped one"),
)


def _paths(role: str) -> Tuple[str, ...]:
    return tuple(path for path, row_role, _, _ in PATH_TABLE
                 if row_role == role)


#: Module scopes that must stay effect-free.
PURE_ZONES: Tuple[str, ...] = _paths(CORE)

#: Modules whose effects are their contract; propagation stops here.
TRUSTED_PATHS: Tuple[str, ...] = _paths(TRUSTED)


def licensed(path: str, effect: str) -> bool:
    """True when a non-core row of the table lets ``path`` perform
    ``effect``."""
    return any(row_effect == effect and path_in_scope(path, (row_path,))
               for row_path, _, row_effect, _ in PATH_TABLE)


#: (module alias, attribute) pairs that read the host clock.
WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: Names on the ``random`` module that are fine to call: constructing an
#: explicitly seeded generator is the *correct* pattern.
RANDOM_ALLOWED = {"Random", "SystemRandom", "seed"}

#: Attributes known (by convention in this codebase) to be sets.
KNOWN_SET_ATTRS = {"copy_set", "local_readers"}

#: Modules any direct call into which is an effect of the given class.
_MODULE_EFFECTS = {
    **dict.fromkeys(("os", "shutil", "tempfile", "glob"), FILESYSTEM),
    **dict.fromkeys(("threading", "multiprocessing", "subprocess", "socket",
                     "_thread"), THREADING),
}

#: Path-like method names that touch the filesystem regardless of the
#: receiver expression.
_FS_METHODS = frozenset({"read_text", "write_text", "read_bytes",
                         "write_bytes", "unlink", "touch", "mkdir",
                         "rglob"})


@dataclass
class _Effect:
    """One effect of one function: the primitive site, or the call that
    imports it from a callee."""

    description: str      #: e.g. "time.perf_counter()"
    path: str             #: where this step happens
    line: int
    via: Optional[str] = None   #: callee qualname (None = primitive site)


class _Imports:
    """Effect-relevant import aliases of one module (function-local
    imports included)."""

    def __init__(self, module: Module) -> None:
        self.module_aliases: Dict[str, str] = {}
        self.name_effects: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    self.module_aliases[alias.asname or root] = root
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".")[0]
                for alias in node.names:
                    local = alias.asname or alias.name
                    if (node.module in ("time", "datetime")
                            and (root, alias.name) in WALL_CLOCK_CALLS):
                        self.name_effects[local] = (
                            WALL_CLOCK, f"{node.module}.{alias.name}()")
                    elif (node.module == "random"
                          and alias.name not in RANDOM_ALLOWED):
                        self.name_effects[local] = (
                            UNSEEDED_RANDOM, f"random.{alias.name}()")
                    elif root in _MODULE_EFFECTS:
                        self.name_effects[local] = (
                            _MODULE_EFFECTS[root],
                            f"{node.module}.{alias.name}()")


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Set):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.Attribute) and node.attr in KNOWN_SET_ATTRS:
        return True
    if (isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.BitXor,
                                     ast.Sub))):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _direct_effects(node: ast.AST,
                    imports: _Imports) -> List[Tuple[str, int, str]]:
    """(effect class, lineno, description) for every primitive in
    ``node`` (nested functions included -- they run on the definer's
    behalf).  The only place effect primitives are matched."""
    found: List[Tuple[str, int, str]] = []
    for item in ast.walk(node):
        if isinstance(item, ast.For):
            iterables = [item.iter]
        elif isinstance(item, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iterables = [generator.iter for generator in item.generators]
        else:
            iterables = []
        for iterable in iterables:
            if _is_set_expr(iterable):
                found.append((UNORDERED_ITERATION, item.lineno,
                              "a set iterated in hash order; wrap the "
                              "iterable in sorted(...)"))
        if not isinstance(item, ast.Call):
            continue
        func = item.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                found.append((FILESYSTEM, item.lineno, "open()"))
            elif func.id in imports.name_effects:
                found.append((imports.name_effects[func.id][0], item.lineno,
                              imports.name_effects[func.id][1]))
        elif isinstance(func, ast.Attribute):
            # ``mod.attr(...)`` on a plain name, resolved through aliases.
            name = func.value.id if isinstance(func.value, ast.Name) else ""
            base = imports.module_aliases.get(name, name)
            if (base, func.attr) in WALL_CLOCK_CALLS or (
                    name, func.attr) in WALL_CLOCK_CALLS:
                found.append((WALL_CLOCK, item.lineno,
                              f"{name}.{func.attr}()"))
            elif base == "random" and func.attr not in RANDOM_ALLOWED:
                found.append((UNSEEDED_RANDOM, item.lineno,
                              f"random.{func.attr}()"))
            elif base in _MODULE_EFFECTS:
                found.append((_MODULE_EFFECTS[base], item.lineno,
                              f"{name}.{func.attr}()"))
            elif func.attr in _FS_METHODS:
                found.append((FILESYSTEM, item.lineno,
                              f".{func.attr}() (path I/O)"))
    return found


def _statement_findings(module: Module, imports: _Imports,
                        spans: List[Tuple[int, int, str]]) -> List[Finding]:
    """The per-statement rules over one module: tree-wide rules
    everywhere, filesystem/threading in the core, each minus what the
    path table licenses.  ``spans`` are the module's functions as
    ``(first line, last line, name)``, to say where a site is."""
    core = path_in_scope(module.path, PURE_ZONES)
    zone = ("a deterministic-simulation module" if core
            else "a module the path table does not license for it")
    findings: List[Finding] = []
    for effect, lineno, description in _direct_effects(module.tree, imports):
        if not core and effect not in TREE_WIDE_RULES:
            continue
        if licensed(module.path, effect):
            continue
        where = max(((start, name) for start, end, name in spans
                     if start <= lineno <= end),
                    default=(0, "<module>"))[1]
        when = "at import time of" if where == "<module>" else "in"
        findings.append(Finding(
            rule="purity", path=module.path, line=lineno,
            message=f"{where}: {effect} effect {when} {zone}: {description}",
            witness=(f"primitive at {module.path}:{lineno}",),
        ))
    return findings


def analyze_purity(table: ModuleTable,
                   graph: Optional[CallGraph] = None) -> List[Finding]:
    """Per-statement findings over the whole tree, plus interprocedural
    boundary findings for call chains that leave the core."""
    if graph is None:
        graph = build_call_graph(table)
    imports = {module.name: _Imports(module) for module in table}

    spans: Dict[str, List[Tuple[int, int, str]]] = {}
    for qualname, info in graph.functions.items():
        spans.setdefault(info.module.name, []).append(
            (info.lineno, getattr(info.node, "end_lineno", info.lineno),
             qualname.rsplit(".", 1)[-1]))
    findings: List[Finding] = []
    for module in table:
        findings.extend(_statement_findings(
            module, imports[module.name], spans.get(module.name, [])))

    #: qualname -> {effect class -> _Effect}; unordered iteration is a
    #: hazard of the statement itself, not an effect a caller inherits.
    effects: Dict[str, Dict[str, _Effect]] = {}
    worklist: List[Tuple[str, str]] = []
    for qualname, info in graph.functions.items():
        if path_in_scope(info.module.path, TRUSTED_PATHS):
            continue
        for effect, lineno, description in _direct_effects(
                info.node, imports[info.module.name]):
            if effect == UNORDERED_ITERATION:
                continue
            slots = effects.setdefault(qualname, {})
            if effect not in slots:
                slots[effect] = _Effect(description=description,
                                        path=info.module.path, line=lineno)
                worklist.append((qualname, effect))

    # Propagate effects up the call graph (BFS => shortest chains).
    callers: Dict[str, List[Tuple[str, int]]] = {}
    for caller, sites in graph.calls.items():
        for site in sites:
            callers.setdefault(site.callee, []).append((caller,
                                                        site.lineno))
    cursor = 0
    while cursor < len(worklist):
        callee, effect = worklist[cursor]
        cursor += 1
        for caller, lineno in callers.get(callee, ()):
            info = graph.functions[caller]
            if path_in_scope(info.module.path, TRUSTED_PATHS):
                continue
            slots = effects.setdefault(caller, {})
            if effect in slots:
                continue
            slots[effect] = _Effect(
                description=effects[callee][effect].description,
                path=info.module.path, line=lineno, via=callee)
            worklist.append((caller, effect))

    # Boundary findings: a core function calling an impure function
    # defined outside the core.
    for qualname, info in sorted(graph.functions.items()):
        if not path_in_scope(info.module.path, PURE_ZONES):
            continue
        reported = set()
        for site in graph.calls.get(qualname, ()):  # type: ignore[call-overload]
            callee_info = graph.functions.get(site.callee)
            if callee_info is None:
                continue
            if path_in_scope(callee_info.module.path,
                             PURE_ZONES + TRUSTED_PATHS):
                continue
            for effect in sorted(effects.get(site.callee, {})):
                key = (site.callee, effect)
                if key in reported:
                    continue
                reported.add(key)
                chain = _render_chain(site.callee, effect, effects, graph)
                findings.append(Finding(
                    rule="purity", path=info.module.path, line=site.lineno,
                    message=(f"{qualname.rsplit('.', 1)[-1]}: call leaves "
                             f"the deterministic-simulation zone and "
                             f"reaches a {effect} effect "
                             f"({effects[site.callee][effect].description})"
                             ),
                    witness=(f"{qualname} at {info.module.path}:"
                             f"{site.lineno}",) + chain,
                ))
    return findings


def _render_chain(start: str, effect: str,
                  effects: Dict[str, Dict[str, _Effect]],
                  graph: CallGraph) -> Tuple[str, ...]:
    steps: List[str] = []
    current: Optional[str] = start
    guard = 0
    while current is not None and guard < 32:
        guard += 1
        record = effects[current][effect]
        info = graph.functions[current]
        if record.via is None:
            steps.append(f"{current} at {info.module.path}:"
                         f"{info.lineno} -> {record.description} at "
                         f"{record.path}:{record.line}")
            break
        steps.append(f"{current} calls {record.via} at "
                     f"{record.path}:{record.line}")
        current = record.via
    return tuple(steps)
