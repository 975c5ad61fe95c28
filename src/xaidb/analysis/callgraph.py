"""Project-wide call graph over the parsed lint corpus.

The interprocedural rules (XDB016–XDB017 and the numeric tier) need to
know, for a call expression in one function, *which function bodies
might execute* — a seeded generator, a view, or a possibly-zero
denominator does not stop being a hazard because it crossed a
helper-call boundary.  This module builds
that graph from nothing but the already-parsed ASTs (stdlib only, like
the rest of the linter) and condenses it into strongly connected
components so summaries can be computed bottom-up even through
recursion.

Resolution is deliberately static and partial:

- **direct calls** — ``helper(x)`` where ``helper`` is a module-level
  function of the same module or a (possibly aliased) from-import of
  one;
- **method calls** — ``self.m(x)`` / ``cls.m(x)`` resolved through the
  static class hierarchy (the same cross-module base resolution XDB008
  uses): the nearest definition up the MRO chain *plus* every override
  in transitive subclasses, because ``self`` may be any subtype;
- **module-qualified calls** — ``mod.helper(x)`` / ``pkg.mod.helper(x)``
  through ``import``/``from import`` aliases;
- **constructor calls** — ``SomeClass(x)`` resolves to
  ``SomeClass.__init__`` when one is defined in the corpus.

Anything else (calls through variables, ``getattr``, decorators
returning wrappers, builtins, numpy) is *unresolved*: the call site
maps to the empty candidate set and downstream consumers fall back to
the ⊤ summary — "nothing provable", so no rule fires on it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from xaidb.analysis.registry import FileContext

__all__ = [
    "FunctionNode",
    "CallSite",
    "CallGraph",
    "build_call_graph",
    "strongly_connected_components",
    "dotted_name",
]


@dataclass
class FunctionNode:
    """One statically-indexed function or method in the corpus."""

    qualname: str  # "module.func" or "module.Class.method"
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: FileContext
    class_name: str | None = None

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class CallSite:
    """One call expression inside an indexed function."""

    call: ast.Call
    caller: str
    #: Qualnames the call may dispatch to; empty = unresolved (⊤).
    candidates: tuple[str, ...] = ()
    #: True when the receiver expression (``self.m(x)``) is the bound
    #: first argument — positional args then map from the callee's
    #: second parameter on.
    binds_receiver: bool = False


@dataclass
class CallGraph:
    """Functions, per-call-site resolution, and the edge relation."""

    functions: dict[str, FunctionNode] = field(default_factory=dict)
    #: caller qualname -> callee qualnames (resolved edges only)
    edges: dict[str, set[str]] = field(default_factory=dict)
    #: id(ast.Call) -> CallSite for every call in an indexed function
    callsites: dict[int, CallSite] = field(default_factory=dict)
    #: fq class name -> fq base class names (in declaration order)
    class_bases: dict[str, list[str]] = field(default_factory=dict)
    #: fq class name -> direct fq subclass names
    class_subs: dict[str, list[str]] = field(default_factory=dict)

    def resolve_call(self, call: ast.Call) -> tuple[str, ...]:
        """Candidate callee qualnames for ``call`` (empty = ⊤)."""
        site = self.callsites.get(id(call))
        return site.candidates if site is not None else ()

    def functions_of(self, ctx: FileContext) -> list[FunctionNode]:
        """Indexed functions defined in ``ctx``'s module, in source
        order."""
        return sorted(
            (f for f in self.functions.values() if f.ctx is ctx),
            key=lambda f: (f.node.lineno, f.node.col_offset),
        )

    def method_resolution(self, class_fq: str, name: str) -> list[str]:
        """Candidates for ``self.name()`` on a ``class_fq`` receiver:
        the nearest definition up the static chain, plus overrides in
        transitive subclasses (``self`` may be any subtype)."""
        candidates: list[str] = []
        # nearest definition up the chain (pre-order over bases)
        stack = [class_fq]
        seen: set[str] = set()
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            qualname = f"{current}.{name}"
            if qualname in self.functions:
                candidates.append(qualname)
                break
            stack = self.class_bases.get(current, []) + stack
        # overrides anywhere below the static receiver type
        stack = list(self.class_subs.get(class_fq, []))
        seen = {class_fq}
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            qualname = f"{current}.{name}"
            if qualname in self.functions and qualname not in candidates:
                candidates.append(qualname)
            stack.extend(self.class_subs.get(current, []))
        return candidates


def dotted_name(expr: ast.AST) -> str | None:
    """``a.b.c`` as a dotted string when ``expr`` is a pure
    name/attribute chain, else ``None``."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolve_import_from(module: str, node: ast.ImportFrom) -> str | None:
    """Absolute module an ``ImportFrom`` pulls from (handles relative
    levels against the importing module's package)."""
    if node.level == 0:
        return node.module
    package_parts = module.split(".")[:-1]
    up = node.level - 1
    if up > len(package_parts):
        return None
    base_parts = package_parts[: len(package_parts) - up]
    if node.module:
        base_parts.append(node.module)
    return ".".join(base_parts) if base_parts else None


class _ModuleIndex:
    """Per-module symbol tables: functions, classes, import aliases."""

    def __init__(self, files: list[FileContext]) -> None:
        #: local alias -> fq dotted target, per module
        self.aliases: dict[str, dict[str, str]] = {}
        #: fq class name -> (ClassDef, FileContext)
        self.classes: dict[str, tuple[ast.ClassDef, FileContext]] = {}
        #: module -> set of top-level function names
        self.module_functions: dict[str, set[str]] = {}
        for ctx in files:
            module = ctx.module_name
            alias_map: dict[str, str] = {}
            fn_names: set[str] = set()
            for node in ctx.tree.body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    fn_names.add(node.name)
                elif isinstance(node, ast.ClassDef):
                    self.classes[f"{module}.{node.name}"] = (node, ctx)
                elif isinstance(node, ast.ImportFrom):
                    base = _resolve_import_from(module, node)
                    if base is None:
                        continue
                    for alias in node.names:
                        local = alias.asname or alias.name
                        if local != "*":
                            alias_map[local] = f"{base}.{alias.name}"
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname is not None:
                            alias_map.setdefault(alias.asname, alias.name)
                        else:
                            # `import a.b.c` binds `a` to package `a`
                            head = alias.name.split(".")[0]
                            alias_map.setdefault(head, head)
            self.aliases[module] = alias_map
            self.module_functions[module] = fn_names

    def expand(self, module: str, dotted: str) -> str:
        """Rewrite the leading segment of ``dotted`` through the
        module's import aliases (``np.zeros`` -> ``numpy.zeros``)."""
        head, _, tail = dotted.partition(".")
        target = self.aliases.get(module, {}).get(head)
        if target is None:
            return dotted
        return f"{target}.{tail}" if tail else target


def build_call_graph(files: list[FileContext]) -> CallGraph:
    """Index every top-level function and method in ``files`` and
    resolve the call sites inside each of them."""
    graph = CallGraph()
    index = _ModuleIndex(files)

    # -- pass 1: function/method index and class hierarchy -----------
    for ctx in files:
        module = ctx.module_name
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module}.{node.name}"
                graph.functions[qualname] = FunctionNode(
                    qualname=qualname, module=module, node=node, ctx=ctx
                )
            elif isinstance(node, ast.ClassDef):
                class_fq = f"{module}.{node.name}"
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        qualname = f"{class_fq}.{item.name}"
                        graph.functions[qualname] = FunctionNode(
                            qualname=qualname,
                            module=module,
                            node=item,
                            ctx=ctx,
                            class_name=node.name,
                        )

    for class_fq, (cls, ctx) in index.classes.items():
        bases: list[str] = []
        for base in cls.bases:
            dotted = dotted_name(base)
            if dotted is None:
                continue
            resolved = _resolve_class(index, ctx.module_name, dotted)
            if resolved is not None:
                bases.append(resolved)
        graph.class_bases[class_fq] = bases
        for base_fq in bases:
            graph.class_subs.setdefault(base_fq, []).append(class_fq)

    # -- pass 2: call-site resolution --------------------------------
    for fn in graph.functions.values():
        edges = graph.edges.setdefault(fn.qualname, set())
        for call in _own_calls(fn.node):
            candidates, binds_receiver = _resolve(graph, index, fn, call)
            site = CallSite(
                call=call,
                caller=fn.qualname,
                candidates=tuple(candidates),
                binds_receiver=binds_receiver,
            )
            graph.callsites[id(call)] = site
            edges.update(candidates)
    return graph


def _resolve_class(
    index: _ModuleIndex, module: str, dotted: str
) -> str | None:
    """Fully-qualified class name a dotted expression refers to."""
    if "." not in dotted:
        local = f"{module}.{dotted}"
        if local in index.classes:
            return local
    expanded = index.expand(module, dotted)
    if expanded in index.classes:
        return expanded
    return None


def _own_calls(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.Call]:
    """Call expressions in ``fn``'s own body, excluding nested
    function/class scopes (those execute on *their* call, not here)."""
    calls: list[ast.Call] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(
        calls, key=lambda c: (c.lineno, c.col_offset)
    )


def _resolve(
    graph: CallGraph,
    index: _ModuleIndex,
    fn: FunctionNode,
    call: ast.Call,
) -> tuple[list[str], bool]:
    """Candidate callee qualnames plus whether the call's receiver
    expression occupies the callee's first (``self``) parameter."""
    func = call.func
    module = fn.module

    if isinstance(func, ast.Name):
        name = func.id
        # same-module top-level function
        if name in index.module_functions.get(module, set()):
            qualname = f"{module}.{name}"
            if qualname in graph.functions:
                return [qualname], False
        # from-import (possibly aliased) of a corpus function or class
        target = index.aliases.get(module, {}).get(name)
        if target is not None:
            if target in graph.functions:
                return [target], False
            ctor = _constructor(graph, index, target)
            if ctor is not None:
                return [ctor], False
        # local class constructor
        local_cls = f"{module}.{name}"
        ctor = _constructor(graph, index, local_cls)
        if ctor is not None:
            return [ctor], False
        return [], False

    if isinstance(func, ast.Attribute):
        receiver = func.value
        # self.m() / cls.m(): static hierarchy resolution
        if (
            isinstance(receiver, ast.Name)
            and receiver.id in ("self", "cls")
            and fn.class_name is not None
        ):
            class_fq = f"{module}.{fn.class_name}"
            return graph.method_resolution(class_fq, func.attr), True
        dotted = dotted_name(func)
        if dotted is None:
            return [], False
        expanded = index.expand(module, dotted)
        # module-qualified function: pkg.mod.helper()
        if expanded in graph.functions:
            return [expanded], False
        # ClassName.method(...) / mod.ClassName(...) constructor
        ctor = _constructor(graph, index, expanded)
        if ctor is not None:
            return [ctor], False
        # unqualified-class method access: Class.m(self_like, ...)
        head, _, attr = expanded.rpartition(".")
        if head in index.classes:
            return graph.method_resolution(head, attr), False
        return [], False

    return [], False


def _constructor(
    graph: CallGraph, index: _ModuleIndex, class_fq: str
) -> str | None:
    """``class_fq.__init__`` when the corpus defines it (directly or up
    the static chain)."""
    if class_fq not in index.classes:
        return None
    resolved = graph.method_resolution(class_fq, "__init__")
    return resolved[0] if resolved else None


def strongly_connected_components(
    graph: CallGraph,
) -> list[list[str]]:
    """Tarjan's SCCs of the resolved edge relation, emitted callees
    before callers (reverse topological order of the condensation) —
    exactly the order bottom-up summary computation wants.

    Iterative formulation: the corpus has call chains deep enough that
    recursion limits are a real hazard.
    """
    order: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in sorted(graph.functions):
        if root in order:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_index = work.pop()
            if edge_index == 0:
                order[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            successors = sorted(
                callee
                for callee in graph.edges.get(node, ())
                if callee in graph.functions
            )
            advanced = False
            for i in range(edge_index, len(successors)):
                succ = successors[i]
                if succ not in order:
                    work.append((node, i + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], order[succ])
            if advanced:
                continue
            if low[node] == order[node]:
                scc: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(sorted(scc))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs
