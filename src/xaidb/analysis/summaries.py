"""Bottom-up function summaries over the call-graph condensation.

The interprocedural rules (XDB016, XDB017 and the numeric tier
XDB023–XDB027) never re-analyse a callee at every call site.  Instead,
each function in the corpus gets one :class:`FunctionSummary` — the
caller-visible facts of its body:

- ``returns_view_of`` — parameters whose ndarray buffer the return
  value may alias (the cross-boundary form of XDB011's escape facts);
- ``mutates`` — parameters written in place (subscript stores,
  augmented assignment, ``out=``, or transitively through a callee —
  XDB003's write semantics, made transitive);
- ``rng_return_depth`` — when a generator built with no caller-derived
  seed escapes via the return value, how many call boundaries it has
  already crossed (``0`` = constructed here; capped at
  :data:`RNG_MAX_DEPTH`);
- ``return_ranges`` / ``param_preconditions`` — the numeric facts of
  the :mod:`xaidb.analysis.intervals` domain (pass E): the returned
  value ranges and the nonzero/positive/nonnegative obligations on
  parameters that call sites must meet.

Summaries are computed bottom-up over the SCC condensation of the call
graph — callees before callers, with a small fixpoint iteration inside
each cycle — so every lookup a caller makes is already final.  An
unresolved call has no candidates and therefore no summary: consumers
fall back to ⊤ and stay silent, which keeps the whole tier free of
false positives by construction.

:class:`InterprocAnalysis` packages the graph, the summaries and a
content-hash cache: each SCC's summaries are stored in the shared
``.xailint_cache.json`` under a Merkle-style key covering the members'
file digests, their resolved call candidates, and the keys of every
callee SCC — so a warm ``--changed-only`` scan recomputes only the
SCCs reachable *from* the edited file and serves the rest from cache,
finding-for-finding identical to a cold scan.
"""

from __future__ import annotations

import ast
import hashlib
import time
from dataclasses import dataclass

from xaidb.analysis.callgraph import (
    CallGraph,
    CallSite,
    FunctionNode,
    build_call_graph,
    strongly_connected_components,
)
from xaidb.analysis.cfg import function_cfg
from xaidb.analysis.dataflow import (
    VIEW_FUNCTIONS,
    VIEW_METHODS,
    State,
    ValueTaint,
    calls_dynamic_scope,
    function_params,
    item_exprs,
    replay,
    solve_forward,
)
from xaidb.analysis.intervals import (
    IntervalAnalysis,
    informative as num_informative,
    decode as num_decode,
    encode as num_encode,
    param_label as num_param_label,
    params_of as num_params_of,
    values_of as num_values_of,
)
from xaidb.analysis.registry import FileContext

__all__ = [
    "FunctionSummary",
    "InterprocAnalysis",
    "InterAliasTaint",
    "InterSeedTaint",
    "summarize_function",
    "map_arguments",
    "iter_mutations",
    "RNG_MAX_DEPTH",
    "PARAM",
    "RNG_PREFIX",
    "VIA_PREFIX",
]

#: Maximum call depth a literal-seeded generator is tracked across
#: (construction → sink crosses at most this many boundaries).
RNG_MAX_DEPTH = 3

#: Seed-taint label for caller-derived entropy (clean).
PARAM = "param"

#: Seed-taint label prefix: ``rng:0`` = built in this frame, ``rng:2``
#: = escaped two call boundaries ago.
RNG_PREFIX = "rng:"

#: Alias-taint label prefix marking "crossed a call boundary" — what
#: separates XDB017's findings from XDB011's.
VIA_PREFIX = "via::"

#: In-SCC fixpoint iteration bound (cycles converge in 2–3 rounds).
_MAX_SCC_ROUNDS = 5

#: Bound on exported return ranges; beyond it the summary says ⊤.
_MAX_RETURN_RANGES = 4


@dataclass(frozen=True)
class FunctionSummary:
    """Caller-visible facts about one corpus function."""

    qualname: str
    params: tuple[str, ...]
    returns_view_of: tuple[str, ...] = ()
    mutates: tuple[str, ...] = ()
    rng_return_depth: int | None = None
    #: Abstract numeric return values (pass E) in the
    #: :mod:`xaidb.analysis.intervals` encoding — empty = ⊤, nothing
    #: provable about the returned range.
    return_ranges: tuple[str, ...] = ()
    #: Numeric obligations on parameters (pass E): each entry is
    #: ``"param|kind|line"`` with ``kind`` ∈ ``nonzero`` (flows to a
    #: denominator), ``positive`` (flows into ``log``) or
    #: ``nonnegative`` (flows into ``sqrt``) — checked at call sites by
    #: XDB023/XDB024.
    param_preconditions: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "qualname": self.qualname,
            "params": list(self.params),
            "returns_view_of": list(self.returns_view_of),
            "mutates": list(self.mutates),
            "rng_return_depth": self.rng_return_depth,
            "return_ranges": list(self.return_ranges),
            "param_preconditions": list(self.param_preconditions),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionSummary":
        depth = data["rng_return_depth"]
        if depth is not None and not isinstance(depth, int):
            raise ValueError("rng_return_depth must be int or None")
        return cls(
            qualname=str(data["qualname"]),
            params=tuple(str(p) for p in data["params"]),
            returns_view_of=tuple(
                str(p) for p in data["returns_view_of"]
            ),
            mutates=tuple(str(p) for p in data["mutates"]),
            rng_return_depth=depth,
            return_ranges=tuple(str(s) for s in data["return_ranges"]),
            param_preconditions=tuple(
                str(s) for s in data["param_preconditions"]
            ),
        )


def _syntactic_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def map_arguments(
    site: CallSite, summary: FunctionSummary
) -> dict[str, ast.AST]:
    """Map the call's argument expressions onto the callee's parameter
    names (receiver → ``self`` for bound calls, constructor calls skip
    the implicit instance, ``*args`` stops positional mapping)."""
    call = site.call
    params = list(summary.params)
    mapping: dict[str, ast.AST] = {}
    offset = 0
    if params and params[0] in ("self", "cls"):
        if site.binds_receiver:
            if isinstance(call.func, ast.Attribute):
                mapping[params[0]] = call.func.value
            offset = 1
        elif summary.qualname.endswith(
            ".__init__"
        ) and _syntactic_name(call) != "__init__":
            offset = 1  # SomeClass(x): the instance is implicit
    positional = params[offset:]
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or index >= len(positional):
            break
        mapping[positional[index]] = arg
    for keyword in call.keywords:
        if keyword.arg is not None and keyword.arg in params:
            mapping[keyword.arg] = keyword.value
    return mapping


# ---------------------------------------------------------------------------
# taint problems with summary-aware call semantics
# ---------------------------------------------------------------------------


class InterAliasTaint(ValueTaint):
    """View-alias taint (labels are parameter names) whose call
    semantics consults callee summaries: a call to a helper that
    returns a view of parameter ``p`` aliases whatever the argument
    bound to ``p`` aliases — tagged with :data:`VIA_PREFIX` so
    consumers can tell boundary-crossing aliases from direct ones."""

    def __init__(
        self,
        graph: CallGraph,
        summaries: dict[str, FunctionSummary],
        entry: State | None = None,
    ) -> None:
        super().__init__(entry=entry)
        self.graph = graph
        self.summaries = summaries

    def eval_expr(
        self, expr: ast.AST | None, state: State
    ) -> frozenset[str]:
        # mirrors dataflow.view_sources, evaluated to labels so the
        # callee-summary case can plug in at Call nodes
        if expr is None:
            return frozenset()
        if isinstance(expr, ast.Name):
            return state.get(expr.id, frozenset())
        if isinstance(expr, (ast.Starred, ast.Subscript)):
            return self.eval_expr(expr.value, state)
        if isinstance(expr, ast.Attribute):
            if expr.attr in VIEW_METHODS:
                return self.eval_expr(expr.value, state)
            return frozenset()
        if isinstance(expr, (ast.Tuple, ast.List)):
            labels: frozenset[str] = frozenset()
            for element in expr.elts:
                labels |= self.eval_expr(element, state)
            return labels
        if isinstance(expr, ast.IfExp):
            return self.eval_expr(expr.body, state) | self.eval_expr(
                expr.orelse, state
            )
        if isinstance(expr, ast.NamedExpr):
            return self.eval_expr(expr.value, state)
        if isinstance(expr, ast.Call):
            return self.eval_call(expr, state)
        return frozenset()

    def eval_call(self, call: ast.Call, state: State) -> frozenset[str]:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in VIEW_METHODS:
            return self.eval_expr(func.value, state)
        view_fn = (
            isinstance(func, ast.Attribute)
            and func.attr in VIEW_FUNCTIONS
        ) or (isinstance(func, ast.Name) and func.id in VIEW_FUNCTIONS)
        if view_fn and call.args:
            return self.eval_expr(call.args[0], state)
        return self._callee_view_labels(call, state)

    def _callee_view_labels(
        self, call: ast.Call, state: State
    ) -> frozenset[str]:
        site = self.graph.callsites.get(id(call))
        if site is None or not site.candidates:
            return frozenset()
        labels: set[str] = set()
        for qualname in site.candidates:
            summary = self.summaries.get(qualname)
            if summary is None:
                continue
            mapping = map_arguments(site, summary)
            for param in summary.returns_view_of:
                arg = mapping.get(param)
                if arg is None:
                    continue
                for label in self.eval_expr(arg, state):
                    labels.add(
                        label
                        if label.startswith(VIA_PREFIX)
                        else VIA_PREFIX + label
                    )
        return frozenset(labels)


def strip_via(label: str) -> str:
    """The underlying parameter name of an alias-taint label."""
    return label[len(VIA_PREFIX):] if label.startswith(VIA_PREFIX) else label


def _is_default_rng(func: ast.AST) -> bool:
    # mirrors rules/rng_origin (not imported: rule modules import us)
    if isinstance(func, ast.Name):
        return func.id == "default_rng"
    return isinstance(func, ast.Attribute) and func.attr == "default_rng"


def _is_check_random_state(func: ast.AST) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "check_random_state"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "check_random_state"
    )


class InterSeedTaint(ValueTaint):
    """XDB010's seed taint, depth-aware: a call to a helper whose
    summary says a literal-seeded generator escapes at depth ``d``
    yields the label ``rng:d+1``; anything at depth ≥ 1 crossed a call
    boundary."""

    def __init__(
        self,
        graph: CallGraph,
        summaries: dict[str, FunctionSummary],
        entry: State | None = None,
    ) -> None:
        super().__init__(entry=entry)
        self.graph = graph
        self.summaries = summaries

    def eval_call(self, call: ast.Call, state: State) -> frozenset[str]:
        if _is_check_random_state(call.func):
            return frozenset({PARAM})
        if _is_default_rng(call.func):
            arg_labels = super().eval_call(call, state)
            if PARAM in arg_labels:
                return frozenset({PARAM})
            return frozenset({f"{RNG_PREFIX}0"})
        labels = super().eval_call(call, state)
        site = self.graph.callsites.get(id(call))
        if site is not None:
            for qualname in site.candidates:
                summary = self.summaries.get(qualname)
                if (
                    summary is not None
                    and summary.rng_return_depth is not None
                    and summary.rng_return_depth < RNG_MAX_DEPTH
                ):
                    labels |= frozenset(
                        {f"{RNG_PREFIX}{summary.rng_return_depth + 1}"}
                    )
        return labels


def rng_depths(labels: frozenset[str]) -> list[int]:
    """Escape depths present in a seed-taint label set, ascending."""
    depths = []
    for label in labels:
        if label.startswith(RNG_PREFIX):
            try:
                depths.append(int(label[len(RNG_PREFIX):]))
            except ValueError:
                continue
    return sorted(depths)


# ---------------------------------------------------------------------------
# per-function summary computation
# ---------------------------------------------------------------------------


def iter_mutations(
    item: ast.AST,
    state: State,
    alias: InterAliasTaint,
    graph: CallGraph,
    summaries: dict[str, FunctionSummary],
):
    """Yield ``(labels, node, kind, detail)`` for every in-place write
    ``item`` may perform, in XDB003's write semantics made alias- and
    summary-aware.  ``labels`` are the alias-taint labels of the
    written buffer; ``kind`` is one of ``subscript``/``augassign``/
    ``out``/``callee`` (``detail`` = ``"callee_qualname:param"`` for
    the last)."""
    targets: list[ast.AST] = []
    if isinstance(item, ast.Assign):
        targets = list(item.targets)
    elif isinstance(item, ast.AnnAssign) and item.value is not None:
        targets = [item.target]
    elif isinstance(item, ast.AugAssign):
        targets = [item.target]
    for target in targets:
        elements = (
            target.elts
            if isinstance(target, (ast.Tuple, ast.List))
            else [target]
        )
        for element in elements:
            if isinstance(element, ast.Subscript):
                labels = alias.eval_expr(element.value, state)
                if labels:
                    yield labels, element, "subscript", ""
            elif isinstance(element, ast.Name) and isinstance(
                item, ast.AugAssign
            ):
                labels = state.get(element.id, frozenset())
                if labels:
                    yield labels, element, "augassign", ""
    for root in item_exprs(item):
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg == "out":
                    labels = alias.eval_expr(keyword.value, state)
                    if labels:
                        yield labels, node, "out", ""
            site = graph.callsites.get(id(node))
            if site is None or not site.candidates:
                continue
            for qualname in site.candidates:
                summary = summaries.get(qualname)
                if summary is None or not summary.mutates:
                    continue
                mapping = map_arguments(site, summary)
                for param in summary.mutates:
                    arg = mapping.get(param)
                    if arg is None:
                        continue
                    labels = alias.eval_expr(arg, state)
                    if labels:
                        yield (
                            labels,
                            node,
                            "callee",
                            f"{qualname}:{param}",
                        )


def summarize_function(
    fnode: FunctionNode,
    graph: CallGraph,
    summaries: dict[str, FunctionSummary],
    timings: dict[str, float] | None = None,
) -> FunctionSummary:
    """Compute one function's summary given its callees' summaries.
    ``timings`` (when given) accumulates wall seconds per summary pass
    under the keys ``alias``/``seed``/``interval`` — surfaced by
    ``--stats`` as the per-pass breakdown."""
    fn = fnode.node
    params = tuple(function_params(fn))
    tracked = [p for p in params if p not in ("self", "cls")]
    bottom = FunctionSummary(qualname=fnode.qualname, params=params)
    if calls_dynamic_scope(fn):
        return bottom  # nothing provable: claim nothing
    cfg = function_cfg(fn)

    def _tick(label: str, started: float) -> None:
        if timings is not None:
            timings[label] = (
                timings.get(label, 0.0) + time.perf_counter() - started
            )

    # -- pass A: view aliases and in-place mutation ------------------
    pass_started = time.perf_counter()
    alias = InterAliasTaint(
        graph,
        summaries,
        entry={name: frozenset({name}) for name in tracked},
    )
    alias_in = solve_forward(cfg, alias)
    returns_view: set[str] = set()
    mutated: set[str] = set()

    def visit_alias(item: ast.AST, state: State) -> None:
        if isinstance(item, ast.Return) and item.value is not None:
            if not (
                isinstance(item.value, ast.Name)
                and item.value.id in ("self", "cls")
            ):
                for label in alias.eval_expr(item.value, state):
                    returns_view.add(strip_via(label))
        for labels, _node, _kind, _detail in iter_mutations(
            item, state, alias, graph, summaries
        ):
            mutated.update(strip_via(label) for label in labels)

    replay(cfg, alias, alias_in, visit_alias)
    _tick("alias", pass_started)

    # -- pass B: rng escape depth ------------------------------------
    pass_started = time.perf_counter()
    seed = InterSeedTaint(
        graph,
        summaries,
        entry={name: frozenset({PARAM}) for name in params},
    )
    seed_in = solve_forward(cfg, seed)
    escape_depths: list[int] = []

    def visit_seed(item: ast.AST, state: State) -> None:
        if isinstance(item, ast.Return) and item.value is not None:
            escape_depths.extend(
                rng_depths(seed.eval_expr(item.value, state))
            )

    replay(cfg, seed, seed_in, visit_seed)
    rng_depth = min(escape_depths) if escape_depths else None
    if rng_depth is not None and rng_depth >= RNG_MAX_DEPTH:
        rng_depth = None  # beyond the tracking horizon
    _tick("seed", pass_started)

    # -- pass E: numeric return ranges and param preconditions -------
    pass_started = time.perf_counter()
    interval = IntervalAnalysis(
        entry={
            name: frozenset({num_param_label(name)}) for name in tracked
        },
        callee_ranges=lambda call: _callee_return_ranges(
            graph, summaries, call
        ),
    )
    interval_in = interval.solve(cfg)
    range_values: set[str] = set()
    range_top = False
    preconditions: set[str] = set()

    def visit_interval(item: ast.AST, state: State) -> None:
        nonlocal range_top
        if isinstance(item, ast.Return) and item.value is not None:
            labels = interval.eval_expr(item.value, state)
            values = num_values_of(labels)
            if (
                num_params_of(labels)
                or not values
                or not all(num_informative(v) for v in values)
            ):
                range_top = True
            else:
                range_values.update(num_encode(v) for v in values)
        for name, kind, line in _numeric_obligations(
            interval, item, state
        ):
            if name in tracked:
                preconditions.add(f"{name}|{kind}|{line}")

    replay(cfg, interval, interval_in, visit_interval)
    if range_top or len(range_values) > _MAX_RETURN_RANGES:
        return_ranges: tuple[str, ...] = ()
    else:
        return_ranges = tuple(sorted(range_values))
    _tick("interval", pass_started)

    return FunctionSummary(
        qualname=fnode.qualname,
        params=params,
        returns_view_of=tuple(sorted(returns_view & set(tracked))),
        mutates=tuple(sorted(mutated & set(tracked))),
        rng_return_depth=rng_depth,
        return_ranges=return_ranges,
        param_preconditions=tuple(sorted(preconditions)),
    )


#: log-family / sqrt entry points whose argument a precondition covers.
_DOMAIN_OBLIGATIONS = {
    "log": "positive",
    "log2": "positive",
    "log10": "positive",
    "sqrt": "nonnegative",
}


def _numeric_obligations(
    interval: IntervalAnalysis, item: ast.AST, state: State
):
    """Yield ``(param_name, kind, line)`` for every *unguarded*
    parameter that flows into a partial numeric operation in ``item``:
    a denominator (``nonzero``), a ``log`` argument (``positive``) or a
    ``sqrt`` argument (``nonnegative``).  Parameters the function
    already guards (``if x > 0:`` …) carry refined labels instead and
    are checked in-function, not exported."""
    for root in item_exprs(item):
        for node in ast.walk(root):
            operand: ast.AST | None = None
            kind = ""
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Div, ast.FloorDiv, ast.Mod)
            ):
                operand, kind = node.right, "nonzero"
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                kind = _DOMAIN_OBLIGATIONS.get(node.func.attr, "")
                if kind and node.args:
                    operand = node.args[0]
            if operand is None or not kind:
                continue
            labels = interval.eval_expr(operand, state)
            for name in sorted(num_params_of(labels)):
                yield name, kind, getattr(node, "lineno", 0)


def _callee_return_ranges(
    graph: CallGraph,
    summaries: dict[str, FunctionSummary],
    call: ast.Call,
):
    """The numeric hook: ``None`` for unresolved calls (the numpy
    transfer functions take over), the union of candidate return
    ranges for resolved ones (empty = resolved-but-unknown = ⊤)."""
    site = graph.callsites.get(id(call))
    if site is None or not site.candidates:
        return None
    values = []
    for qualname in site.candidates:
        summary = summaries.get(qualname)
        if summary is None or not summary.return_ranges:
            return []  # ⊤ — never let numpy guesses shadow a callee
        values.extend(
            num_decode(label) for label in summary.return_ranges
        )
    return values


# ---------------------------------------------------------------------------
# project-level driver with the SCC summary cache
# ---------------------------------------------------------------------------


class InterprocAnalysis:
    """Call graph + condensation + summaries for one parsed corpus.

    Built lazily (once per scan) by
    :meth:`xaidb.analysis.registry.ProjectContext.interproc`; the
    interprocedural and numeric rules share one instance.  ``cache`` is
    the shared :class:`~xaidb.analysis.cache.LintCache`;
    ``file_digests`` maps relpaths to content hashes and feeds the
    per-SCC Merkle keys.
    """

    def __init__(
        self,
        files: list[FileContext],
        file_digests: dict[str, str] | None = None,
        cache=None,
    ) -> None:
        self.graph = build_call_graph(files)
        self.sccs = strongly_connected_components(self.graph)
        self.summaries: dict[str, FunctionSummary] = {}
        self.hits = 0
        self.misses = 0
        #: Wall seconds per summary pass (alias/seed/interval) across
        #: every recomputed SCC — ``--stats`` fodder.
        self.pass_seconds: dict[str, float] = {}
        #: Every SCC cache key used this run (for cache pruning).
        self.used_keys: set[str] = set()
        self._sites_by_caller: dict[str, list[CallSite]] = {}
        for site in self.graph.callsites.values():
            self._sites_by_caller.setdefault(site.caller, []).append(site)
        for sites in self._sites_by_caller.values():
            sites.sort(key=lambda s: (s.call.lineno, s.call.col_offset))
        self._solutions: dict[tuple[str, str], tuple] = {}
        self._compute(file_digests or {}, cache)

    def solution(self, kind: str, qualname: str):
        """Solved ``(cfg, problem, in_states)`` for ``qualname`` under
        one of the rule-facing problems — ``"alias"``
        (:class:`InterAliasTaint`, parameters seeded with their own
        names), ``"seed"`` (:class:`InterSeedTaint`, parameters seeded
        :data:`PARAM`) or ``"interval"``
        (:class:`~xaidb.analysis.intervals.IntervalAnalysis`,
        parameters seeded with opaque range labels, solved with
        widening and branch refinement) — memoised so the
        interprocedural rules never re-run a fixpoint the scan already
        paid for."""
        memo_key = (kind, qualname)
        if memo_key not in self._solutions:
            fnode = self.graph.functions[qualname]
            params = function_params(fnode.node)
            tracked = [p for p in params if p not in ("self", "cls")]
            if kind == "alias":
                problem: ValueTaint = InterAliasTaint(
                    self.graph,
                    self.summaries,
                    entry={name: frozenset({name}) for name in tracked},
                )
            elif kind == "seed":
                problem = InterSeedTaint(
                    self.graph,
                    self.summaries,
                    entry={name: frozenset({PARAM}) for name in params},
                )
            elif kind == "interval":
                problem = IntervalAnalysis(
                    entry={
                        name: frozenset({num_param_label(name)})
                        for name in tracked
                    },
                    callee_ranges=lambda call: _callee_return_ranges(
                        self.graph, self.summaries, call
                    ),
                )
            else:
                raise ValueError(f"unknown solution kind: {kind!r}")
            cfg = function_cfg(fnode.node)
            if kind == "interval":
                solved = problem.solve(cfg)  # widened + refined
            else:
                solved = solve_forward(cfg, problem)
            self._solutions[memo_key] = (cfg, problem, solved)
        return self._solutions[memo_key]

    # -- bottom-up computation ---------------------------------------

    def _compute(self, file_digests: dict[str, str], cache) -> None:
        key_of: dict[str, str] = {}
        for scc in self.sccs:
            key = self._scc_key(scc, file_digests, key_of)
            for qualname in scc:
                key_of[qualname] = key
            self.used_keys.add(key)
            if cache is not None and self._adopt_cached(cache, key, scc):
                self.hits += 1
                continue
            self.misses += 1
            self._solve_scc(scc)
            if cache is not None:
                cache.store_summaries(
                    key,
                    [self.summaries[q].to_dict() for q in sorted(scc)],
                )

    def _scc_key(
        self,
        scc: list[str],
        file_digests: dict[str, str],
        key_of: dict[str, str],
    ) -> str:
        """Merkle key: member sources + resolved candidates + callee
        SCC keys.  Candidates are part of the key because resolution
        depends on the *whole* corpus (a new subclass override in an
        unrelated file changes dispatch here)."""
        members = set(scc)
        hasher = hashlib.sha256()
        for qualname in sorted(scc):
            fnode = self.graph.functions[qualname]
            hasher.update(qualname.encode())
            hasher.update(
                file_digests.get(fnode.ctx.relpath, "").encode()
            )
            for site in self._sites_by_caller.get(qualname, ()):
                hasher.update(
                    f"{site.binds_receiver}|"
                    f"{','.join(site.candidates)};".encode()
                )
                for candidate in site.candidates:
                    if candidate not in members:
                        hasher.update(
                            key_of.get(candidate, "").encode()
                        )
        return hasher.hexdigest()

    def _adopt_cached(self, cache, key: str, scc: list[str]) -> bool:
        cached = cache.lookup_summaries(key)
        if cached is None:
            return False
        try:
            loaded = [FunctionSummary.from_dict(d) for d in cached]
        except (KeyError, TypeError, ValueError):
            return False
        if {s.qualname for s in loaded} != set(scc):
            return False
        for summary in loaded:
            self.summaries[summary.qualname] = summary
        return True

    def _solve_scc(self, scc: list[str]) -> None:
        for qualname in scc:
            fnode = self.graph.functions[qualname]
            self.summaries[qualname] = FunctionSummary(
                qualname=qualname,
                params=tuple(function_params(fnode.node)),
            )
        single = len(scc) == 1 and scc[0] not in self.graph.edges.get(
            scc[0], set()
        )
        rounds = 1 if single else _MAX_SCC_ROUNDS
        for _ in range(rounds):
            changed = False
            for qualname in scc:
                updated = summarize_function(
                    self.graph.functions[qualname],
                    self.graph,
                    self.summaries,
                    timings=self.pass_seconds,
                )
                if updated != self.summaries[qualname]:
                    self.summaries[qualname] = updated
                    changed = True
            if not changed:
                break
