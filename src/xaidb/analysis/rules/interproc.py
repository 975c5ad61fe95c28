"""XDB016–XDB017 — the interprocedural rule tier.

The first thirteen rules stop at function boundaries: XDB010 cannot see
a literal-seeded generator built in a helper, XDB011 cannot see a view
returned *through* one, XDB003 cannot see a mutation a callee performs
on the caller's behalf.  These two rules close that gap.  They ride on
the same :class:`~xaidb.analysis.summaries.InterprocAnalysis` instance
— project-wide call graph and bottom-up function summaries — built
once per scan via
:meth:`~xaidb.analysis.registry.ProjectContext.interproc`.

- **XDB016 rng-escapes-helper** — the interprocedural face of XDB010: a
  generator seeded with a literal inside a helper (up to
  :data:`~xaidb.analysis.summaries.RNG_MAX_DEPTH` boundaries away)
  reaches a stochastic call here.  Depth-0 cases stay XDB010's.
- **XDB017 mutation-through-callee** — the interprocedural face of
  XDB003/XDB011: an ``explain*``/``fit`` method hands a caller-owned
  array to a helper whose summary mutates it in place, or returns a
  helper's view of one.  Direct (same-frame) cases stay XDB003/XDB011's.

Every rule stays silent on anything it cannot prove: unresolved calls,
dynamic scopes and unknown values all collapse to ⊤, which can never
support a finding.
"""

from __future__ import annotations

import ast
from typing import Iterator

from xaidb.analysis.dataflow import (
    State,
    calls_dynamic_scope,
    function_params,
    item_exprs,
    replay,
)
from xaidb.analysis.findings import Finding
from xaidb.analysis.registry import (
    FileContext,
    ProjectContext,
    ProjectRule,
    register,
)
from xaidb.analysis.rules.rng_origin import STOCHASTIC_METHODS
from xaidb.analysis.summaries import (
    VIA_PREFIX,
    InterprocAnalysis,
    iter_mutations,
    rng_depths,
    strip_via,
)

__all__ = [
    "RngEscapesHelperRule",
    "MutationThroughCalleeRule",
]

#: explain*/fit — the externally-owned-data entry points (XDB003/011's
#: scope, which XDB017 extends across call boundaries).
_METHOD_NAMES_EXACT = {"fit"}
_METHOD_PREFIXES = ("explain",)


def _package_functions(project: ProjectContext):
    """``(interproc, ctx, fnode)`` for every analysable function inside
    the ``xaidb`` package (dynamic scopes excluded: nothing provable)."""
    interproc = project.interproc()
    for ctx in project.files:
        if not ctx.in_xaidb_package:
            continue
        for fnode in interproc.graph.functions_of(ctx):
            if calls_dynamic_scope(fnode.node):
                continue
            yield interproc, ctx, fnode


def _is_target_method(name: str) -> bool:
    return name in _METHOD_NAMES_EXACT or name.startswith(_METHOD_PREFIXES)


def _has_stochastic_sinks(fn: ast.AST) -> bool:
    """Whether ``fn`` contains a ``.normal()``-style stochastic call —
    the cheap syntactic gate that lets XDB016 skip the seed fixpoint
    for the (many) functions with nothing to check."""
    return any(
        isinstance(node, ast.Attribute)
        and node.attr in STOCHASTIC_METHODS
        for node in ast.walk(fn)
    )


@register
class RngEscapesHelperRule(ProjectRule):
    rule_id = "XDB016"
    symbol = "rng-escapes-helper"
    description = (
        "A stochastic call consumes a np.random.Generator that was "
        "seeded with a literal inside a helper one or more call "
        "boundaries away: the seed never threads through the public "
        "API, so callers cannot reproduce the run (the "
        "interprocedural face of XDB010)."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for interproc, ctx, fnode in _package_functions(project):
            yield from self._check_function(interproc, ctx, fnode)

    def _check_function(
        self, interproc: InterprocAnalysis, ctx: FileContext, fnode
    ) -> Iterator[Finding]:
        if not _has_stochastic_sinks(fnode.node):
            return  # no stochastic call: skip the fixpoint entirely
        cfg, problem, in_states = interproc.solution(
            "seed", fnode.qualname
        )
        findings: list[Finding] = []
        seen: set[int] = set()

        def visit(item: ast.AST, state: State) -> None:
            for root in item_exprs(item):
                for node in ast.walk(root):
                    if (
                        not isinstance(node, ast.Call)
                        or not isinstance(node.func, ast.Attribute)
                        or node.func.attr not in STOCHASTIC_METHODS
                        or id(node) in seen
                    ):
                        continue
                    seen.add(id(node))
                    labels = problem.eval_expr(node.func.value, state)
                    depths = [d for d in rng_depths(labels) if d >= 1]
                    if not depths:
                        continue
                    depth = depths[0]
                    levels = "level" if depth == 1 else "levels"
                    findings.append(
                        ctx.finding(
                            self,
                            node,
                            f".{node.func.attr}() consumes a generator "
                            f"seeded with a literal in a helper "
                            f"{depth} call {levels} away; thread the "
                            f"caller's seed or Generator through the "
                            f"helper instead",
                        )
                    )

        replay(cfg, problem, in_states, visit)
        yield from findings


@register
class MutationThroughCalleeRule(ProjectRule):
    rule_id = "XDB017"
    symbol = "mutation-through-callee"
    description = (
        "An explain*/fit method passes a caller-owned input array to a "
        "helper whose summary mutates it in place, or returns a "
        "helper's view of one: the same purity contract XDB003/XDB011 "
        "enforce directly, one call boundary further away."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for interproc, ctx, fnode in _package_functions(project):
            parts = fnode.qualname.rsplit(".", 2)
            if len(parts) < 3 or fnode.module != parts[0]:
                continue
            _, class_name, method = parts
            if not _is_target_method(method):
                continue
            yield from self._check_method(
                interproc, ctx, fnode, class_name
            )

    def _check_method(
        self,
        interproc: InterprocAnalysis,
        ctx: FileContext,
        fnode,
        class_name: str,
    ) -> Iterator[Finding]:
        params = {
            p
            for p in function_params(fnode.node)
            if p not in ("self", "cls")
        }
        if not params:
            return
        cfg, problem, in_states = interproc.solution(
            "alias", fnode.qualname
        )
        findings: list[Finding] = []
        seen: set[tuple[int, str]] = set()
        where = f"{class_name}.{fnode.node.name}"

        def visit(item: ast.AST, state: State) -> None:
            for labels, node, kind, detail in iter_mutations(
                item,
                state,
                problem,
                interproc.graph,
                interproc.summaries,
            ):
                if kind != "callee":  # direct writes are XDB003's
                    continue
                hit = sorted(
                    {strip_via(label) for label in labels} & params
                )
                if not hit or (id(node), detail) in seen:
                    continue
                seen.add((id(node), detail))
                callee, _, callee_param = detail.rpartition(":")
                findings.append(
                    ctx.finding(
                        self,
                        node,
                        f"{where} passes caller-owned input "
                        f"{', '.join(repr(p) for p in hit)} to "
                        f"{callee}, which mutates its parameter "
                        f"'{callee_param}' in place; pass a copy or "
                        f"make the helper pure",
                    )
                )
            if isinstance(item, ast.Return) and item.value is not None:
                if isinstance(item.value, ast.Name) and item.value.id in (
                    "self",
                    "cls",
                ):
                    return
                escaped = sorted(
                    {
                        strip_via(label)
                        for label in problem.eval_expr(item.value, state)
                        if label.startswith(VIA_PREFIX)
                    }
                    & params
                )
                if escaped and (id(item), "return") not in seen:
                    seen.add((id(item), "return"))
                    findings.append(
                        ctx.finding(
                            self,
                            item,
                            f"{where} returns a helper's view of "
                            f"caller-owned input "
                            f"{', '.join(repr(p) for p in escaped)}; "
                            f"copy at the boundary so caller and "
                            f"explainer never share a buffer",
                        )
                    )

        replay(cfg, problem, in_states, visit)
        yield from findings
