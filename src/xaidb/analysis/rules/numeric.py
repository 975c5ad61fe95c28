"""XDB023–XDB027 — the numeric-safety rule tier.

The interval tier answers the question the alias and seed tiers
cannot: *which values* flow where.  All five rules ride the
:class:`~xaidb.analysis.intervals.IntervalAnalysis` fixpoint (widened,
branch-refined) memoised on the scan's
:class:`~xaidb.analysis.summaries.InterprocAnalysis`, plus the
``param_preconditions`` its pass E exports for cross-boundary checks:

- **XDB023 division-by-possible-zero** — a denominator whose interval
  provably contains 0 on some path, with no epsilon/``np.maximum``
  guard dominating the division (a guard lifts the interval's lower
  bound, so guarded sites carry no zero in their evidence); also fired
  at call sites that bind a possibly-zero argument to a callee
  parameter the callee divides by.
- **XDB024 log-sqrt-domain-violation** — a ``log`` argument whose
  interval reaches ≤ 0 (``log1p``: ≤ −1) or a ``sqrt`` argument whose
  interval reaches < 0, in-function or through a callee precondition.
- **XDB025 empty-or-degenerate-reduction** — ``mean``/``std``/``min``…
  over a provably length-0 array, or ``std``/``var`` whose ``ddof``
  provably reaches the sample count.
- **XDB026 unnormalized-probability** — a value provably outside
  ``[0, 1]`` returned from a ``predict_proba``-shaped function or bound
  to a ``p=``/``weights=`` probability argument.
- **XDB027 unguarded-reciprocal-scale** — the ``1.0 / x`` scale-factor
  idiom where ``x``'s interval contains 0 and no clamp dominates (the
  constant-numerator sibling of XDB023, split out because the fix is
  different: clamp the scale's denominator, don't guard the division).

Every rule is silent-unless-provable: evidence must carry at least one
finite bound (:func:`~xaidb.analysis.intervals.informative`), so ⊤
values, unresolved calls and unguarded parameters can never support a
finding — the witness in each message is the offending interval itself.
"""

from __future__ import annotations

import ast
from typing import Iterator

from xaidb.analysis.dataflow import State, item_exprs, replay
from xaidb.analysis.findings import Finding
from xaidb.analysis.intervals import (
    EMPTY_UNSAFE_REDUCTIONS,
    AbstractNum,
    Interval,
    IntervalAnalysis,
    informative,
    params_of,
    values_of,
)
from xaidb.analysis.registry import (
    FileContext,
    ProjectContext,
    ProjectRule,
    register,
)
from xaidb.analysis.rules.interproc import _package_functions
from xaidb.analysis.summaries import InterprocAnalysis, map_arguments

__all__ = [
    "DivisionByPossibleZeroRule",
    "LogSqrtDomainRule",
    "DegenerateReductionRule",
    "UnnormalizedProbabilityRule",
    "ReciprocalScaleRule",
]

_DIV_OPS = (ast.Div, ast.FloorDiv, ast.Mod)

#: ``log``-family spellings and the bound their argument must clear
#: (exclusive zero for ``log``, −1 for ``log1p``); ``sqrt`` is handled
#: separately because its bound is inclusive (``sqrt(0)`` is fine).
_LOG_BOUNDS = {"log": 0.0, "log2": 0.0, "log10": 0.0, "log1p": -1.0}

_PROBABILITY_KWARGS = {"p", "weights"}


def _call_name(call: ast.Call) -> str:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return ""


def _is_math_call(call: ast.Call, names: frozenset[str]) -> bool:
    """``np.log(x)`` / ``numpy.log(x)`` / ``math.log(x)`` spellings."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in names
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy", "math")
    )


def _zero_witness(values: list[AbstractNum]) -> AbstractNum | None:
    """The first informative member whose range contains 0."""
    for value in values:
        if informative(value) and value.rng.contains_zero():
            return value
    return None


def _bound_witness(
    values: list[AbstractNum], bound: float, inclusive: bool
) -> AbstractNum | None:
    """The first informative member reaching below ``bound`` (``≤``
    when ``inclusive``, ``<`` otherwise).  A may-be-NaN flag alone is
    no violation: NaN in means NaN out, but no *new* domain error."""
    for value in values:
        if not informative(value):
            continue
        below = (
            value.rng.lo <= bound if inclusive else value.rng.lo < bound
        )
        if below:
            return value
    return None


def _outside_unit(values: list[AbstractNum]) -> AbstractNum | None:
    """The first informative member provably outside ``[0, 1]``."""
    for value in values:
        if not informative(value):
            continue
        if value.rng.hi < 0.0 or value.rng.lo > 1.0:
            return value
    return None


def _reduction_operand(call: ast.Call) -> ast.AST | None:
    """The reduced array of a full (axis-less) reduction, spelled
    either ``np.mean(x)`` or ``x.mean()`` — ``None`` when an axis is
    given (a partial reduction keeps the other dims' elements)."""
    name = _call_name(call)
    if name not in EMPTY_UNSAFE_REDUCTIONS:
        return None
    if any(kw.arg == "axis" for kw in call.keywords):
        return None
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if isinstance(func.value, ast.Name) and func.value.id in (
        "np",
        "numpy",
    ):
        if len(call.args) != 1:
            return None  # positional axis (or nothing to reduce)
        return call.args[0]
    if call.args:
        return None  # method form with a positional axis
    return func.value


def _ddof_node(call: ast.Call) -> ast.AST | None:
    for kw in call.keywords:
        if kw.arg == "ddof":
            return kw.value
    return None


class _IntervalRule(ProjectRule):
    """Shared driver: replay every package function under the memoised
    interval solution, calling :meth:`visit_node` once per expression
    node with the pre-transfer state."""

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for interproc, ctx, fnode in _package_functions(project):
            if not self.prefilter(fnode.node):
                continue
            yield from self._check_function(interproc, ctx, fnode)

    def prefilter(self, fn: ast.AST) -> bool:  # pragma: no cover
        raise NotImplementedError

    def visit_node(
        self,
        node: ast.AST,
        state: State,
        problem: IntervalAnalysis,
        interproc: InterprocAnalysis,
        ctx: FileContext,
        fnode,
    ) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def _check_function(
        self, interproc: InterprocAnalysis, ctx: FileContext, fnode
    ) -> Iterator[Finding]:
        cfg, problem, in_states = interproc.solution(
            "interval", fnode.qualname
        )
        findings: list[Finding] = []
        seen: set[int] = set()

        def visit_one(node: ast.AST, state: State) -> None:
            if id(node) in seen:
                return
            seen.add(id(node))
            findings.extend(
                self.visit_node(
                    node, state, problem, interproc, ctx, fnode
                )
            )

        def walk(node: ast.AST, state: State) -> None:
            """Recursive walk that threads conditional-expression
            refinement: the body of ``x / n if n else 0.0`` is visited
            under the state where ``n`` held, exactly as
            :meth:`IntervalAnalysis.eval_expr` evaluates it."""
            visit_one(node, state)
            if isinstance(node, ast.IfExp):
                walk(node.test, state)
                walk(node.body, problem.refine_state(state, node.test, True))
                walk(
                    node.orelse,
                    problem.refine_state(state, node.test, False),
                )
                return
            if isinstance(node, ast.BoolOp):
                current = state
                sense = isinstance(node.op, ast.And)
                for operand in node.values:
                    walk(operand, current)
                    current = problem.refine_state(
                        current, operand, sense
                    )
                return
            for child in ast.iter_child_nodes(node):
                walk(child, state)

        def visit(item: ast.AST, state: State) -> None:
            roots = list(item_exprs(item))
            if isinstance(item, ast.AugAssign):
                visit_one(item, state)  # x /= denom has no nested BinOp
            for root in roots:
                walk(root, state)

        replay(cfg, problem, in_states, visit)
        yield from findings


def _division_operands(
    node: ast.AST,
) -> tuple[ast.AST | None, ast.AST] | None:
    """``(numerator, denominator)`` of a division-family node —
    ``BinOp`` or ``AugAssign`` (whose numerator is the target)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, _DIV_OPS):
        return node.left, node.right
    if isinstance(node, ast.AugAssign) and isinstance(node.op, _DIV_OPS):
        return None, node.value
    return None


def _is_numeric_constant(node: ast.AST | None) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(
            node.value, bool
        )
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and _is_numeric_constant(node.operand)
    )


def _precondition_hits(
    node: ast.AST,
    state: State,
    problem: IntervalAnalysis,
    interproc: InterprocAnalysis,
    kinds: frozenset[str],
):
    """Yield ``(param, kind, line, callee, witness)`` for every callee
    precondition of an interesting ``kind`` that the call site's bound
    argument provably may violate."""
    if not isinstance(node, ast.Call):
        return
    site = interproc.graph.callsites.get(id(node))
    if site is None:
        return
    for qualname in site.candidates:
        summary = interproc.summaries.get(qualname)
        if summary is None or not summary.param_preconditions:
            continue
        mapping = map_arguments(site, summary)
        for entry in summary.param_preconditions:
            param, _, rest = entry.partition("|")
            kind, _, line = rest.partition("|")
            if kind not in kinds:
                continue
            arg = mapping.get(param)
            if arg is None:
                continue
            values = values_of(problem.eval_expr(arg, state))
            if kind == "nonzero":
                witness = _zero_witness(values)
            elif kind == "positive":
                witness = _bound_witness(values, 0.0, inclusive=True)
            else:  # nonnegative
                witness = _bound_witness(values, 0.0, inclusive=False)
            if witness is not None:
                yield param, kind, line, qualname, witness


def _has_division(fn: ast.AST) -> bool:
    return any(
        isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, _DIV_OPS)
        for node in ast.walk(fn)
    )


def _has_calls(fn: ast.AST) -> bool:
    return any(isinstance(node, ast.Call) for node in ast.walk(fn))


@register
class DivisionByPossibleZeroRule(_IntervalRule):
    rule_id = "XDB023"
    symbol = "division-by-possible-zero"
    description = (
        "A denominator's interval provably contains 0 on some path and "
        "no epsilon or np.maximum guard dominates the division (a "
        "dominating guard lifts the proven lower bound away from 0); "
        "the quotient poisons downstream attributions with inf/NaN. "
        "Also fired at call sites binding a possibly-zero argument to "
        "a parameter the callee divides by."
    )

    def prefilter(self, fn: ast.AST) -> bool:
        return _has_division(fn) or _has_calls(fn)

    def visit_node(self, node, state, problem, interproc, ctx, fnode):
        operands = _division_operands(node)
        if operands is not None:
            numerator, denominator = operands
            if _is_numeric_constant(numerator):
                return  # constant-numerator scales are XDB027's
            values = values_of(problem.eval_expr(denominator, state))
            witness = _zero_witness(values)
            if witness is not None:
                yield ctx.finding(
                    self,
                    node,
                    f"denominator can be 0 (proven range "
                    f"{witness.rng}); guard the zero case or clamp "
                    f"with np.maximum(denom, eps)",
                )
            return
        for param, _kind, line, callee, witness in _precondition_hits(
            node, state, problem, interproc, frozenset({"nonzero"})
        ):
            yield ctx.finding(
                self,
                node,
                f"argument '{param}' can be 0 (proven range "
                f"{witness.rng}) but {callee} divides by it "
                f"(line {line}); guard the zero case before the call",
            )


@register
class LogSqrtDomainRule(_IntervalRule):
    rule_id = "XDB024"
    symbol = "log-sqrt-domain-violation"
    description = (
        "A log argument's interval provably reaches <= 0 (log1p: "
        "<= -1) or a sqrt argument's reaches < 0: the result is "
        "-inf/NaN on a provable path, and NaN attributions rank as "
        "garbage. Also fired at call sites binding such an argument "
        "to a parameter the callee passes into log/sqrt."
    )

    def prefilter(self, fn: ast.AST) -> bool:
        return any(
            isinstance(node, ast.Attribute)
            and node.attr in (*_LOG_BOUNDS, "sqrt")
            for node in ast.walk(fn)
        ) or _has_calls(fn)

    def visit_node(self, node, state, problem, interproc, ctx, fnode):
        if isinstance(node, ast.Call) and node.args:
            name = _call_name(node)
            if name in _LOG_BOUNDS and _is_math_call(
                node, frozenset(_LOG_BOUNDS)
            ):
                values = values_of(
                    problem.eval_expr(node.args[0], state)
                )
                witness = _bound_witness(
                    values, _LOG_BOUNDS[name], inclusive=True
                )
                if witness is not None:
                    yield ctx.finding(
                        self,
                        node,
                        f"{name}() argument can reach "
                        f"{'-1' if name == 'log1p' else '0'} or below "
                        f"(proven range {witness.rng}); clamp with "
                        f"np.maximum(x, eps) first",
                    )
                return
            if name == "sqrt" and _is_math_call(
                node, frozenset({"sqrt"})
            ):
                values = values_of(
                    problem.eval_expr(node.args[0], state)
                )
                witness = _bound_witness(values, 0.0, inclusive=False)
                if witness is not None:
                    yield ctx.finding(
                        self,
                        node,
                        f"sqrt() argument can be negative (proven "
                        f"range {witness.rng}); clip to 0 first",
                    )
                return
        for param, kind, line, callee, witness in _precondition_hits(
            node,
            state,
            problem,
            interproc,
            frozenset({"positive", "nonnegative"}),
        ):
            requirement = (
                "positive" if kind == "positive" else "nonnegative"
            )
            yield ctx.finding(
                self,
                node,
                f"argument '{param}' must be {requirement} (proven "
                f"range {witness.rng}) — {callee} passes it into "
                f"log/sqrt (line {line})",
            )


@register
class DegenerateReductionRule(_IntervalRule):
    rule_id = "XDB025"
    symbol = "empty-or-degenerate-reduction"
    description = (
        "A mean/std/min-style reduction runs over a provably length-0 "
        "array (numpy raises or returns NaN with a warning), or "
        "std/var is computed with ddof provably >= the sample count "
        "(the corrected variance of too few samples is NaN)."
    )

    def prefilter(self, fn: ast.AST) -> bool:
        return any(
            isinstance(node, ast.Attribute)
            and node.attr in EMPTY_UNSAFE_REDUCTIONS
            for node in ast.walk(fn)
        )

    def visit_node(self, node, state, problem, interproc, ctx, fnode):
        if not isinstance(node, ast.Call):
            return
        operand = _reduction_operand(node)
        if operand is None:
            return
        name = _call_name(node)
        # Emptiness is a *must* property: every path's member needs a
        # proven size, and the hull of those sizes has to stay at 0 —
        # an any-path check would flag the zero-iteration member of
        # every `xs = []; for ...: xs.append(...)` loop.
        labels = problem.eval_expr(operand, state)
        if params_of(labels):
            return
        sized = [v for v in values_of(labels) if v.size is not None]
        if not sized or len(sized) != len(values_of(labels)):
            return
        size = Interval(
            min(v.size.lo for v in sized),
            max(v.size.hi for v in sized),
            False,
        )
        if size.hi <= 0.0:
            yield ctx.finding(
                self,
                node,
                f"{name}() reduces a provably empty array "
                f"(proven length {size}); reductions of "
                f"nothing are NaN — handle the empty case first",
            )
            return
        if name in ("std", "var"):
            ddof_expr = _ddof_node(node)
            if ddof_expr is None:
                return
            ddof = problem.hull(
                problem.eval_expr(ddof_expr, state)
            ).rng
            if size.hi != float("inf") and ddof.lo >= size.hi:
                yield ctx.finding(
                    self,
                    node,
                    f"{name}(ddof={ddof}) over a sample of "
                    f"proven length {size}: the corrected "
                    f"denominator n - ddof reaches 0, so the "
                    f"result is NaN; require more samples or "
                    f"drop ddof",
                )


@register
class UnnormalizedProbabilityRule(_IntervalRule):
    rule_id = "XDB026"
    symbol = "unnormalized-probability"
    description = (
        "A value provably outside [0, 1] flows where a probability is "
        "required: a predict_proba-shaped return, a p= sampling "
        "weight, or a weights= normalization argument. The consumer "
        "either raises or silently mis-normalizes the distribution."
    )

    def prefilter(self, fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and node.name.startswith("predict_proba"):
                return True
            if isinstance(node, ast.Call) and any(
                kw.arg in _PROBABILITY_KWARGS for kw in node.keywords
            ):
                return True
        return False

    def visit_node(self, node, state, problem, interproc, ctx, fnode):
        if not isinstance(node, ast.Call):
            return
        for kw in node.keywords:
            if kw.arg not in _PROBABILITY_KWARGS:
                continue
            values = values_of(problem.eval_expr(kw.value, state))
            witness = _outside_unit(values)
            if witness is not None:
                yield ctx.finding(
                    self,
                    node,
                    f"{kw.arg}= argument of {_call_name(node)}() is "
                    f"provably outside [0, 1] (proven range "
                    f"{witness.rng}); normalize the weights first",
                )

    def _check_function(self, interproc, ctx, fnode):
        yield from super()._check_function(interproc, ctx, fnode)
        if not fnode.node.name.startswith("predict_proba"):
            return
        cfg, problem, in_states = interproc.solution(
            "interval", fnode.qualname
        )
        findings: list[Finding] = []
        seen: set[int] = set()

        def visit(item: ast.AST, state: State) -> None:
            if (
                not isinstance(item, ast.Return)
                or item.value is None
                or id(item) in seen
            ):
                return
            seen.add(id(item))
            values = values_of(problem.eval_expr(item.value, state))
            witness = _outside_unit(values)
            if witness is not None:
                findings.append(
                    ctx.finding(
                        self,
                        item,
                        f"{fnode.node.name} returns a value provably "
                        f"outside [0, 1] (proven range {witness.rng}); "
                        f"probabilities must be normalized",
                    )
                )

        replay(cfg, problem, in_states, visit)
        yield from findings


@register
class ReciprocalScaleRule(_IntervalRule):
    rule_id = "XDB027"
    symbol = "unguarded-reciprocal-scale"
    description = (
        "A constant-numerator reciprocal (the `scale = 1.0 / x` "
        "idiom for kernel widths, sample counts and cost weights) "
        "whose denominator interval contains 0 with no dominating "
        "clamp: one empty input turns every downstream score into "
        "inf/NaN. Clamp with np.maximum(x, eps) or early-return on "
        "the empty case."
    )

    def prefilter(self, fn: ast.AST) -> bool:
        return _has_division(fn)

    def visit_node(self, node, state, problem, interproc, ctx, fnode):
        operands = _division_operands(node)
        if operands is None:
            return
        numerator, denominator = operands
        if not _is_numeric_constant(numerator):
            return
        values = values_of(problem.eval_expr(denominator, state))
        witness = _zero_witness(values)
        if witness is not None:
            yield ctx.finding(
                self,
                node,
                f"reciprocal scale's denominator can be 0 (proven "
                f"range {witness.rng}); clamp with np.maximum(x, eps) "
                f"or early-return on the empty case",
            )
