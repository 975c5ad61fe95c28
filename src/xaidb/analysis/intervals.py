"""Value-range abstract interpretation over the CFG/worklist framework.

The numeric tier (XDB023–XDB027) needs to *prove* facts like "this
denominator's interval contains zero" or "this array is empty here".
This module supplies the domain and the flow-sensitive analysis:

- :class:`Interval` — a closed interval ``[lo, hi]`` over the extended
  reals plus a may-be-NaN flag.  The bounds describe the non-NaN
  possibilities; ``nan=True`` says NaN is additionally possible.
- :class:`AbstractNum` — one abstract numeric value: an element range,
  an optional first-dimension length interval (for arrays whose length
  is known, e.g. ``np.zeros(4)``), and a provably-scalar flag.
- :class:`IntervalAnalysis` — a :class:`~xaidb.analysis.dataflow.ValueTaint`
  subclass whose labels are encoded :class:`AbstractNum` values, with
  transfer functions for Python arithmetic and the numpy constructors,
  element-wise maps and reductions the explainer corpus leans on
  (``zeros``/``ones``/``full``/``arange``/``linspace``, ``sum``/``mean``/
  ``std``/``var`` with ``ddof``, ``maximum``/``minimum``/``clip``,
  ``abs``/``exp``/``log``/``sqrt``/``floor``/``ceil``/``sign``,
  ``len`` …).  It runs on :func:`~xaidb.analysis.dataflow.solve_refined`
  with comparison-guard refinement (``if x > 0:`` narrows the true
  branch, ``if len(a) == 0: return`` narrows the fall-through) and
  threshold widening/narrowing so loops converge.

Like every xailint domain the semantics is *silent-unless-provable*:
unknown names, attributes and unresolved calls evaluate to ⊤ (the full
range with NaN), and rules only fire on values carrying at least one
known bound.  Function parameters are seeded with opaque ``param:<name>``
labels, which stay ⊤ for in-function rule checks but let the summary
pass (:mod:`xaidb.analysis.summaries`, pass E) record *preconditions*
("``denom`` must be nonzero") that rules check at call sites.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from xaidb.analysis.cfg import CFG
from xaidb.analysis.dataflow import (
    State,
    ValueTaint,
    solve_refined,
)

__all__ = [
    "Interval",
    "AbstractNum",
    "IntervalAnalysis",
    "FULL",
    "TOP_NUM",
    "TOP_LABELS",
    "PARAM_PREFIX",
    "encode",
    "decode",
    "is_param",
    "param_name",
    "param_label",
    "values_of",
    "params_of",
    "informative",
    "widen_state",
    "interval_add",
    "interval_sub",
    "interval_mul",
    "interval_div",
    "interval_floordiv",
    "interval_mod",
    "interval_pow",
    "interval_neg",
    "interval_abs",
    "interval_exp",
    "interval_log",
    "interval_log1p",
    "interval_sqrt",
    "interval_max",
    "interval_min",
    "interval_floor",
    "interval_ceil",
    "interval_sign",
    "interval_hull",
    "sum_reduce",
    "mean_reduce",
    "std_reduce",
    "minmax_reduce",
]

INF = math.inf

#: Bound on abstract-value sets per variable; beyond it collapse to the
#: hull, which stays informative (a collapse to ⊤ would not).
_MAX_VALUES = 4

#: Labels carried by function parameters: opaque to in-function rules,
#: read by the summary pass to derive ``param_preconditions``.
PARAM_PREFIX = "param:"


# ---------------------------------------------------------------------------
# the interval lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Closed ``[lo, hi]`` over the extended reals; ``nan`` marks that
    NaN is *additionally* possible (the bounds never describe NaN)."""

    lo: float
    hi: float
    nan: bool = False

    def contains(self, value: float) -> bool:
        if math.isnan(value):
            return self.nan
        return self.lo <= value <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def is_full(self) -> bool:
        return self.lo == -INF and self.hi == INF

    def is_point(self) -> bool:
        return self.lo == self.hi and not math.isinf(self.lo)

    def __str__(self) -> str:  # witness text in findings
        body = f"[{_fmt_bound(self.lo)}, {_fmt_bound(self.hi)}]"
        return body + (" ∪ {nan}" if self.nan else "")


def _fmt_bound(x: float) -> str:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    if x == math.floor(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


FULL = Interval(-INF, INF)
FULL_NAN = Interval(-INF, INF, True)


def interval_hull(a: Interval, b: Interval) -> Interval:
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi), a.nan or b.nan)


def interval_add(a: Interval, b: Interval) -> Interval:
    lo = a.lo + b.lo
    hi = a.hi + b.hi
    # inf + -inf at an endpoint: both infinities reachable, so is NaN
    if math.isnan(lo) or math.isnan(hi):
        return FULL_NAN
    # the opposing infinities need not share a corner: [-inf, 5] +
    # [0, inf] still reaches -inf + inf = NaN
    nan = a.nan or b.nan
    if (a.lo == -INF and b.hi == INF) or (a.hi == INF and b.lo == -INF):
        nan = True
    return Interval(lo, hi, nan)


def interval_neg(a: Interval) -> Interval:
    return Interval(-a.hi, -a.lo, a.nan)


def interval_sub(a: Interval, b: Interval) -> Interval:
    return interval_add(a, interval_neg(b))


def _has_inf(a: Interval) -> bool:
    return a.lo == -INF or a.hi == INF


def interval_mul(a: Interval, b: Interval) -> Interval:
    # 0 * inf = nan can hit at an *interior* zero, not just endpoints
    nan = a.nan or b.nan
    if (a.contains_zero() and _has_inf(b)) or (
        b.contains_zero() and _has_inf(a)
    ):
        nan = True
    cands = [x * y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    if any(math.isnan(c) for c in cands):
        return FULL_NAN
    return Interval(min(cands), max(cands), nan)


def interval_div(a: Interval, b: Interval) -> Interval:
    if b.contains_zero():
        # x/0 is ±inf (or NaN for 0/0): exactly what XDB023 exists for
        return FULL_NAN
    cands = [x / y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    if any(math.isnan(c) for c in cands):  # inf / inf
        return FULL_NAN
    return Interval(min(cands), max(cands), a.nan or b.nan)


def interval_floordiv(a: Interval, b: Interval) -> Interval:
    d = interval_div(a, b)
    # numpy floor_divide returns NaN for an infinite operand, and its
    # divmod-consistent result can differ from floor(fl(x/y)) by one
    # when the rounded quotient crosses an integer — pad the bounds
    nan = d.nan or _has_inf(a) or _has_inf(b)
    lo = _floor_widen(d.lo, up=False)
    hi = _floor_widen(d.hi, up=True)
    return Interval(lo, hi, nan)


def _floor_widen(x: float, *, up: bool) -> float:
    if not math.isfinite(x):
        return x
    pad = max(1.0, abs(x) * _REL_SLOP)
    return math.floor(x) + pad if up else math.floor(x) - pad


def interval_mod(a: Interval, b: Interval) -> Interval:
    if b.contains_zero():
        return FULL_NAN
    nan = a.nan or b.nan or _has_inf(a) or _has_inf(b)
    if b.lo > 0:  # result sign follows the divisor
        return Interval(0.0, b.hi, nan)
    return Interval(b.lo, 0.0, nan)


def interval_pow(
    a: Interval, b: Interval, int_exponent: int | None = None
) -> Interval:
    nan = a.nan or b.nan
    if int_exponent is not None and int_exponent >= 0:
        k = int_exponent
        if k % 2 == 0:
            base = interval_abs(a)
            return Interval(
                _finite_pow(base.lo, k), _finite_pow(base.hi, k), nan
            )
        return Interval(_finite_pow(a.lo, k), _finite_pow(a.hi, k), nan)
    if a.lo >= 0 and b.lo >= 0:
        return Interval(0.0, INF, nan)
    # negative base with a possibly fractional exponent: NaN territory
    return Interval(-INF, INF, True)


def _finite_pow(x: float, k: int) -> float:
    if x == INF:
        return INF if k > 0 else 1.0
    if x == -INF:
        return (-INF if k % 2 else INF) if k > 0 else 1.0
    try:
        return float(x**k)
    except OverflowError:
        return INF if (x > 0 or k % 2 == 0) else -INF


#: Relative outward slop absorbing libm ulp disagreements (math.exp vs
#: np.exp) and pairwise-summation rounding (≤ ~53 ulp): one part in
#: 2^40 dwarfs both while leaving zero and infinite bounds untouched.
_REL_SLOP = 2.0**-40

#: Smallest positive subnormal — an absolute floor for pads at
#: magnitudes where a relative pad would round back to nothing.
_TINY = 5e-324


def _pad_down(x: float) -> float:
    return x - (abs(x) * _REL_SLOP + _TINY) if math.isfinite(x) else x


def _pad_up(x: float) -> float:
    return x + (abs(x) * _REL_SLOP + _TINY) if math.isfinite(x) else x


def _rel_pad(iv: Interval) -> Interval:
    """Pad finite bounds outward relatively; 0 and ±inf stay put, so
    the zero-crossing facts the rules prove from are preserved."""
    lo = iv.lo if not math.isfinite(iv.lo) else iv.lo - abs(iv.lo) * _REL_SLOP
    hi = iv.hi if not math.isfinite(iv.hi) else iv.hi + abs(iv.hi) * _REL_SLOP
    return Interval(lo, hi, iv.nan)


def interval_abs(a: Interval) -> Interval:
    if a.lo >= 0:
        return a
    if a.hi <= 0:
        return interval_neg(a)
    return Interval(0.0, max(-a.lo, a.hi), a.nan)


def interval_exp(a: Interval) -> Interval:
    # libm exp is only faithfully rounded: numpy's answer can sit an
    # ulp outside math.exp's, so pad outward (exp is never negative)
    lo = max(0.0, _pad_down(_safe_exp(a.lo)))
    hi = _pad_up(_safe_exp(a.hi))
    return Interval(lo, hi, a.nan)


def _safe_exp(x: float) -> float:
    if x == INF:
        return INF
    try:
        return math.exp(x)
    except OverflowError:
        return INF


def interval_log(a: Interval) -> Interval:
    """``log``: ``-inf`` at 0, NaN below — the XDB024 domain."""
    nan = a.nan or a.lo < 0
    if a.hi <= 0:
        # only 0 (→ -inf) and negatives (→ nan) are reachable
        return Interval(-INF, -INF, True)
    lo = -INF if a.lo <= 0 else _pad_down(math.log(a.lo))
    hi = INF if a.hi == INF else _pad_up(math.log(a.hi))
    return Interval(lo, hi, nan)


def interval_log1p(a: Interval) -> Interval:
    # evaluated via math.log1p, not log(a + 1): rounding 1 + x first
    # loses low bits of x and the bounds would miss numpy's answer
    nan = a.nan or a.lo < -1.0
    if a.hi <= -1.0:
        return Interval(-INF, -INF, True)
    lo = -INF if a.lo <= -1.0 else _pad_down(math.log1p(a.lo))
    hi = INF if a.hi == INF else _pad_up(math.log1p(a.hi))
    return Interval(lo, hi, nan)


def interval_sqrt(a: Interval) -> Interval:
    nan = a.nan or a.lo < 0
    if a.hi < 0:
        return Interval(0.0, 0.0, True)  # superset of {nan}
    lo = math.sqrt(max(a.lo, 0.0))
    hi = INF if a.hi == INF else math.sqrt(a.hi)
    return Interval(lo, hi, nan)


def interval_max(a: Interval, b: Interval) -> Interval:
    # np.maximum propagates NaN (unlike builtin max, whose result set
    # this still over-approximates)
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi), a.nan or b.nan)


def interval_min(a: Interval, b: Interval) -> Interval:
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi), a.nan or b.nan)


def interval_floor(a: Interval) -> Interval:
    lo = math.floor(a.lo) if math.isfinite(a.lo) else a.lo
    hi = math.floor(a.hi) if math.isfinite(a.hi) else a.hi
    return Interval(lo, hi, a.nan)


def interval_ceil(a: Interval) -> Interval:
    lo = math.ceil(a.lo) if math.isfinite(a.lo) else a.lo
    hi = math.ceil(a.hi) if math.isfinite(a.hi) else a.hi
    return Interval(lo, hi, a.nan)


def interval_sign(a: Interval) -> Interval:
    lo = -1.0 if a.lo < 0 else (0.0 if a.lo == 0 else 1.0)
    hi = 1.0 if a.hi > 0 else (0.0 if a.hi == 0 else -1.0)
    return Interval(lo, hi, a.nan)


# ---------------------------------------------------------------------------
# reductions (element range × length interval → result range)
# ---------------------------------------------------------------------------


def sum_reduce(elem: Interval, size: Interval | None) -> Interval:
    """``sum`` over between ``size.lo`` and ``size.hi`` elements each in
    ``elem`` (unknown length: any count ≥ 0, so 0 is always possible)."""
    nan = elem.nan or (elem.lo == -INF and elem.hi == INF)
    if size is None:
        n0, n1 = 0.0, INF
    else:
        n0, n1 = max(size.lo, 0.0), max(size.hi, 0.0)
    cands: list[float] = [0.0] if n0 == 0 else []
    for n in (n0, n1):
        for v in (elem.lo, elem.hi):
            c = n * v
            if not math.isnan(c):  # inf count × 0 element sums to 0
                cands.append(c)
    if not cands:
        cands = [0.0]
    # pairwise summation rounds: a computed sum can land a few ulp
    # outside the exact corner products
    return _rel_pad(Interval(min(cands), max(cands), nan))


def mean_reduce(elem: Interval, size: Interval | None) -> Interval:
    may_empty = size is None or size.lo <= 0
    nan = (
        elem.nan
        or may_empty  # mean of nothing is 0/0
        or (elem.lo == -INF and elem.hi == INF)
    )
    # summation rounding can push the computed mean an ulp past the
    # element bounds (e.g. the mean of n copies of v)
    return _rel_pad(Interval(elem.lo, elem.hi, nan))


def std_reduce(
    elem: Interval, size: Interval | None, ddof: Interval
) -> Interval:
    # NaN whenever n - ddof can be ≤ 0 (the XDB025 degenerate case) or
    # an infinite element poisons the moments
    if size is None:
        degenerate = True
    else:
        degenerate = size.lo <= ddof.hi
    nan = elem.nan or degenerate or _has_inf(elem)
    return Interval(0.0, INF, nan)


def minmax_reduce(elem: Interval) -> Interval:
    return Interval(elem.lo, elem.hi, elem.nan)


# ---------------------------------------------------------------------------
# abstract values and their label encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbstractNum:
    """One abstract numeric value.

    ``rng`` is the element range (for arrays: the range every element
    lies in).  ``size`` is the first-dimension length when provable,
    ``None`` otherwise.  ``scalar`` marks values provably not arrays
    (constants, ``len()`` results, full reductions)."""

    rng: Interval
    size: Interval | None = None
    scalar: bool = False


TOP_NUM = AbstractNum(FULL_NAN)


def encode(value: AbstractNum) -> str:
    if value.scalar:
        size = "s"
    elif value.size is None:
        size = "?"
    else:
        size = f"{value.size.lo!r}_{value.size.hi!r}"
    r = value.rng
    return f"{r.lo!r}~{r.hi!r}~{int(r.nan)}~{size}"


def decode(label: str) -> AbstractNum:
    lo, hi, nan, size = label.split("~")
    rng = Interval(float(lo), float(hi), nan == "1")
    if size == "s":
        return AbstractNum(rng, None, True)
    if size == "?":
        return AbstractNum(rng, None, False)
    slo, _, shi = size.partition("_")
    return AbstractNum(rng, Interval(float(slo), float(shi)), False)


def is_param(label: str) -> bool:
    return label.startswith(PARAM_PREFIX)


def param_name(label: str) -> str:
    body = label[len(PARAM_PREFIX) :]
    return body.partition("~")[0]


def param_label(name: str) -> str:
    return PARAM_PREFIX + name


def tagged_param(name: str, value: AbstractNum) -> str:
    """A parameter label carrying guard-refined numeric knowledge:
    ``if x > 0:`` turns ``param:x`` into ``param:x~<(0, inf] encoding>``
    on the true edge — provenance survives, and joins with an unguarded
    path keep the plain label alongside, so nothing is over-claimed."""
    return PARAM_PREFIX + name + "~" + encode(value)


def _param_numeric(label: str) -> str | None:
    body = label[len(PARAM_PREFIX) :]
    _name, sep, rest = body.partition("~")
    return rest if sep else None


def values_of(labels: frozenset[str]) -> list[AbstractNum]:
    """Decoded members that constitute *evidence*: plain numeric labels
    plus the refined halves of guarded parameters.  Unguarded parameter
    labels carry no range and are excluded."""
    out: list[AbstractNum] = []
    for label in sorted(labels):
        if is_param(label):
            rest = _param_numeric(label)
            if rest is not None:
                out.append(decode(rest))
        else:
            out.append(decode(label))
    return out


def params_of(labels: frozenset[str]) -> set[str]:
    """Names of *unguarded* parameters the value derives from — the set
    the summary pass turns into ``param_preconditions``."""
    return {
        param_name(label)
        for label in labels
        if is_param(label) and _param_numeric(label) is None
    }


def informative(value: AbstractNum) -> bool:
    """At least one finite range bound is known — the bar a value must
    clear before any numeric rule may cite it as evidence."""
    return not value.rng.is_full()


def _cap(values: Iterable[AbstractNum]) -> frozenset[str]:
    """Encode a value set; oversize sets collapse to their hull, which
    stays informative (a collapse to ⊤ would not)."""
    unique = set(values)
    if not unique:
        return frozenset({encode(TOP_NUM)})
    if len(unique) > _MAX_VALUES:
        return frozenset({encode(_hull_of(unique))})
    return frozenset(encode(v) for v in unique)


def _hull_of(values: set[AbstractNum]) -> AbstractNum:
    rng = FULL
    size: Interval | None = None
    scalar = True
    first = True
    for v in values:
        if first:
            rng, size, scalar, first = v.rng, v.size, v.scalar, False
            continue
        rng = interval_hull(rng, v.rng)
        scalar = scalar and v.scalar
        if size is not None and v.size is not None:
            size = interval_hull(size, v.size)
        else:
            size = None
    return AbstractNum(rng, size if not scalar else None, scalar)


def _merge(labels: frozenset[str]) -> frozenset[str]:
    """Re-cap a label set, keeping param labels verbatim."""
    params = frozenset(label for label in labels if is_param(label))
    numeric = [decode(label) for label in labels if not is_param(label)]
    if not numeric:
        return params if params else frozenset({encode(TOP_NUM)})
    if len(numeric) > _MAX_VALUES:
        return params | frozenset({encode(_hull_of(set(numeric)))})
    return params | frozenset(encode(v) for v in numeric)


TOP_LABELS = frozenset({encode(TOP_NUM)})


# ---------------------------------------------------------------------------
# widening
# ---------------------------------------------------------------------------

#: Jump targets for growing bounds: sign information survives widening,
#: so a loop counter started at 0 widens to ``[0, inf]`` — still enough
#: to prove ``counter + 1`` nonzero.
_THRESHOLDS = (-1.0, 0.0, 1.0)


def _widen_bound_down(old: float, new: float) -> float:
    if new >= old:
        return old
    for t in reversed(_THRESHOLDS):
        if t <= new:
            return t
    return -INF


def _widen_bound_up(old: float, new: float) -> float:
    if new <= old:
        return old
    for t in _THRESHOLDS:
        if t >= new:
            return t
    return INF


def _widen_interval(old: Interval, new: Interval) -> Interval:
    return Interval(
        _widen_bound_down(old.lo, new.lo),
        _widen_bound_up(old.hi, new.hi),
        old.nan or new.nan,
    )


def _widen_num(old: AbstractNum, new: AbstractNum) -> AbstractNum:
    rng = _widen_interval(old.rng, new.rng)
    scalar = old.scalar and new.scalar
    size: Interval | None = None
    if old.size is not None and new.size is not None:
        size = _widen_interval(old.size, new.size)
    return AbstractNum(rng, size if not scalar else None, scalar)


def widen_state(old: State, new: State) -> State:
    """Per-variable threshold widening for :func:`solve_refined`: both
    sides collapse to their hulls and any still-moving bound jumps to
    the next threshold (±1, 0, ±inf), so the chain is finite."""
    out: State = {}
    for name, labels in new.items():
        old_labels = old.get(name)
        if old_labels is None or labels == old_labels:
            out[name] = labels
            continue
        out[name] = _widen_labels(old_labels, labels)
    return out


def _param_group(labels: frozenset[str], pname: str) -> list[AbstractNum]:
    return [
        decode(_param_numeric(label))  # type: ignore[arg-type]
        for label in labels
        if is_param(label)
        and param_name(label) == pname
        and _param_numeric(label) is not None
    ]


def _widen_labels(
    old_labels: frozenset[str], new_labels: frozenset[str]
) -> frozenset[str]:
    out: set[str] = set()
    union = new_labels | old_labels
    refined_names: set[str] = set()
    for label in union:
        if is_param(label):
            if _param_numeric(label) is None:
                out.add(label)  # plain provenance markers are stable
            else:
                refined_names.add(param_name(label))
    # guard-refined parameters widen to ONE label per name, else a loop
    # that re-refines each iteration would mint fresh labels forever
    for pname in sorted(refined_names):
        old_group = _param_group(old_labels, pname)
        new_group = _param_group(new_labels, pname)
        if old_group and new_group:
            widened = _widen_num(
                _hull_of(set(old_group)), _hull_of(set(new_group))
            )
        else:
            widened = _hull_of(set(old_group or new_group))
        out.add(tagged_param(pname, widened))
    old_nums = [decode(la) for la in old_labels if not is_param(la)]
    new_nums = [decode(la) for la in new_labels if not is_param(la)]
    if old_nums and new_nums:
        out.add(
            encode(
                _widen_num(_hull_of(set(old_nums)), _hull_of(set(new_nums)))
            )
        )
    else:
        for v in old_nums or new_nums:
            out.add(encode(v))
    return frozenset(out)


# ---------------------------------------------------------------------------
# the flow-sensitive analysis
# ---------------------------------------------------------------------------

#: Unary numpy/math maps: name -> interval transfer.
_UNARY_MAPS: dict[str, Callable[[Interval], Interval]] = {
    "abs": interval_abs,
    "absolute": interval_abs,
    "fabs": interval_abs,
    "exp": interval_exp,
    "log": interval_log,
    "log2": interval_log,
    "log10": interval_log,
    "log1p": interval_log1p,
    "sqrt": interval_sqrt,
    "floor": interval_floor,
    "ceil": interval_ceil,
    "sign": interval_sign,
    "negative": interval_neg,
}

#: Reduction spellings recognised both as ``np.sum(x)`` and ``x.sum()``.
_REDUCTION_NAMES = {
    "sum",
    "mean",
    "average",
    "std",
    "var",
    "median",
    "min",
    "max",
    "amin",
    "amax",
    "prod",
}

#: Reductions that raise / go NaN on an empty operand (XDB025's set;
#: ``sum``/``prod`` of nothing are well-defined identities).
EMPTY_UNSAFE_REDUCTIONS = {
    "mean",
    "average",
    "std",
    "var",
    "median",
    "min",
    "max",
    "amin",
    "amax",
}


def _module_alias(node: ast.AST) -> str | None:
    """``np``/``numpy`` or ``math`` qualifier names (corpus convention)."""
    if isinstance(node, ast.Name) and node.id in ("np", "numpy"):
        return "np"
    if isinstance(node, ast.Name) and node.id == "math":
        return "math"
    return None


def _call_keyword(call: ast.Call, name: str) -> ast.AST | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


_KNOWN_DTYPES = ("float64", "float32", "int64", "int32", "bool")


def dtype_from_node(node: ast.AST | None) -> str:
    """Dtype named by a ``dtype=`` argument or cast target, ``"?"``
    when it is not statically known."""
    name: str | None = None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    elif isinstance(node, ast.Attribute):
        name = node.attr  # np.float32
    elif isinstance(node, ast.Name):
        name = node.id  # bare float / int / float32 from-import
    if name in ("float", "float_", "double"):
        return "float64"
    if name in ("int", "int_", "long"):
        return "int64"
    return name if name in _KNOWN_DTYPES else "?"


def _loop_target_names(target: ast.AST) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Starred):
        return _loop_target_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in target.elts:
            names.extend(_loop_target_names(element))
        return names
    return []


class IntervalAnalysis(ValueTaint):
    """Interval abstract interpretation on the map lattice.

    A variable's labels are encoded :class:`AbstractNum` values (its
    possible ranges) plus opaque ``param:<name>`` markers for values
    derived from function parameters.  ``callee_ranges`` hooks summary
    knowledge in: given a call node it may return the callee's abstract
    return values, or ``None`` to fall back to the numpy transfers.
    """

    def __init__(
        self,
        entry: State | None = None,
        callee_ranges: Callable[
            [ast.Call], Iterable[AbstractNum] | None
        ] | None = None,
    ) -> None:
        super().__init__(entry=entry)
        self._callee_ranges = callee_ranges

    # -- solving ------------------------------------------------------

    def solve(self, cfg: CFG) -> dict[int, State]:
        """Widened/narrowed fixpoint with branch-guard refinement."""

        def refine_edge(out: State, src: int, dst: int) -> State:
            branch = cfg.branches.get((src, dst))
            if branch is None:
                return out
            test, sense = branch
            return self.refine_state(out, test, sense)

        return solve_refined(
            cfg, self, refine=refine_edge, widen=widen_state
        )

    # -- expression semantics ----------------------------------------

    def eval_expr(self, expr: ast.AST | None, state: State) -> frozenset[str]:
        if expr is None:
            return TOP_LABELS
        if isinstance(expr, ast.Constant):
            return self._constant(expr.value)
        if isinstance(expr, ast.Name):
            return state.get(expr.id, TOP_LABELS)
        if isinstance(expr, ast.Call):
            return self.eval_call(expr, state)
        if isinstance(expr, ast.UnaryOp):
            return self._unary(expr, state)
        if isinstance(expr, ast.BinOp):
            return self._binop(expr, state)
        if isinstance(expr, ast.BoolOp):
            return self._boolop(expr, state)
        if isinstance(expr, ast.Compare):
            return _cap([AbstractNum(Interval(0.0, 1.0), None, True)])
        if isinstance(expr, ast.IfExp):
            return self._ifexp(expr, state)
        if isinstance(expr, ast.Subscript):
            return self._subscript(expr, state)
        if isinstance(expr, ast.Attribute):
            return self._attribute(expr, state)
        if isinstance(expr, (ast.Tuple, ast.List)):
            return self._sequence(expr, state)
        if isinstance(expr, ast.NamedExpr):
            return self.eval_expr(expr.value, state)
        return TOP_LABELS

    def _constant(self, value: object) -> frozenset[str]:
        if isinstance(value, bool):
            point = 1.0 if value else 0.0
        elif isinstance(value, (int, float)):
            try:
                point = float(value)
            except OverflowError:
                return TOP_LABELS
        else:
            return TOP_LABELS
        if math.isnan(point):
            return _cap([AbstractNum(Interval(0.0, 0.0, True), None, True)])
        return _cap([AbstractNum(Interval(point, point), None, True)])

    def hull(self, labels: frozenset[str]) -> AbstractNum:
        """Single-value summary of a label set (params count as ⊤) —
        what guard refinement compares against."""
        numeric = values_of(labels)
        if not numeric or params_of(labels):
            return TOP_NUM
        return _hull_of(set(numeric))

    def _unary(self, expr: ast.UnaryOp, state: State) -> frozenset[str]:
        operand = self.eval_expr(expr.operand, state)
        if isinstance(expr.op, ast.Not):
            return _cap([AbstractNum(Interval(0.0, 1.0), None, True)])
        out: list[AbstractNum] = []
        for label in sorted(operand):
            if is_param(label):
                return TOP_LABELS
            v = decode(label)
            if isinstance(expr.op, ast.USub):
                out.append(AbstractNum(interval_neg(v.rng), v.size, v.scalar))
            elif isinstance(expr.op, ast.UAdd):
                out.append(v)
            else:  # Invert: ~x = -x - 1 on ints
                rng = interval_sub(interval_neg(v.rng), Interval(1.0, 1.0))
                out.append(AbstractNum(rng, v.size, v.scalar))
        return _cap(out)

    def _binop(self, expr: ast.BinOp, state: State) -> frozenset[str]:
        left = self.eval_expr(expr.left, state)
        right = self.eval_expr(expr.right, state)
        # `[0.0] * n` is sequence repetition, not element-wise multiply
        if isinstance(expr.op, ast.Mult) and (
            isinstance(expr.left, (ast.List, ast.Tuple))
            or isinstance(expr.right, (ast.List, ast.Tuple))
        ):
            return self._repeat(expr, left, right)
        int_exponent: int | None = None
        if (
            isinstance(expr.op, ast.Pow)
            and isinstance(expr.right, ast.Constant)
            and isinstance(expr.right.value, int)
            and not isinstance(expr.right.value, bool)
        ):
            int_exponent = expr.right.value
        out: list[AbstractNum] = []
        for a in self._members(left):
            for b in self._members(right):
                rng = self._binop_rng(expr.op, a.rng, b.rng, int_exponent)
                if rng is None:
                    return TOP_LABELS
                out.append(
                    AbstractNum(rng, *self._combine_size(a, b))
                )
                if len(out) > 16:
                    return _cap(out)
        return _cap(out)

    def _members(self, labels: frozenset[str]) -> list[AbstractNum]:
        """Decoded members for arithmetic: numeric labels and the
        refined halves of guarded parameters contribute their ranges;
        any *unguarded* parameter contributes ⊤."""
        members = values_of(labels)
        if params_of(labels) or not members:
            members = members + [TOP_NUM]
        return members

    @staticmethod
    def _binop_rng(
        op: ast.operator,
        a: Interval,
        b: Interval,
        int_exponent: int | None,
    ) -> Interval | None:
        if isinstance(op, ast.Add):
            return interval_add(a, b)
        if isinstance(op, ast.Sub):
            return interval_sub(a, b)
        if isinstance(op, ast.Mult):
            return interval_mul(a, b)
        if isinstance(op, ast.Div):
            return interval_div(a, b)
        if isinstance(op, ast.FloorDiv):
            return interval_floordiv(a, b)
        if isinstance(op, ast.Mod):
            return interval_mod(a, b)
        if isinstance(op, ast.Pow):
            return interval_pow(a, b, int_exponent)
        return None  # matmul, bit ops: no numeric story

    @staticmethod
    def _combine_size(
        a: AbstractNum, b: AbstractNum
    ) -> tuple[Interval | None, bool]:
        if a.scalar and b.scalar:
            return None, True
        if a.scalar:
            return b.size, False
        if b.scalar:
            return a.size, False
        if (
            a.size is not None
            and b.size is not None
            and a.size == b.size
        ):
            return a.size, False
        return None, False

    def _repeat(
        self,
        expr: ast.BinOp,
        left: frozenset[str],
        right: frozenset[str],
    ) -> frozenset[str]:
        seq, count = (
            (left, right)
            if isinstance(expr.left, (ast.List, ast.Tuple))
            else (right, left)
        )
        out: list[AbstractNum] = []
        for s in self._members(seq):
            for c in self._members(count):
                size: Interval | None = None
                if s.size is not None:
                    n = interval_mul(s.size, interval_max(c.rng, Interval(0.0, 0.0)))
                    size = Interval(max(n.lo, 0.0), max(n.hi, 0.0))
                out.append(AbstractNum(s.rng, size, False))
        return _cap(out)

    def _boolop(self, expr: ast.BoolOp, state: State) -> frozenset[str]:
        # `a or b` yields a-when-truthy or b; `a and b` a-when-falsy or b.
        # Modelling the truthiness filter is what keeps the ubiquitous
        # `len(xs) or 1` divisor from reading as may-be-zero.
        out: list[AbstractNum] = []
        values = [self.eval_expr(v, state) for v in expr.values]
        for labels in values[:-1]:
            for v in self._members(labels):
                if isinstance(expr.op, ast.Or):
                    refined = _truthy_interval(v.rng)
                    if refined is not None:
                        out.append(AbstractNum(refined, v.size, v.scalar))
                else:
                    if v.rng.contains_zero() or v.rng.nan:
                        out.append(
                            AbstractNum(
                                Interval(0.0, 0.0, v.rng.nan),
                                v.size,
                                v.scalar,
                            )
                        )
        for v in self._members(values[-1]):
            out.append(v)
        return _cap(out)

    def _ifexp(self, expr: ast.IfExp, state: State) -> frozenset[str]:
        then_state = self.refine_state(state, expr.test, True)
        else_state = self.refine_state(state, expr.test, False)
        return _merge(
            self.eval_expr(expr.body, then_state)
            | self.eval_expr(expr.orelse, else_state)
        )

    def _subscript(self, expr: ast.Subscript, state: State) -> frozenset[str]:
        # x.shape[0] is the first-dimension length
        if (
            isinstance(expr.value, ast.Attribute)
            and expr.value.attr == "shape"
            and isinstance(expr.value.value, ast.Name)
            and isinstance(expr.slice, ast.Constant)
            and expr.slice.value == 0
        ):
            return self._length_of(expr.value.value, state)
        base = self.eval_expr(expr.value, state)
        out: list[AbstractNum] = []
        for label in sorted(base):
            if is_param(label):
                return TOP_LABELS
            v = decode(label)
            if v.scalar or v.rng.is_full():
                return TOP_LABELS
            if isinstance(expr.slice, ast.Slice):
                out.append(AbstractNum(v.rng, None, False))
            else:
                out.append(AbstractNum(v.rng, None, True))
        return _cap(out)

    def _length_of(self, name: ast.Name, state: State) -> frozenset[str]:
        out: list[AbstractNum] = []
        for v in self._members(state.get(name.id, TOP_LABELS)):
            size = v.size if v.size is not None else Interval(0.0, INF)
            out.append(AbstractNum(size, None, True))
        return _cap(out)

    def _attribute(self, expr: ast.Attribute, state: State) -> frozenset[str]:
        if expr.attr == "T" and isinstance(expr.value, ast.Name):
            # transpose keeps element ranges (length may change)
            out = []
            for v in self._members(state.get(expr.value.id, TOP_LABELS)):
                out.append(AbstractNum(v.rng, None, False))
            return _cap(out)
        if expr.attr == "size":
            # total element count: nonnegative, but NOT the tracked
            # first-dim length (a (3, 0) array has size 0, len 3)
            return _cap([AbstractNum(Interval(0.0, INF), None, True)])
        return TOP_LABELS

    def _sequence(
        self, expr: ast.Tuple | ast.List, state: State
    ) -> frozenset[str]:
        if not expr.elts:
            return _cap(
                [AbstractNum(FULL, Interval(0.0, 0.0), False)]
            )
        if any(isinstance(e, ast.Starred) for e in expr.elts):
            return TOP_LABELS
        rng: Interval | None = None
        nested_ok = True
        for element in expr.elts:
            hull = self.hull(self.eval_expr(element, state))
            if hull.rng.is_full() and hull.rng.nan:
                nested_ok = False
                break
            rng = hull.rng if rng is None else interval_hull(rng, hull.rng)
        if not nested_ok or rng is None:
            return _cap(
                [
                    AbstractNum(
                        FULL_NAN,
                        Interval(float(len(expr.elts)), float(len(expr.elts))),
                        False,
                    )
                ]
            )
        n = float(len(expr.elts))
        return _cap([AbstractNum(rng, Interval(n, n), False)])


    # -- call semantics ----------------------------------------------

    def eval_call(self, call: ast.Call, state: State) -> frozenset[str]:
        if (
            isinstance(call.func, ast.Name)
            and call.func.id == "check_array"
            and call.args
        ):
            # contract beats the callee summary: the summary only says
            # "returns the input array", the contract adds what the
            # validation rejected
            return _cap(self._check_array_call(call, state))
        if self._callee_ranges is not None:
            summary = self._callee_ranges(call)
            if summary is not None:
                return _cap(summary)
        values = self._numpy_call(call, state)
        if values is not None:
            return _cap(values)
        return TOP_LABELS

    def _check_array_call(
        self, call: ast.Call, state: State
    ) -> list[AbstractNum]:
        # xaidb's own validator: by default it raises on empty arrays
        # (allow_empty=False) and on NaN/inf entries
        # (ensure_finite=True), so the value it returns is a non-empty
        # array of finite numbers
        operand = self.hull(self.eval_expr(call.args[0], state))
        allow_empty = keeps_nan = False
        for kw in call.keywords:
            truthy = not (
                isinstance(kw.value, ast.Constant) and not kw.value.value
            )
            if kw.arg == "allow_empty":
                allow_empty = truthy
            if kw.arg == "ensure_finite":
                keeps_nan = not truthy
        rng = (
            operand.rng
            if keeps_nan
            else Interval(operand.rng.lo, operand.rng.hi, False)
        )
        size = operand.size
        if not allow_empty:
            size = (
                Interval(1.0, INF)
                if size is None
                else Interval(max(1.0, size.lo), max(1.0, size.hi))
            )
        return [AbstractNum(rng, size, False)]

    def _numpy_call(
        self, call: ast.Call, state: State
    ) -> list[AbstractNum] | None:
        func = call.func
        if isinstance(func, ast.Name):
            return self._plain_call(func.id, call, state)
        if not isinstance(func, ast.Attribute):
            return None
        alias = _module_alias(func.value)
        if alias is not None:
            return self._module_call(func.attr, call, state)
        # array method: x.sum(), x.clip(...), x.astype(...)
        receiver = self.eval_expr(func.value, state)
        return self._method_call(func.attr, call, receiver, state)

    def _plain_call(
        self, name: str, call: ast.Call, state: State
    ) -> list[AbstractNum] | None:
        if name == "len" and len(call.args) == 1:
            if isinstance(call.args[0], ast.Name):
                labels = self._length_of(call.args[0], state)
            else:
                arg = self.hull(self.eval_expr(call.args[0], state))
                size = arg.size if arg.size is not None else Interval(0.0, INF)
                labels = _cap([AbstractNum(size, None, True)])
            return [decode(label) for label in labels]
        if name == "abs" and len(call.args) == 1:
            return self._map_unary(interval_abs, call.args[0], state)
        if name in ("float", "int", "round") and len(call.args) == 1:
            arg = self.hull(self.eval_expr(call.args[0], state))
            rng = arg.rng
            if name in ("int", "round") and not rng.is_full():
                # int() truncates toward zero, round() to even: both
                # land inside [floor(lo), ceil(hi)]
                rng = Interval(
                    interval_floor(rng).lo, interval_ceil(rng).hi, rng.nan
                )
            return [AbstractNum(rng, None, True)]
        if name in ("max", "min") and len(call.args) >= 2 and not call.keywords:
            op = interval_max if name == "max" else interval_min
            acc: Interval | None = None
            for arg in call.args:
                hull = self.hull(self.eval_expr(arg, state)).rng
                acc = hull if acc is None else op(acc, hull)
            assert acc is not None
            return [AbstractNum(acc, None, True)]
        if name in ("max", "min", "sum") and len(call.args) == 1:
            operand = self.hull(self.eval_expr(call.args[0], state))
            if name == "sum":
                return [AbstractNum(sum_reduce(operand.rng, operand.size), None, True)]
            return [AbstractNum(minmax_reduce(operand.rng), None, True)]
        if name == "range" and 1 <= len(call.args) <= 3:
            return self._range_like(call, state, integral=True)
        if name == "bool":
            return [AbstractNum(Interval(0.0, 1.0), None, True)]
        return None

    def _map_unary(
        self,
        fn: Callable[[Interval], Interval],
        arg: ast.AST,
        state: State,
    ) -> list[AbstractNum]:
        out: list[AbstractNum] = []
        for v in self._members(self.eval_expr(arg, state)):
            out.append(AbstractNum(fn(v.rng), v.size, v.scalar))
        return out

    def _module_call(
        self, name: str, call: ast.Call, state: State
    ) -> list[AbstractNum] | None:
        if name in _UNARY_MAPS and call.args:
            return self._map_unary(_UNARY_MAPS[name], call.args[0], state)
        if name in ("maximum", "minimum") and len(call.args) == 2:
            op = interval_max if name == "maximum" else interval_min
            a = self.hull(self.eval_expr(call.args[0], state))
            b = self.hull(self.eval_expr(call.args[1], state))
            size, scalar = self._combine_size(a, b)
            return [AbstractNum(op(a.rng, b.rng), size, scalar)]
        if name == "clip" and call.args:
            return self._clip(call, call.args[0], call.args[1:], state)
        if name in _REDUCTION_NAMES and call.args:
            return self._reduction(name, call, call.args[0], state)
        if name in ("zeros", "ones", "empty", "full") and call.args:
            return self._constructor(name, call, state)
        if name in ("zeros_like", "ones_like", "full_like") and call.args:
            base = self.hull(self.eval_expr(call.args[0], state))
            if name == "zeros_like":
                rng = Interval(0.0, 0.0)
            elif name == "ones_like":
                rng = Interval(1.0, 1.0)
            else:
                fill = (
                    self.hull(self.eval_expr(call.args[1], state)).rng
                    if len(call.args) > 1
                    else FULL_NAN
                )
                rng = fill
            return [AbstractNum(rng, base.size, False)]
        if name in ("array", "asarray", "asanyarray", "atleast_1d") and call.args:
            v = self.hull(self.eval_expr(call.args[0], state))
            return [AbstractNum(v.rng, v.size, False)]
        if name == "arange" and 1 <= len(call.args) <= 3:
            return self._range_like(call, state, integral=False)
        if name == "linspace" and len(call.args) >= 2:
            a = self.hull(self.eval_expr(call.args[0], state)).rng
            b = self.hull(self.eval_expr(call.args[1], state)).rng
            num_node = (
                call.args[2] if len(call.args) > 2 else _call_keyword(call, "num")
            )
            if num_node is None:
                size: Interval | None = Interval(50.0, 50.0)
            else:
                num = self.hull(self.eval_expr(num_node, state)).rng
                size = (
                    Interval(max(num.lo, 0.0), max(num.hi, 0.0))
                    if not num.is_full()
                    else None
                )
            return [AbstractNum(interval_hull(a, b), size, False)]
        if name == "where" and len(call.args) == 3:
            a = self.hull(self.eval_expr(call.args[1], state))
            b = self.hull(self.eval_expr(call.args[2], state))
            return [AbstractNum(interval_hull(a.rng, b.rng), None, False)]
        if name == "isnan" and call.args:
            return [AbstractNum(Interval(0.0, 1.0), None, False)]
        if name == "nan_to_num" and call.args:
            v = self.hull(self.eval_expr(call.args[0], state)).rng
            return [
                AbstractNum(
                    Interval(min(v.lo, 0.0), max(v.hi, 0.0), False),
                    None,
                    False,
                )
            ]
        if name == "dot" and len(call.args) == 2:
            return None  # cross-element sums: no cheap sound range
        return None

    def _method_call(
        self,
        name: str,
        call: ast.Call,
        receiver: frozenset[str],
        state: State,
    ) -> list[AbstractNum] | None:
        v = self.hull(receiver)
        if name in _REDUCTION_NAMES:
            return self._reduction(name, call, None, state, operand=v)
        if name == "clip":
            return self._clip(call, None, call.args, state, operand=v)
        if name == "astype":
            dtype = dtype_from_node(
                call.args[0] if call.args else _call_keyword(call, "dtype")
            )
            rng = v.rng
            if dtype.startswith(("int", "uint")) and not rng.is_full():
                rng = Interval(
                    interval_floor(rng).lo, interval_ceil(rng).hi, rng.nan
                )
            return [AbstractNum(rng, v.size, v.scalar)]
        if name == "item":
            return [AbstractNum(v.rng, None, True)]
        if name == "copy":
            return [v]
        if name in ("reshape", "ravel", "flatten", "squeeze"):
            return [AbstractNum(v.rng, None, False)]
        if name == "tolist":
            return [AbstractNum(v.rng, v.size, False)]
        return None

    def _reduction(
        self,
        name: str,
        call: ast.Call,
        operand_node: ast.AST | None,
        state: State,
        operand: AbstractNum | None = None,
    ) -> list[AbstractNum] | None:
        if operand is None:
            assert operand_node is not None
            operand = self.hull(self.eval_expr(operand_node, state))
            positional_axis = call.args[1] if len(call.args) > 1 else None
        else:
            # method form x.sum(...): the first positional arg is axis
            positional_axis = call.args[0] if call.args else None
        axis = _call_keyword(call, "axis") or positional_axis
        scalar = axis is None
        # axis reductions keep array-ness but the result length is the
        # *other* dims' — unknown here either way
        size = operand.size if axis is not None else None
        if name == "sum":
            rng = sum_reduce(operand.rng, operand.size)
        elif name in ("mean", "average", "median"):
            rng = mean_reduce(operand.rng, operand.size)
        elif name in ("std", "var"):
            ddof_node = _call_keyword(call, "ddof")
            ddof = (
                self.hull(self.eval_expr(ddof_node, state)).rng
                if ddof_node is not None
                else Interval(0.0, 0.0)
            )
            rng = std_reduce(operand.rng, operand.size, ddof)
        elif name in ("min", "max", "amin", "amax"):
            rng = minmax_reduce(operand.rng)
        else:  # prod: products over unknown counts explode; stay ⊤
            return None
        return [AbstractNum(rng, None if scalar else size, scalar)]

    def _clip(
        self,
        call: ast.Call,
        operand_node: ast.AST | None,
        bound_args: list[ast.expr] | tuple[ast.expr, ...],
        state: State,
        operand: AbstractNum | None = None,
    ) -> list[AbstractNum]:
        if operand is None:
            assert operand_node is not None
            operand = self.hull(self.eval_expr(operand_node, state))
        bounds = list(bound_args)
        lo_node = bounds[0] if len(bounds) > 0 else None
        hi_node = bounds[1] if len(bounds) > 1 else None
        if lo_node is None:
            lo_node = _call_keyword(call, "a_min") or _call_keyword(call, "min")
        if hi_node is None:
            hi_node = _call_keyword(call, "a_max") or _call_keyword(call, "max")
        rng = operand.rng
        if lo_node is not None and not (
            isinstance(lo_node, ast.Constant) and lo_node.value is None
        ):
            rng = interval_max(rng, self.hull(self.eval_expr(lo_node, state)).rng)
        if hi_node is not None and not (
            isinstance(hi_node, ast.Constant) and hi_node.value is None
        ):
            rng = interval_min(rng, self.hull(self.eval_expr(hi_node, state)).rng)
        return [AbstractNum(rng, operand.size, operand.scalar)]

    def _range_like(
        self, call: ast.Call, state: State, integral: bool
    ) -> list[AbstractNum]:
        args = [self.hull(self.eval_expr(a, state)).rng for a in call.args]
        if len(args) == 1:
            start, stop = Interval(0.0, 0.0), args[0]
        else:
            start, stop = args[0], args[1]
        if len(args) == 3:
            step = args[2]
            if (
                integral
                and step.lo == step.hi
                and not step.nan
                # xailint: disable=XDB006 (a range step is an exact integer constant)
                and step.lo != 0.0
            ):
                # a known step direction keeps the exclusive stop out:
                # range(a, b, -1) yields b+1..a, range(a, b, c>0) a..b-1
                if step.lo > 0.0:
                    lo, hi = start.lo, stop.hi - 1.0
                else:
                    lo, hi = stop.lo + 1.0, start.hi
                return [
                    AbstractNum(
                        Interval(
                            lo, max(lo, hi), start.nan or stop.nan
                        ),
                        None,
                        False,
                    )
                ]
            # an unknown step can run backwards: elements stay within
            # the start/stop hull, the count is unknown
            return [AbstractNum(interval_hull(start, stop), None, False)]
        elements = Interval(
            start.lo,
            max(start.lo, stop.hi - (1.0 if integral else 0.0)),
            start.nan or stop.nan,
        )
        size = Interval(
            max(0.0, stop.lo - start.hi - (0.0 if integral else 1.0)),
            max(0.0, stop.hi - start.lo),
        )
        if not math.isfinite(size.lo):
            size = Interval(0.0, size.hi)
        return [AbstractNum(elements, size, False)]

    def _constructor(
        self, name: str, call: ast.Call, state: State
    ) -> list[AbstractNum]:
        size = self._shape_first_dim(call.args[0], state)
        if name == "zeros":
            rng = Interval(0.0, 0.0)
        elif name == "ones":
            rng = Interval(1.0, 1.0)
        elif name == "full":
            rng = (
                self.hull(self.eval_expr(call.args[1], state)).rng
                if len(call.args) > 1
                else FULL_NAN
            )
        else:  # empty: uninitialised memory, anything incl. NaN
            rng = FULL_NAN
        return [AbstractNum(rng, size, False)]

    def _shape_first_dim(
        self, node: ast.AST, state: State
    ) -> Interval | None:
        if isinstance(node, (ast.Tuple, ast.List)):
            if not node.elts:
                return Interval(0.0, 0.0)
            node = node.elts[0]
        rng = self.hull(self.eval_expr(node, state)).rng
        if rng.is_full() or rng.nan:
            return None
        return Interval(max(rng.lo, 0.0), max(rng.hi, 0.0))

    # -- statement semantics -----------------------------------------

    def transfer(self, item: ast.AST, state: State) -> None:
        if isinstance(item, (ast.For, ast.AsyncFor)):
            elements = self._element_labels(
                self.eval_expr(item.iter, state)
            )
            super().transfer(item, state)
            for name in _loop_target_names(item.target):
                state[name] = elements
            return
        if isinstance(item, ast.AugAssign):
            if isinstance(item.target, ast.Name):
                combined = self._aug_value(item, state)
                state[item.target.id] = combined
            elif isinstance(item.target, ast.Subscript):
                self._weak_update(item.target, self._aug_value(item, state), state)
            return
        if isinstance(item, ast.Assign):
            value_labels = self.eval_expr(item.value, state)
            for target in item.targets:
                if isinstance(target, ast.Subscript):
                    self._weak_update(target, value_labels, state)
                else:
                    self._assign(target, item.value, value_labels, state)
            return
        if isinstance(item, ast.Assert):
            refined = self.refine_state(state, item.test, True)
            state.clear()
            state.update(refined)
            return
        if isinstance(item, ast.Expr) and isinstance(item.value, ast.Call):
            if self._contract_call(item.value, state):
                return
        super().transfer(item, state)

    def _contract_call(self, call: ast.Call, state: State) -> bool:
        """Statement-level calls with known postconditions.

        ``check_positive(x)`` is xaidb's own validator: it raises unless
        ``x > 0`` (``x >= 0`` with ``strict=False``), so fall-through
        code may rely on the bound.  ``x.append(v)`` grows a tracked
        list by exactly one element.  Returns True when handled.
        """
        func = call.func
        if (
            isinstance(func, ast.Name)
            and func.id == "check_positive"
            and call.args
            and isinstance(call.args[0], ast.Name)
        ):
            strict = True
            for kw in call.keywords:
                if kw.arg == "strict":
                    strict = not (
                        isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                    )
            guard = ast.copy_location(
                ast.Compare(
                    left=call.args[0],
                    ops=[ast.Gt() if strict else ast.GtE()],
                    comparators=[
                        ast.copy_location(ast.Constant(value=0.0), call)
                    ],
                ),
                call,
            )
            refined = self.refine_state(state, guard, True)
            state.clear()
            state.update(refined)
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "append"
            and isinstance(func.value, ast.Name)
            and len(call.args) == 1
            and func.value.id in state
        ):
            appended = self.hull(self.eval_expr(call.args[0], state))
            members: list[AbstractNum] | None = []
            for label in sorted(state[func.value.id]):
                if is_param(label):
                    members = None
                    break
                v = decode(label)
                size = (
                    Interval(v.size.lo + 1.0, v.size.hi + 1.0, v.size.nan)
                    if v.size is not None
                    else None
                )
                members.append(
                    AbstractNum(
                        interval_hull(v.rng, appended.rng), size, False
                    )
                )
            if members is not None:
                state[func.value.id] = _cap(members)
            return True
        return False

    def _aug_value(self, item: ast.AugAssign, state: State) -> frozenset[str]:
        if isinstance(item.target, ast.Name):
            load = ast.copy_location(
                ast.Name(id=item.target.id, ctx=ast.Load()), item.target
            )
            synthetic = ast.copy_location(
                ast.BinOp(left=load, op=item.op, right=item.value), item
            )
            return self.eval_expr(synthetic, state)
        # x[i] op= v: the touched elements become old-op-v, the rest
        # keep their old range; the caller hulls both via _weak_update
        base = (
            state.get(item.target.value.id, TOP_LABELS)
            if isinstance(item.target, ast.Subscript)
            and isinstance(item.target.value, ast.Name)
            else TOP_LABELS
        )
        old = self.hull(base)
        v = self.hull(self.eval_expr(item.value, state))
        rng = self._binop_rng(item.op, old.rng, v.rng, None)
        if rng is None:
            return TOP_LABELS
        return _cap([AbstractNum(rng, None, old.scalar)])

    def _weak_update(
        self,
        target: ast.Subscript,
        value_labels: frozenset[str],
        state: State,
    ) -> None:
        """``x[i] = v`` joins v's range into x's element range (a weak
        update: untouched elements keep their old values)."""
        if not isinstance(target.value, ast.Name):
            return
        name = target.value.id
        old = self.hull(state.get(name, TOP_LABELS))
        new = self.hull(value_labels)
        merged = AbstractNum(
            interval_hull(old.rng, new.rng), old.size, False
        )
        state[name] = _cap([merged])

    def _element_labels(self, labels: frozenset[str]) -> frozenset[str]:
        out: list[AbstractNum] = []
        for label in sorted(labels):
            if is_param(label):
                return TOP_LABELS
            v = decode(label)
            if v.scalar or v.rng.is_full() and v.rng.nan:
                return TOP_LABELS
            out.append(AbstractNum(v.rng, None, False))
        return _cap(out) if out else TOP_LABELS

    # -- comparison-guard refinement ---------------------------------

    def refine_state(
        self, state: State, test: ast.expr, sense: bool
    ) -> State:
        """A fresh state with the knowledge that ``test`` evaluated to
        ``sense`` — `if x > 0:` narrows x on the true edge, `if n == 0:
        raise` narrows the fall-through."""
        new = dict(state)
        self._refine(new, test, sense)
        return new

    def _refine(self, state: State, test: ast.expr, sense: bool) -> None:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._refine(state, test.operand, not sense)
            return
        if isinstance(test, ast.BoolOp):
            if isinstance(test.op, ast.And) and sense:
                for value in test.values:
                    self._refine(state, value, True)
            elif isinstance(test.op, ast.Or) and not sense:
                for value in test.values:
                    self._refine(state, value, False)
            return
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            self._refine_compare(
                state, test.left, test.ops[0], test.comparators[0], sense
            )
            return
        if (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Attribute)
            and test.func.attr == "isnan"
            and test.args
            and isinstance(test.args[0], ast.Name)
            and not sense
        ):
            # `if not np.isnan(x):` clears the NaN flag
            self._map_name(test.args[0].id, state, _drop_nan)
            return
        self._refine_truthy(state, test, sense)

    def _refine_compare(
        self,
        state: State,
        left: ast.expr,
        op: ast.cmpop,
        right: ast.expr,
        sense: bool,
    ) -> None:
        if not sense:
            inverted = _invert_op(op)
            if inverted is None:
                return
            op = inverted
        # `5 < x` reads as `x > 5`
        for target, bound, cmp in (
            (left, right, op),
            (right, left, _swap_op(op)),
        ):
            if cmp is None:
                continue
            other = self.hull(self.eval_expr(bound, state))
            kind, name = _refinable(target)
            if kind == "rng":
                self._map_name(
                    name,
                    state,
                    lambda v, c=cmp, o=other.rng: _refine_rng(v, c, o),
                )
            elif kind == "len":
                self._map_name(
                    name,
                    state,
                    lambda v, c=cmp, o=other.rng: _refine_len(v, c, o),
                )
            elif kind == "size":
                # `x.size` counts *all* elements: a positive total implies
                # len(x) >= 1, but a zero total does NOT imply len(x) == 0
                # (shape (3, 0) has size 0 and len 3), so only the
                # positive direction refines the first-dim length.
                if isinstance(cmp, (ast.Gt, ast.GtE)) and other.rng.lo > 0:
                    self._map_name(
                        name,
                        state,
                        lambda v: _refine_len(
                            v, ast.GtE(), Interval(1.0, 1.0)
                        ),
                    )

    def _refine_truthy(
        self, state: State, test: ast.expr, sense: bool
    ) -> None:
        kind, name = _refinable(test)
        if kind == "rng":
            fn = _exclude_zero if sense else _only_zero
            self._map_name(name, state, fn)
        elif kind == "len" and name:
            if sense:
                self._map_name(
                    name,
                    state,
                    lambda v: _refine_len(v, ast.GtE(), Interval(1.0, 1.0)),
                )
            else:
                self._map_name(
                    name,
                    state,
                    lambda v: _refine_len(v, ast.LtE(), Interval(0.0, 0.0)),
                )
        elif kind == "size" and name and sense:
            # truthy total element count => at least one row; the falsy
            # direction says nothing about the first dimension.
            self._map_name(
                name,
                state,
                lambda v: _refine_len(v, ast.GtE(), Interval(1.0, 1.0)),
            )

    def _map_name(
        self,
        name: str | None,
        state: State,
        fn: Callable[[AbstractNum], AbstractNum | None],
    ) -> None:
        """Apply a refinement to every member of ``name``'s value set.
        ``fn`` returning ``None`` drops the member (infeasible on this
        edge); an empty result set is ⊥ — the edge is dead for ``name``.
        Parameter labels are refined in place, keeping provenance."""
        if name is None:
            return
        labels = state.get(name, TOP_LABELS)
        out: set[str] = set()
        for label in sorted(labels):
            if is_param(label):
                rest = _param_numeric(label)
                base = TOP_NUM if rest is None else decode(rest)
                refined = fn(base)
                if refined is not None:
                    out.add(tagged_param(param_name(label), refined))
                continue
            refined = fn(decode(label))
            if refined is not None:
                out.add(encode(refined))
        state[name] = _merge(frozenset(out)) if out else frozenset()


# ---------------------------------------------------------------------------
# refinement helpers
# ---------------------------------------------------------------------------


def _next_up(x: float) -> float:
    return math.nextafter(x, INF)


def _next_down(x: float) -> float:
    return math.nextafter(x, -INF)


def _drop_nan(v: AbstractNum) -> AbstractNum:
    return AbstractNum(
        Interval(v.rng.lo, v.rng.hi, False), v.size, v.scalar
    )


def _truthy_interval(rng: Interval) -> Interval | None:
    """The truthy subset of a range (NaN is truthy!); ``None`` when the
    range is exactly {0}."""
    lo, hi = rng.lo, rng.hi
    # xailint: disable=XDB006 (interval endpoints are exact by construction)
    if lo == 0.0 and hi == 0.0:
        return Interval(0.0, 0.0, True) if rng.nan else None
    # xailint: disable=XDB006 (interval endpoints are exact by construction)
    if lo == 0.0:
        lo = _next_up(0.0)
    # xailint: disable=XDB006 (interval endpoints are exact by construction)
    elif hi == 0.0:
        hi = _next_down(0.0)
    return Interval(lo, hi, rng.nan)


def _exclude_zero(v: AbstractNum) -> AbstractNum | None:
    """Truthiness refinement: scalars lose the value 0 (when it sits on
    an endpoint), arrays gain length ≥ 1."""
    if v.scalar:
        refined = _truthy_interval(v.rng)
        if refined is None:
            return None
        return AbstractNum(refined, None, True)
    if v.size is not None:
        size = Interval(max(v.size.lo, 1.0), max(v.size.hi, 1.0))
        if v.size.hi < 1.0:
            return None
        return AbstractNum(v.rng, size, False)
    return v  # unknown kind: no safe claim either way


def _only_zero(v: AbstractNum) -> AbstractNum | None:
    """Falsiness refinement: scalars become exactly 0 (NaN is truthy,
    so it is gone too), arrays become empty."""
    if v.scalar:
        if not v.rng.contains_zero():
            return None
        return AbstractNum(Interval(0.0, 0.0), None, True)
    if v.size is not None:
        if v.size.lo > 0.0:
            return None
        return AbstractNum(v.rng, Interval(0.0, 0.0), False)
    return v


def _invert_op(op: ast.cmpop) -> ast.cmpop | None:
    if isinstance(op, ast.Gt):
        return ast.LtE()
    if isinstance(op, ast.GtE):
        return ast.Lt()
    if isinstance(op, ast.Lt):
        return ast.GtE()
    if isinstance(op, ast.LtE):
        return ast.Gt()
    if isinstance(op, ast.Eq):
        return ast.NotEq()
    if isinstance(op, ast.NotEq):
        return ast.Eq()
    return None


def _swap_op(op: ast.cmpop) -> ast.cmpop | None:
    """`c OP x` read from x's side: `5 < x` is `x > 5`."""
    if isinstance(op, ast.Gt):
        return ast.Lt()
    if isinstance(op, ast.GtE):
        return ast.LtE()
    if isinstance(op, ast.Lt):
        return ast.Gt()
    if isinstance(op, ast.LtE):
        return ast.GtE()
    if isinstance(op, (ast.Eq, ast.NotEq)):
        return op
    return None


def _refinable(expr: ast.expr) -> tuple[str | None, str | None]:
    """What a comparison side lets us refine: ``("rng", name)`` for a
    plain name, ``("len", name)`` for ``len(x)`` / ``x.shape[0]``,
    ``("size", name)`` for ``x.size`` (total element count — only the
    positive direction maps to first-dim length)."""
    if isinstance(expr, ast.Name):
        return "rng", expr.id
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "len"
        and len(expr.args) == 1
        and isinstance(expr.args[0], ast.Name)
    ):
        return "len", expr.args[0].id
    if (
        isinstance(expr, ast.Subscript)
        and isinstance(expr.value, ast.Attribute)
        and expr.value.attr == "shape"
        and isinstance(expr.value.value, ast.Name)
        and isinstance(expr.slice, ast.Constant)
        and expr.slice.value == 0
    ):
        return "len", expr.value.value.id
    if (
        isinstance(expr, ast.Attribute)
        and expr.attr == "size"
        and isinstance(expr.value, ast.Name)
    ):
        return "size", expr.value.id
    return None, None


def _refine_rng(
    v: AbstractNum, op: ast.cmpop, other: Interval
) -> AbstractNum | None:
    """Refine a value's range given that ``value OP other`` held.  An
    ordering that held clears NaN (every comparison with NaN is False);
    ``!=`` keeps it (NaN != c is True)."""
    rng = v.rng
    if isinstance(op, ast.Gt):
        new = Interval(max(rng.lo, _next_up(other.lo)), rng.hi, False)
    elif isinstance(op, ast.GtE):
        new = Interval(max(rng.lo, other.lo), rng.hi, False)
    elif isinstance(op, ast.Lt):
        new = Interval(rng.lo, min(rng.hi, _next_down(other.hi)), False)
    elif isinstance(op, ast.LtE):
        new = Interval(rng.lo, min(rng.hi, other.hi), False)
    elif isinstance(op, ast.Eq):
        new = Interval(
            max(rng.lo, other.lo), min(rng.hi, other.hi), False
        )
    elif isinstance(op, ast.NotEq):
        new = rng
        if other.is_point() and not other.nan:
            c = other.lo
            lo, hi = rng.lo, rng.hi
            if lo == c:
                lo = _next_up(c)
            if hi == c:
                hi = _next_down(c)
            new = Interval(lo, hi, rng.nan)
    else:
        return v
    if new.lo > new.hi:
        # bounds emptied: feasible only as NaN (kept by !=) or not at all
        if new.nan:
            return AbstractNum(Interval(0.0, 0.0, True), v.size, v.scalar)
        return None
    return AbstractNum(new, v.size, v.scalar)


def _int_lower(bound: float, strict: bool) -> float:
    if not math.isfinite(bound):
        return 0.0 if bound == -INF else bound
    if strict:
        return math.floor(bound) + 1 if float(bound).is_integer() else math.ceil(bound)
    return math.ceil(bound)


def _int_upper(bound: float, strict: bool) -> float:
    if not math.isfinite(bound):
        return bound
    if strict:
        return math.ceil(bound) - 1 if float(bound).is_integer() else math.floor(bound)
    return math.floor(bound)


def _refine_len(
    v: AbstractNum, op: ast.cmpop, other: Interval
) -> AbstractNum | None:
    """Refine a value's first-dim length given ``len(value) OP other``
    (lengths are integers ≥ 0, so ``len > 0`` means ``len ≥ 1``)."""
    size = v.size if v.size is not None else Interval(0.0, INF)
    lo, hi = size.lo, size.hi
    if isinstance(op, ast.Gt):
        lo = max(lo, _int_lower(other.lo, strict=True))
    elif isinstance(op, ast.GtE):
        lo = max(lo, _int_lower(other.lo, strict=False))
    elif isinstance(op, ast.Lt):
        hi = min(hi, _int_upper(other.hi, strict=True))
    elif isinstance(op, ast.LtE):
        hi = min(hi, _int_upper(other.hi, strict=False))
    elif isinstance(op, ast.Eq):
        lo = max(lo, _int_lower(other.lo, strict=False))
        hi = min(hi, _int_upper(other.hi, strict=False))
    elif isinstance(op, ast.NotEq):
        if other.is_point():
            c = other.lo
            if lo == c:
                lo = c + 1.0
            if hi == c:
                hi = c - 1.0
    else:
        return v
    lo = max(lo, 0.0)
    if lo > hi:
        return None  # no feasible length: the edge is dead
    return AbstractNum(v.rng, Interval(lo, hi), False)
