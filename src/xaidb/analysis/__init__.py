"""xailint — xaidb's self-hosted static-analysis pass.

The tutorial's central warning (PAPER.md §2) is that explanations lose
validity silently: unseeded randomness, hidden library behaviour and
impure explainers make a reproduction drift from the results it claims
to match without any test failing.  This package turns the repo's
scientific-correctness conventions into machine-checked invariants
(rule ids XDB001–XDB013, XDB016–XDB017, XDB023–XDB027 and XDB032,
documented in ``docs/LINTING.md``) that gate every PR via
``tests/analysis/test_lint_clean.py``.

Four tiers of rules ship: syntactic/AST-pattern checks
(XDB001–XDB009, plus XDB032 next to XDB005); a flow-sensitive tier
(XDB010–XDB013) built on a per-function CFG
(:mod:`xaidb.analysis.cfg`) and a forward dataflow framework with
reaching-definitions and value-taint instantiations
(:mod:`xaidb.analysis.dataflow`); an interprocedural tier
(XDB016–XDB017) built on a project-wide call graph
(:mod:`xaidb.analysis.callgraph`) and bottom-up function summaries
over its SCC condensation (:mod:`xaidb.analysis.summaries`); and a
numeric-safety tier (XDB023–XDB027) built on a value-range abstract
interpretation (:mod:`xaidb.analysis.intervals`) whose interval domain
tracks bounds, may-be-NaN flags and array lengths flow-sensitively and
across calls.
Findings with a mechanical remedy are repaired by ``xailint --fix``
(:mod:`xaidb.analysis.fixes`).  Scans are
commit-speed via a content-hash-keyed incremental cache
(:mod:`xaidb.analysis.cache`) that also persists function summaries
per SCC, and ``--format sarif`` emits CI-ready annotations.

Programmatic use::

    from xaidb.analysis import run_paths

    result = run_paths(["src", "benchmarks"])
    assert result.ok, [str(f) for f in result.findings]

Command line::

    python -m xaidb.analysis src benchmarks examples tools
"""

from xaidb.analysis.cache import LintCache, file_digest, ruleset_digest
from xaidb.analysis.callgraph import (
    CallGraph,
    CallSite,
    FunctionNode,
    build_call_graph,
    strongly_connected_components,
)
from xaidb.analysis.cfg import CFG, Block, build_cfg, function_cfg
from xaidb.analysis.dataflow import (
    ForwardProblem,
    ReachingDefinitions,
    ValueTaint,
    solve_forward,
    view_sources,
)
from xaidb.analysis.engine import discover_files, lint_source, run_paths
from xaidb.analysis.findings import Finding, LintResult, ScanStats
from xaidb.analysis.fixes import (
    FIXABLE_RULES,
    FileFix,
    FixReport,
    apply_fixes,
    plan_fixes,
)
from xaidb.analysis.intervals import (
    AbstractNum,
    Interval,
    IntervalAnalysis,
    interval_hull,
)
from xaidb.analysis.registry import (
    FileRule,
    ProjectRule,
    Rule,
    all_rules,
    register,
    rules_by_id,
)
from xaidb.analysis.reporters import (
    JSON_SCHEMA_VERSION,
    SARIF_VERSION,
    render_github,
    render_json,
    render_sarif,
    render_stats,
    render_text,
)
from xaidb.analysis.summaries import (
    FunctionSummary,
    InterprocAnalysis,
)
from xaidb.analysis.suppressions import (
    Suppression,
    SuppressionIndex,
    parse_suppressions,
)

__all__ = [
    "Finding",
    "LintResult",
    "ScanStats",
    "Rule",
    "FileRule",
    "ProjectRule",
    "register",
    "all_rules",
    "rules_by_id",
    "discover_files",
    "lint_source",
    "run_paths",
    "render_text",
    "render_json",
    "render_sarif",
    "render_github",
    "render_stats",
    "JSON_SCHEMA_VERSION",
    "SARIF_VERSION",
    "CFG",
    "Block",
    "build_cfg",
    "function_cfg",
    "ForwardProblem",
    "ReachingDefinitions",
    "ValueTaint",
    "solve_forward",
    "view_sources",
    "CallGraph",
    "CallSite",
    "FunctionNode",
    "build_call_graph",
    "strongly_connected_components",
    "FunctionSummary",
    "InterprocAnalysis",
    "LintCache",
    "file_digest",
    "ruleset_digest",
    "Suppression",
    "SuppressionIndex",
    "parse_suppressions",
    "Interval",
    "AbstractNum",
    "IntervalAnalysis",
    "interval_hull",
    "FIXABLE_RULES",
    "FileFix",
    "FixReport",
    "plan_fixes",
    "apply_fixes",
]
