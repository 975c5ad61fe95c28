"""Output formats for xailint results.

Two reporters ship: a human-oriented text format (one
``path:line:col: RULE message`` line per finding, grouped summary) and
a machine-oriented JSON document with a versioned, stable schema that
``tests/analysis`` pins down::

    {
      "schema_version": 1,
      "files_scanned": 12,
      "ok": false,
      "findings": [
        {"path": "...", "line": 3, "col": 0, "rule": "XDB001",
         "symbol": "banned-import", "message": "...", "severity": "error"}
      ],
      "suppressed_count": 2,
      "summary": {"XDB001": 1}
    }
"""

from __future__ import annotations

import json

from xaidb.analysis.findings import Finding, LintResult
from xaidb.analysis.registry import rules_by_id

__all__ = [
    "JSON_SCHEMA_VERSION",
    "SARIF_VERSION",
    "SARIF_SCHEMA_URI",
    "render_text",
    "render_json",
    "render_sarif",
    "render_github",
    "render_stats",
    "finding_to_dict",
]

JSON_SCHEMA_VERSION = 1

#: The SARIF spec level the CI reporter targets (pinned by tests).
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def finding_to_dict(finding: Finding) -> dict[str, object]:
    """The stable JSON representation of one finding."""
    return {
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "rule": finding.rule_id,
        "symbol": finding.symbol,
        "message": finding.message,
        "severity": finding.severity,
    }


def render_text(result: LintResult) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule_id} [{f.symbol}] {f.message}"
        for f in result.findings
    ]
    counts = result.counts_by_rule()
    if counts:
        lines.append("")
        for rule_id, count in counts.items():
            lines.append(f"{rule_id}: {count} finding(s)")
    noun = "file" if result.files_scanned == 1 else "files"
    status = "clean" if result.ok else f"{len(result.findings)} finding(s)"
    suffix = (
        f", {len(result.suppressed)} suppressed"
        if result.suppressed
        else ""
    )
    lines.append(
        f"xailint: {result.files_scanned} {noun} scanned, {status}{suffix}"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report with a pinned schema version."""
    document = {
        "schema_version": JSON_SCHEMA_VERSION,
        "files_scanned": result.files_scanned,
        "ok": result.ok,
        "findings": [finding_to_dict(f) for f in result.findings],
        "suppressed_count": len(result.suppressed),
        "summary": result.counts_by_rule(),
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_sarif(result: LintResult) -> str:
    """SARIF 2.1.0 document for CI annotation (GitHub code scanning).

    One run, one driver (``xailint``), the full registered rule pack in
    ``tool.driver.rules`` (so viewers can show descriptions even for
    rules with zero results), one ``result`` per finding.
    """
    registry = rules_by_id()
    rule_ids = sorted(registry)
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    sarif_rules = [
        {
            "id": rule_id,
            "name": registry[rule_id].symbol,
            "shortDescription": {"text": registry[rule_id].description},
            "defaultConfiguration": {
                "level": registry[rule_id].severity
            },
        }
        for rule_id in rule_ids
    ]
    results = []
    for finding in result.findings:
        entry: dict[str, object] = {
            "ruleId": finding.rule_id,
            "level": (
                finding.severity
                if finding.severity in ("error", "warning")
                else "error"
            ),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": finding.line,
                            # SARIF columns are 1-based
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        if finding.rule_id in rule_index:
            entry["ruleIndex"] = rule_index[finding.rule_id]
        results.append(entry)
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "xailint",
                        "informationUri": (
                            "https://github.com/xaidb/xaidb/blob/main/"
                            "docs/LINTING.md"
                        ),
                        "rules": sarif_rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def _github_escape_data(text: str) -> str:
    """Escape a workflow-command message per GitHub's data rules."""
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _github_escape_property(text: str) -> str:
    """Escape a workflow-command property value (file=, etc.)."""
    return (
        _github_escape_data(text).replace(":", "%3A").replace(",", "%2C")
    )


def render_github(result: LintResult) -> str:
    """GitHub Actions workflow commands, one annotation per finding.

    ``::warning file=...,line=...,col=...::message`` lines surface
    inline on the PR diff when printed inside a workflow run — no SARIF
    upload step or code-scanning permission needed.  Severities other
    than ``warning`` map to ``error``; columns are 1-based like SARIF.
    """
    lines = []
    for finding in result.findings:
        level = "warning" if finding.severity == "warning" else "error"
        lines.append(
            f"::{level} "
            f"file={_github_escape_property(finding.path)},"
            f"line={finding.line},"
            f"col={finding.col + 1},"
            f"title={_github_escape_property(finding.rule_id)}"
            f"::{_github_escape_data(f'[{finding.symbol}] {finding.message}')}"
        )
    noun = "file" if result.files_scanned == 1 else "files"
    status = "clean" if result.ok else f"{len(result.findings)} finding(s)"
    lines.append(
        f"xailint: {result.files_scanned} {noun} scanned, {status}"
    )
    return "\n".join(lines)


def render_stats(result: LintResult) -> str:
    """The ``--stats`` table: cache effectiveness, per-pass time, and
    per-rule time next to each rule's yield — its unsuppressed findings
    and the findings its inline suppressions silenced."""
    stats = result.stats
    lines = [
        "scan statistics:",
        f"  files scanned     {stats.files_scanned}",
        f"  cache hits        {stats.cache_hits}",
        f"  cache misses      {stats.cache_misses}",
        f"  cache hit rate    {stats.hit_rate:.1%}",
        "  project rules     "
        + ("cached" if stats.project_from_cache else "executed"),
        f"  summary hits      {stats.summary_hits}",
        f"  summary misses    {stats.summary_misses}",
        f"  summary hit rate  {stats.summary_hit_rate:.1%}",
        f"  parse time        {stats.parse_seconds * 1e3:8.1f} ms",
        f"  total time        {stats.total_seconds * 1e3:8.1f} ms",
    ]
    if stats.pass_seconds:
        lines.append("  per-pass time (function summaries):")
        for pass_name, seconds in sorted(
            stats.pass_seconds.items(),
            key=lambda pair: pair[1],
            reverse=True,
        ):
            lines.append(
                f"    {pass_name:<10} {seconds * 1e3:8.1f} ms"
            )
    yields: dict[str, list[int]] = {}
    for column, findings in enumerate((result.findings, result.suppressed)):
        for finding in findings:
            yields.setdefault(finding.rule_id, [0, 0])[column] += 1
    rule_ids = set(stats.rule_seconds) | set(yields)
    if rule_ids:
        lines.append("  per-rule time and yield: findings  suppressed")
        for rule_id in sorted(
            rule_ids,
            key=lambda rid: (-stats.rule_seconds.get(rid, 0.0), rid),
        ):
            seconds = stats.rule_seconds.get(rule_id, 0.0)
            found, suppressed = yields.get(rule_id, (0, 0))
            lines.append(
                f"    {rule_id}    {seconds * 1e3:8.1f} ms"
                f"  {found:8d}  {suppressed:10d}"
            )
    return "\n".join(lines)
