"""Finding and result containers for the xailint static-analysis pass.

A :class:`Finding` is one rule violation anchored to a file position; a
:class:`LintResult` is the outcome of a whole run (findings that survived
suppression filtering, plus bookkeeping for the reporters).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Finding", "LintResult", "ScanStats", "SEVERITIES"]

SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location.

    Attributes
    ----------
    path:
        Path of the offending file, relative to the lint root when
        possible (stable across machines, so reporters can be diffed).
    line, col:
        1-based line and 0-based column of the offending node.
    rule_id:
        Stable identifier, e.g. ``"XDB002"``.
    symbol:
        Human-readable kebab-case name, e.g. ``"unseeded-randomness"``.
    message:
        Specific description of this occurrence.
    severity:
        ``"error"`` (gates CI) or ``"warning"``.
    """

    path: str
    line: int
    col: int
    rule_id: str
    symbol: str
    message: str
    severity: str = "error"

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)


@dataclass
class ScanStats:
    """Bookkeeping for one scan: cache effectiveness and where the
    time went (the ``--stats`` CLI flag renders this)."""

    files_scanned: int = 0
    #: Files whose results were served from the incremental cache.
    cache_hits: int = 0
    #: Files that had to be parsed and linted from scratch.
    cache_misses: int = 0
    #: Whether the cross-module (project) rule results were cached.
    project_from_cache: bool = False
    #: Call-graph SCCs whose function summaries came from the cache
    #: (zero/zero when no interprocedural rule ran or the project
    #: results themselves were cached wholesale).
    summary_hits: int = 0
    #: SCCs whose summaries had to be recomputed bottom-up.
    summary_misses: int = 0
    parse_seconds: float = 0.0
    #: Wall time spent inside each rule, across all files.
    rule_seconds: dict[str, float] = field(default_factory=dict)
    #: Wall time per function-summary pass (alias/seed/interval) across
    #: every SCC that had to be recomputed.
    pass_seconds: dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def summary_hit_rate(self) -> float:
        total = self.summary_hits + self.summary_misses
        return self.summary_hits / total if total else 0.0


@dataclass
class LintResult:
    """Aggregate outcome of linting a set of paths."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: list[Finding] = field(default_factory=list)
    stats: ScanStats = field(default_factory=ScanStats)

    @property
    def ok(self) -> bool:
        """True when no unsuppressed error-severity findings remain."""
        return not any(f.severity == "error" for f in self.findings)

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))
