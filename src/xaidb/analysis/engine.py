"""The xailint engine: file discovery, parsing, rule dispatch, caching.

The engine is deliberately dependency-free (stdlib ``ast`` +
``tokenize`` only) so it can gate CI in the same offline environment
the library itself targets.  Usage::

    from xaidb.analysis import run_paths

    result = run_paths(["src", "benchmarks"])
    assert result.ok, result.findings

Pipeline per scan:

1. discover ``.py`` files, read bytes, content-hash each;
2. per file, either serve the raw (pre-suppression) file-rule findings
   and parsed suppression entries from the incremental cache
   (``cache_path=``) or parse and run every
   :class:`~xaidb.analysis.registry.FileRule`;
3. run :class:`~xaidb.analysis.registry.ProjectRule` checks over the
   whole corpus (cached wholesale under a corpus digest — any file
   change invalidates them);
4. filter findings through inline suppressions, *recording which
   suppression entries fired*, then synthesise XDB012 findings for
   stale/dangling/reason-less suppressions.

Steps 1 and 4 always run fresh; that keeps cached and uncached scans
finding-for-finding identical while a warm run skips all parsing.
"""

from __future__ import annotations

import ast
import time
from pathlib import Path
from typing import Iterable, Sequence

from xaidb.analysis.cache import LintCache, file_digest, ruleset_digest
from xaidb.analysis.findings import Finding, LintResult
from xaidb.analysis.registry import (
    FileContext,
    FileRule,
    ProjectContext,
    ProjectRule,
    Rule,
    all_rules,
)
from xaidb.analysis.suppressions import (
    Suppression,
    SuppressionIndex,
    parse_suppressions,
)

__all__ = ["discover_files", "lint_source", "run_paths", "PARSE_ERROR_ID"]

#: Pseudo rule id for files the parser rejects; not suppressible.
PARSE_ERROR_ID = "XDB000"

#: Engine-synthesised suppression-audit rule (see rules/suppression_audit).
_AUDIT_RULE_ID = "XDB012"

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".venv", "node_modules"}


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand ``paths`` (files or directories) into a sorted list of
    ``.py`` files, skipping cache/VCS directories."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            found.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = set(candidate.parts)
                if parts & _SKIP_DIR_NAMES:
                    continue
                found.add(candidate)
    return sorted(found)


def _module_name(path: Path) -> tuple[str, bool]:
    """Best-effort dotted module name and whether it is inside ``xaidb``.

    Works from the path alone: everything after a ``src`` or site-root
    component is treated as package structure.
    """
    parts = list(path.with_suffix("").parts)
    for anchor in ("xaidb",):
        if anchor in parts:
            tail = parts[parts.index(anchor):]
            if tail[-1] == "__init__":
                tail = tail[:-1]
            return ".".join(tail), True
    name = parts[-1] if parts[-1] != "__init__" else (
        parts[-2] if len(parts) > 1 else ""
    )
    return name, False


def _relpath(path: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            return str(path)
    return str(path)


def _parse_context(
    path: Path, relpath: str, source: str
) -> FileContext | Finding:
    """Parse ``source``; return a context, or a parse-error finding."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule_id=PARSE_ERROR_ID,
            symbol="syntax-error",
            message=f"syntax error: {exc.msg}",
        )
    module_name, in_xaidb = _module_name(path)
    return FileContext(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        in_xaidb_package=in_xaidb,
        module_name=module_name,
    )


def lint_source(
    source: str,
    *,
    filename: str = "<string>",
    module_name: str = "",
    in_xaidb_package: bool = False,
    rule_ids: Sequence[str] | None = None,
) -> LintResult:
    """Lint a source string — the in-memory entry point used by tests.

    Project rules see a single-file corpus, so XDB008-style checks run
    against exactly the snippet provided.  Never cached.
    """
    result = LintResult(files_scanned=1)
    result.stats.files_scanned = 1
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        result.findings.append(
            Finding(
                path=filename,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule_id=PARSE_ERROR_ID,
                symbol="syntax-error",
                message=f"syntax error: {exc.msg}",
            )
        )
        return result
    ctx = FileContext(
        path=Path(filename),
        relpath=filename,
        source=source,
        tree=tree,
        in_xaidb_package=in_xaidb_package,
        module_name=module_name,
    )
    rules = all_rules(rule_ids)
    raw = _run_file_rules(
        [r for r in rules if isinstance(r, FileRule)], ctx, result
    )
    raw += _run_project_rules(
        [r for r in rules if isinstance(r, ProjectRule)], [ctx], result
    )
    indexes = {ctx.relpath: parse_suppressions(ctx.source)}
    _filter_and_audit(raw, indexes, rules, result)
    return result


def run_paths(
    paths: Iterable[str | Path],
    *,
    root: str | Path | None = None,
    rule_ids: Sequence[str] | None = None,
    cache_path: str | Path | None = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths`` and return the result.

    Parameters
    ----------
    paths:
        Files or directories to scan.
    root:
        Optional base directory findings are reported relative to.
    rule_ids:
        Optional subset of rule ids to run (default: all registered).
    cache_path:
        Optional location of the incremental result cache
        (``.xailint_cache.json``); ``None`` disables caching.
    """
    started = time.perf_counter()
    root_path = Path(root) if root is not None else None
    result = LintResult()
    rules = all_rules(rule_ids)
    file_rules = [r for r in rules if isinstance(r, FileRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    cache: LintCache | None = None
    if cache_path is not None:
        cache = LintCache(
            Path(cache_path), ruleset_digest([r.rule_id for r in rules])
        )

    raw: list[Finding] = []
    indexes: dict[str, SuppressionIndex] = {}
    digests: list[tuple[str, str]] = []
    #: relpath -> (path, source) for files that still need parsing
    #: should the project rules miss the cache
    pending_parse: dict[str, tuple[Path, str]] = {}
    contexts: list[FileContext] = []

    for path in discover_files(paths):
        relpath = _relpath(path, root_path)
        result.files_scanned += 1
        try:
            data = path.read_bytes()
        except OSError as exc:
            raw.append(
                Finding(
                    path=relpath,
                    line=1,
                    col=0,
                    rule_id=PARSE_ERROR_ID,
                    symbol="unreadable-file",
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        digest = file_digest(data)
        digests.append((relpath, digest))
        try:
            source = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raw.append(
                Finding(
                    path=relpath,
                    line=1,
                    col=0,
                    rule_id=PARSE_ERROR_ID,
                    symbol="unreadable-file",
                    message=f"cannot read file: {exc}",
                )
            )
            continue

        if cache is not None:
            cached = cache.lookup_file(relpath, digest)
            if cached is not None:
                file_findings, entries = cached
                raw.extend(file_findings)
                indexes[relpath] = SuppressionIndex(entries)
                pending_parse[relpath] = (path, source)
                result.stats.cache_hits += 1
                continue
            result.stats.cache_misses += 1

        parse_started = time.perf_counter()
        built = _parse_context(path, relpath, source)
        index = parse_suppressions(source)
        result.stats.parse_seconds += time.perf_counter() - parse_started
        indexes[relpath] = index
        if isinstance(built, Finding):
            raw.append(built)
            if cache is not None:
                cache.store_file(relpath, digest, [built], index.entries)
            continue
        contexts.append(built)
        file_findings = _run_file_rules(file_rules, built, result)
        raw.extend(file_findings)
        if cache is not None:
            cache.store_file(
                relpath, digest, file_findings, index.entries
            )

    # cross-module rules: cached wholesale under the corpus digest
    if project_rules:
        corpus = cache.corpus_digest(digests) if cache is not None else ""
        project_findings = (
            cache.lookup_project(corpus) if cache is not None else None
        )
        if project_findings is not None:
            result.stats.project_from_cache = True
        else:
            parse_started = time.perf_counter()
            for relpath, (path, source) in pending_parse.items():
                built = _parse_context(path, relpath, source)
                if isinstance(built, FileContext):
                    contexts.append(built)
            result.stats.parse_seconds += (
                time.perf_counter() - parse_started
            )
            # deterministic corpus order regardless of which files came
            # from cache — call-graph candidate ordering (and the SCC
            # cache keys derived from it) must not depend on cache state
            contexts.sort(key=lambda ctx: ctx.relpath)
            project_findings = _run_project_rules(
                project_rules,
                contexts,
                result,
                file_digests=dict(digests),
                cache=cache,
            )
            if cache is not None:
                cache.store_project(corpus, project_findings)
        raw.extend(project_findings)

    if cache is not None:
        cache.prune({relpath for relpath, _digest in digests})
        cache.save()

    _filter_and_audit(raw, indexes, rules, result)
    result.stats.files_scanned = result.files_scanned
    result.stats.total_seconds = time.perf_counter() - started
    return result


def _run_file_rules(
    file_rules: list[FileRule], ctx: FileContext, result: LintResult
) -> list[Finding]:
    findings: list[Finding] = []
    for rule in file_rules:
        rule_started = time.perf_counter()
        findings.extend(rule.check_file(ctx))
        result.stats.rule_seconds[rule.rule_id] = (
            result.stats.rule_seconds.get(rule.rule_id, 0.0)
            + time.perf_counter()
            - rule_started
        )
    return findings


def _run_project_rules(
    project_rules: list[ProjectRule],
    contexts: list[FileContext],
    result: LintResult,
    *,
    file_digests: dict[str, str] | None = None,
    cache: LintCache | None = None,
) -> list[Finding]:
    if not project_rules:
        return []
    findings: list[Finding] = []
    project = ProjectContext(
        files=contexts,
        file_digests=file_digests or {},
        summary_cache=cache,
    )
    for rule in project_rules:
        rule_started = time.perf_counter()
        findings.extend(rule.check_project(project))
        result.stats.rule_seconds[rule.rule_id] = (
            result.stats.rule_seconds.get(rule.rule_id, 0.0)
            + time.perf_counter()
            - rule_started
        )
    interproc = project.interproc_if_built()
    if interproc is not None:
        result.stats.summary_hits += interproc.hits
        result.stats.summary_misses += interproc.misses
        for pass_name, seconds in interproc.pass_seconds.items():
            result.stats.pass_seconds[pass_name] = (
                result.stats.pass_seconds.get(pass_name, 0.0) + seconds
            )
        if cache is not None:
            cache.prune_summaries(interproc.used_keys)
    return findings


def _filter_and_audit(
    raw: list[Finding],
    indexes: dict[str, SuppressionIndex],
    rules: list[Rule],
    result: LintResult,
) -> None:
    """Apply inline suppressions (with usage accounting), then run the
    XDB012 suppression audit over what actually fired."""
    for finding in raw:
        index = indexes.get(finding.path)
        entry = (
            index.match(finding.line, finding.rule_id)
            if index is not None
            else None
        )
        if entry is not None and finding.rule_id != PARSE_ERROR_ID:
            entry.fired.add(finding.rule_id)
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)

    audit_rule = next(
        (r for r in rules if r.rule_id == _AUDIT_RULE_ID), None
    )
    if audit_rule is not None:
        ran_rule_ids = {r.rule_id for r in rules}
        for relpath, index in indexes.items():
            result.findings.extend(
                _audit_file_suppressions(
                    audit_rule, relpath, index, ran_rule_ids
                )
            )

    result.findings.sort(key=Finding.sort_key)
    result.suppressed.sort(key=Finding.sort_key)


def _audit_file_suppressions(
    rule: Rule,
    relpath: str,
    index: SuppressionIndex,
    ran_rule_ids: set[str],
) -> list[Finding]:
    """XDB012: stale, dangling or reason-less suppression comments.

    These findings are synthesised *after* suppression filtering and
    are deliberately not themselves suppressible — a suppression
    cannot vouch for its own hygiene.  "Unused" is only reported for
    ids in the active rule set, so ``--rules`` subsets stay quiet.
    """
    findings: list[Finding] = []

    def emit(entry: Suppression, message: str) -> None:
        findings.append(
            Finding(
                path=relpath,
                line=entry.comment_line,
                col=0,
                rule_id=rule.rule_id,
                symbol=rule.symbol,
                message=message,
                severity=rule.severity,
            )
        )

    for entry in index.entries:
        ids = ", ".join(sorted(entry.rule_ids))
        if entry.reason is None:
            emit(
                entry,
                f"suppression of {ids} has no parenthesised reason; "
                f"the repo convention is "
                f"'# xailint: disable={ids.split(', ')[0]} (why)'",
            )
        if entry.target_line is None:
            emit(
                entry,
                f"standalone suppression of {ids} is not followed by "
                f"any code line; it suppresses nothing — remove it",
            )
            continue
        stale = [
            rule_id
            for rule_id in entry.unused_ids()
            if rule_id in ran_rule_ids and rule_id != rule.rule_id
        ]
        for rule_id in stale:
            emit(
                entry,
                f"suppression of {rule_id} never matched a finding on "
                f"line {entry.target_line}; the violation is gone — "
                f"remove the stale comment",
            )
    return findings
