"""Commit-speed incremental scanning: the xailint result cache.

A full repo scan parses ~230 files and runs several fixpoint analyses
per function; on a pre-commit hook that cost lands on every keystroke-
to-commit cycle.  Almost all of it is redundant — file rules are pure
functions of one file's bytes and the rule set — so the cache persists,
per file, the raw (pre-suppression) findings and the parsed
suppression entries, keyed by:

- the SHA-256 of the file's bytes (content, not mtime: builds and
  checkouts must not fake invalidation either way), and
- a *rule-set digest* covering the active rule ids **and the source of
  the analysis package itself**, so editing any rule, the engine, or
  this file invalidates everything — a linter must never serve stale
  verdicts of an older self.

Cross-module (project) rules see the whole corpus, so their findings
are cached under a corpus digest (every file's path + digest) and
invalidated wholesale by any file change, as are all rules' results on
a rule-set change.  Suppression filtering and the XDB012 accounting
run fresh on every scan from the cached entries — cheap, and it keeps
cached and uncached runs finding-for-finding identical.

The on-disk format is one JSON document (``.xailint_cache.json`` by
default, CLI flag ``--no-cache`` to bypass); an unreadable or
version-skewed cache is discarded, never trusted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from xaidb.analysis.findings import Finding
from xaidb.analysis.suppressions import Suppression

__all__ = ["LintCache", "ruleset_digest", "file_digest", "CACHE_VERSION"]

#: Bumped whenever the cached document schema changes shape — v3 added
#: numeric summary fields (``return_ranges``/``param_preconditions``),
#: v4 added the typestate (pass F) and may-raise (pass G) fields
#: (``typestate_*``/``raises_named``/``raises_top``), v5 dropped them
#: with ``return_shapes`` and ``effects``.
CACHE_VERSION = 5


def file_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ruleset_digest(rule_ids: list[str]) -> str:
    """Digest of the active rule ids plus the analysis package source.

    Hashing the package's own files means any change to a rule, the
    engine, the dataflow layer or the cache logic invalidates every
    cached verdict — content-addressed, so a mere ``touch`` does not.
    """
    hasher = hashlib.sha256()
    hasher.update(",".join(sorted(rule_ids)).encode())
    package_dir = Path(__file__).resolve().parent
    for path in sorted(package_dir.rglob("*.py")):
        hasher.update(str(path.relative_to(package_dir)).encode())
        try:
            hasher.update(path.read_bytes())
        except OSError:  # unreadable rule source: treat as changed
            hasher.update(b"?")
    return hasher.hexdigest()


def _finding_to_json(finding: Finding) -> dict:
    return asdict(finding)


def _finding_from_json(data: dict) -> Finding:
    return Finding(
        path=data["path"],
        line=int(data["line"]),
        col=int(data["col"]),
        rule_id=data["rule_id"],
        symbol=data["symbol"],
        message=data["message"],
        severity=data.get("severity", "error"),
    )


class LintCache:
    """Content-hash-keyed store of per-file and project-rule results."""

    def __init__(self, path: Path, active_ruleset: str) -> None:
        self.path = Path(path)
        self.ruleset = active_ruleset
        self.hits = 0
        self.misses = 0
        self._files: dict[str, dict] = {}
        self._project: dict | None = None
        self._summaries: dict[str, list] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(document, dict):
            return
        if document.get("version") != CACHE_VERSION:
            return
        if document.get("ruleset") != self.ruleset:
            # rule set or analysis source changed: wholesale invalidation
            self._dirty = True
            return
        files = document.get("files")
        if isinstance(files, dict):
            self._files = files
        project = document.get("project")
        if isinstance(project, dict):
            self._project = project
        summaries = document.get("summaries")
        if isinstance(summaries, dict):
            self._summaries = {
                key: value
                for key, value in summaries.items()
                if isinstance(value, list)
            }

    # -- per-file results --------------------------------------------

    def lookup_file(
        self, relpath: str, digest: str
    ) -> tuple[list[Finding], list[Suppression]] | None:
        """Cached (raw file-rule findings, suppression entries) for
        ``relpath`` at ``digest``, or ``None`` on a miss."""
        entry = self._files.get(relpath)
        if entry is None or entry.get("digest") != digest:
            self.misses += 1
            return None
        try:
            findings = [
                _finding_from_json(f) for f in entry["findings"]
            ]
            suppressions = [
                Suppression.from_dict(s) for s in entry["suppressions"]
            ]
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return findings, suppressions

    def store_file(
        self,
        relpath: str,
        digest: str,
        findings: list[Finding],
        suppressions: list[Suppression],
    ) -> None:
        self._files[relpath] = {
            "digest": digest,
            "findings": [_finding_to_json(f) for f in findings],
            "suppressions": [s.to_dict() for s in suppressions],
        }
        self._dirty = True

    def prune(self, keep_relpaths: set[str]) -> None:
        """Drop entries for files no longer in the scan set."""
        stale = set(self._files) - keep_relpaths
        for relpath in stale:
            del self._files[relpath]
            self._dirty = True

    # -- project-rule results ----------------------------------------

    def corpus_digest(self, files: list[tuple[str, str]]) -> str:
        """Digest of the whole corpus: any file change invalidates the
        cross-module results wholesale."""
        hasher = hashlib.sha256()
        for relpath, digest in sorted(files):
            hasher.update(relpath.encode())
            hasher.update(digest.encode())
        return hasher.hexdigest()

    def lookup_project(self, corpus: str) -> list[Finding] | None:
        if self._project is None or self._project.get("corpus") != corpus:
            return None
        try:
            return [
                _finding_from_json(f) for f in self._project["findings"]
            ]
        except (KeyError, TypeError, ValueError):
            return None

    def store_project(
        self, corpus: str, findings: list[Finding]
    ) -> None:
        self._project = {
            "corpus": corpus,
            "findings": [_finding_to_json(f) for f in findings],
        }
        self._dirty = True

    # -- interprocedural function summaries --------------------------

    def lookup_summaries(self, scc_key: str) -> list[dict] | None:
        """Cached summary dicts for the SCC with Merkle key
        ``scc_key``, or ``None`` (callers validate the payload)."""
        entry = self._summaries.get(scc_key)
        if entry is None or not all(
            isinstance(item, dict) for item in entry
        ):
            return None
        return entry

    def store_summaries(
        self, scc_key: str, summaries: list[dict]
    ) -> None:
        self._summaries[scc_key] = summaries
        self._dirty = True

    def prune_summaries(self, keep_keys: set[str]) -> None:
        """Drop summary entries whose SCC key was not used this run
        (stale content-addressed entries otherwise accumulate across
        edits forever)."""
        stale = set(self._summaries) - keep_keys
        for key in stale:
            del self._summaries[key]
            self._dirty = True

    # -- persistence -------------------------------------------------

    def save(self) -> None:
        if not self._dirty:
            return
        document = {
            "version": CACHE_VERSION,
            "ruleset": self.ruleset,
            "files": self._files,
            "project": self._project,
            "summaries": self._summaries,
        }
        try:
            self.path.write_text(
                json.dumps(document, sort_keys=True), encoding="utf-8"
            )
        except OSError:
            return  # a read-only checkout still lints, just cold
        self._dirty = False
