"""Tier-1 gate: the repository itself must be xailint-clean.

This is the machine-checked version of the DESIGN contract — every
scientific-correctness invariant (every registered XDB rule, see
docs/LINTING.md) holds over ``src``, ``benchmarks``, ``examples`` and ``tools``.  A new
violation either gets fixed or gets an inline
``# xailint: disable=XDB00N (reason)`` suppression that a reviewer can
audit; weakening a rule is not an option.
"""

from __future__ import annotations

from pathlib import Path

from xaidb.analysis import run_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SCAN_DIRS = ("src", "benchmarks", "examples", "tools")


def test_repository_is_lint_clean():
    paths = [REPO_ROOT / d for d in SCAN_DIRS if (REPO_ROOT / d).is_dir()]
    assert paths, "repo layout changed: no scan directories found"
    result = run_paths(paths, root=REPO_ROOT)
    assert result.files_scanned > 100, "scan unexpectedly small"
    report = "\n".join(
        f"{f.path}:{f.line}:{f.col}: {f.rule_id} {f.message}"
        for f in result.findings
    )
    assert result.ok and not result.findings, f"xailint findings:\n{report}"


def test_every_suppression_carries_a_reason():
    """Repo convention: `# xailint: disable=XDB00N (reason)` — the
    parenthesised reason is mandatory in committed code.  Uses the
    engine's own tokenize-based parser (a raw line regex would trip on
    prose mentions of the syntax inside docstrings); XDB012 enforces
    the same convention at lint time."""
    from xaidb.analysis import parse_suppressions

    bare = []
    for directory in SCAN_DIRS:
        base = REPO_ROOT / directory
        if not base.is_dir():
            continue
        for path in base.rglob("*.py"):
            index = parse_suppressions(path.read_text())
            for entry in index.entries:
                if entry.reason is None:
                    bare.append(f"{path}:{entry.comment_line}")
    assert not bare, f"suppressions without a reason: {bare}"
