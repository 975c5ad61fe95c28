"""Command-line entry point for xailint.

Invocations (all equivalent)::

    python -m xaidb.analysis src benchmarks examples tools
    xailint src benchmarks examples tools      # console script
    python tools/xailint.py                    # repo wrapper

With no paths, the repo-standard scan set (``src``, ``benchmarks``,
``examples``, ``tools``) is used, filtered to directories that exist
under the current working directory.  Exit status: 0 clean, 1 findings,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from xaidb.analysis.baseline import (
    DEFAULT_BASELINE_FILE,
    BaselineError,
    apply_baseline,
    load_baseline,
)
from xaidb.analysis.engine import run_paths
from xaidb.analysis.explain import render_explanation
from xaidb.analysis.fixes import apply_fixes
from xaidb.analysis.registry import all_rules
from xaidb.analysis.reporters import (
    render_github,
    render_json,
    render_sarif,
    render_stats,
    render_text,
)

__all__ = ["main", "build_parser", "DEFAULT_SCAN_PATHS", "DEFAULT_CACHE_FILE"]

DEFAULT_SCAN_PATHS = ("src", "benchmarks", "examples", "tools")

#: Incremental result cache, relative to the working directory.
DEFAULT_CACHE_FILE = ".xailint_cache.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xailint",
        description=(
            "Static analysis enforcing xaidb's scientific-correctness "
            "invariants (rule ids XDB001-XDB032; see docs/LINTING.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to scan (default: the repo-standard "
            "set: " + ", ".join(DEFAULT_SCAN_PATHS) + ")"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif", "github"),
        default="text",
        help=(
            "report format (default: text; sarif for code scanning, "
            "github for workflow ::warning:: annotations)"
        ),
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated subset of rule ids to run, e.g. XDB001,XDB004",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the incremental result cache (full cold scan)",
    )
    parser.add_argument(
        "--cache-file",
        default=DEFAULT_CACHE_FILE,
        help=f"incremental cache location (default: {DEFAULT_CACHE_FILE})",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print cache effectiveness and per-rule timing to stderr "
            "after the report"
        ),
    )
    parser.add_argument(
        "--baseline",
        nargs="?",
        const=DEFAULT_BASELINE_FILE,
        default=None,
        metavar="FILE",
        help=(
            "report and gate only on findings not present in the SARIF "
            f"baseline (default file: {DEFAULT_BASELINE_FILE})"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        nargs="?",
        const=DEFAULT_BASELINE_FILE,
        default=None,
        metavar="FILE",
        help=(
            "snapshot the current findings as the SARIF baseline and "
            f"exit 0 (default file: {DEFAULT_BASELINE_FILE})"
        ),
    )
    parser.add_argument(
        "--explain",
        metavar="XDB0NN",
        default=None,
        help=(
            "print one rule's rationale from docs/LINTING.md plus "
            "minimal dirty/clean examples, and exit"
        ),
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help=(
            "apply mechanical fixes for the rules that have one "
            "(XDB012: stale/dangling suppressions are removed, "
            "reason-less ones gain a '(reason: TODO)' placeholder) "
            "and exit"
        ),
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help=(
            "with --fix: print the unified diff of the planned fixes "
            "without writing any file"
        ),
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.symbol}")
            print(f"    {rule.description}")
        return 0

    if args.explain is not None:
        try:
            print(render_explanation(args.explain.strip().upper()))
        except KeyError as exc:
            parser.error(str(exc.args[0]))
        return 0

    paths = list(args.paths)
    if not paths:
        paths = [p for p in DEFAULT_SCAN_PATHS if Path(p).is_dir()]
        if not paths:
            parser.error(
                "no paths given and none of the default scan "
                "directories exist here"
            )
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        # a typo'd path must not let the gate pass vacuously
        parser.error("no such file or directory: " + ", ".join(missing))

    if args.dry_run and not args.fix:
        parser.error("--dry-run only makes sense with --fix")

    rule_ids = None
    if args.rules:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]
    cache_path = None if args.no_cache else args.cache_file
    try:
        result = run_paths(
            paths,
            root=Path.cwd(),
            rule_ids=rule_ids,
            cache_path=cache_path,
        )
    except ValueError as exc:  # unknown rule id
        parser.error(str(exc))

    if args.fix:
        report = apply_fixes(
            result.findings, root=Path.cwd(), dry_run=args.dry_run
        )
        if args.dry_run:
            if report.diff:
                print(report.diff, end="")
            print(
                f"xailint: --fix would remove {report.n_removed} and "
                f"rewrite {report.n_rewritten} suppression comment(s) "
                f"in {report.n_files} file(s)"
            )
        else:
            print(
                f"xailint: removed {report.n_removed} and rewrote "
                f"{report.n_rewritten} suppression comment(s) in "
                f"{report.n_files} file(s)"
            )
        return 0

    if args.write_baseline is not None:
        Path(args.write_baseline).write_text(
            render_sarif(result) + "\n", encoding="utf-8"
        )
        print(
            f"xailint: baseline of {len(result.findings)} finding(s) "
            f"written to {args.write_baseline}"
        )
        return 0

    matched = 0
    if args.baseline is not None:
        try:
            result, matched = apply_baseline(
                result, load_baseline(args.baseline)
            )
        except BaselineError as exc:
            parser.error(str(exc))

    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    elif args.format == "github":
        print(render_github(result))
    else:
        print(render_text(result))
        if args.baseline is not None:
            print(
                f"xailint: baseline {args.baseline}: {matched} "
                f"finding(s) matched, "
                f"{len(result.findings)} new"
            )
    if args.stats:
        print(render_stats(result), file=sys.stderr)
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
