"""A9 (ablation) — interprocedural summary-cache scaling (docs/LINTING.md).

Reproduced shape: the interprocedural tiers (XDB016-XDB017 and the
numeric XDB023-XDB027) add a project-wide call graph plus bottom-up
function summaries — three fixpoint analyses per function (alias, seed,
interval) over the whole corpus — which would make
every warm scan pay the cold price the moment one file changes (the
corpus digest shields only the *unchanged* case).  The per-SCC Merkle
cache must confine that cost to the SCCs reachable from the edit:

1. *summary hit rate*: after touching one file, >= 80 % of the call
   graph's SCCs serve their summaries from ``.xailint_cache.json``
   (here: all but the touched file's own SCCs);
2. *speedup*: the touched-file warm scan is >= 3x faster than the cold
   scan, and the fully-unchanged warm scan is served wholesale from the
   corpus digest without rebuilding the analysis at all;
3. *soundness*: the warm scan is finding-for-finding identical to a
   cache-bypassed scan of the same corpus — summaries can never change
   a verdict, only its cost.

The corpus is a copy of the repo's own scan set so the benchmark can
touch a file without dirtying the working tree.
"""

import shutil
import time

from pathlib import Path

from benchmarks._tables import print_table
from xaidb.analysis import run_paths

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The repo-standard scan set (mirrors tools/xailint.py defaults).
SCAN_NAMES = ("src", "benchmarks", "examples", "tools")

#: The file the warm scenario edits: a leaf module (nothing in the
#: corpus calls into it), so only its own SCCs should recompute.
TOUCHED = Path("tools") / "check.py"


def _fingerprint(result):
    return [
        (f.path, f.line, f.col, f.rule_id, f.message)
        for f in result.findings + result.suppressed
    ]


def _copy_corpus(destination: Path) -> list[Path]:
    paths = []
    for name in SCAN_NAMES:
        source = REPO_ROOT / name
        if not source.is_dir():
            continue
        shutil.copytree(
            source,
            destination / name,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        paths.append(destination / name)
    return paths


def _timed_scan(paths, root, cache_path):
    started = time.perf_counter()
    result = run_paths(paths, root=root, cache_path=cache_path)
    return result, time.perf_counter() - started


def compute_rows(corpus_root: Path):
    paths = _copy_corpus(corpus_root)
    cache_path = corpus_root / ".xailint_cache.json"

    cold, cold_seconds = _timed_scan(paths, corpus_root, cache_path)
    unchanged, unchanged_seconds = _timed_scan(
        paths, corpus_root, cache_path
    )
    touched = corpus_root / TOUCHED
    touched.write_text(
        touched.read_text(encoding="utf-8") + "\n# a9 touch\n",
        encoding="utf-8",
    )
    warm, warm_seconds = _timed_scan(paths, corpus_root, cache_path)
    uncached, _ = _timed_scan(paths, corpus_root, None)
    speedup = cold_seconds / warm_seconds

    total_sccs = warm.stats.summary_hits + warm.stats.summary_misses
    rows = [
        (
            "cold (empty cache)",
            cold.stats.summary_misses,
            "0%",
            f"{cold_seconds * 1e3:.1f}",
            "1.0x",
        ),
        (
            "warm (unchanged)",
            0,
            "- (corpus digest)",
            f"{unchanged_seconds * 1e3:.1f}",
            f"{cold_seconds / unchanged_seconds:.0f}x",
        ),
        (
            f"warm ({TOUCHED} touched)",
            warm.stats.summary_misses,
            f"{warm.stats.summary_hit_rate:.1%}",
            f"{warm_seconds * 1e3:.1f}",
            f"{speedup:.1f}x",
        ),
    ]
    context = {
        "cold": cold,
        "unchanged": unchanged,
        "warm": warm,
        "uncached": uncached,
        "speedup": speedup,
        "total_sccs": total_sccs,
    }
    return rows, context


def test_a09_interproc_scaling(benchmark, tmp_path):
    rows, context = benchmark.pedantic(
        compute_rows,
        args=(tmp_path / "corpus",),
        rounds=1,
        iterations=1,
    )
    print_table(
        "A9 (ablation): interprocedural summary caching — cold vs warm "
        "scan with one file touched (per-SCC Merkle cache)",
        ["scan", "sccs recomputed", "summary hit rate", "wall ms",
         "speedup"],
        rows,
    )
    cold, warm = context["cold"], context["warm"]
    unchanged = context["unchanged"]
    # an unchanged corpus never rebuilds the analysis at all
    assert unchanged.stats.project_from_cache
    assert unchanged.stats.summary_misses == 0
    # one touched leaf file: only its own SCCs recompute
    assert warm.stats.summary_hit_rate >= 0.8
    assert 0 < warm.stats.summary_misses < context["total_sccs"]
    # the warm latency target the tier was designed against
    assert context["speedup"] >= 3.0
    # soundness: summaries can never change a verdict
    assert _fingerprint(unchanged) == _fingerprint(cold)
    assert _fingerprint(warm) == _fingerprint(context["uncached"])
    # the gate this benchmark models is currently green
    assert cold.ok, [f.message for f in cold.findings]
