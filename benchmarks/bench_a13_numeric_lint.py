"""A13 (ablation) — cold vs warm numeric-lint scan over the Merkle cache.

The interval pass (the XDB023-XDB027 substrate) is the most expensive
function-summary pass, and it is exactly the work the incremental cache
exists to skip: function summaries — ``return_ranges`` and
``param_preconditions`` included — are keyed by the Merkle hash of each
call-graph SCC, so an untouched repo must re-lint for free.  This bench
measures that, and pins the contract that makes it safe:

1. *identity*: the warm (summary-cached) scan is finding-for-finding
   identical to the cold scan, suppressions included — a cache that
   changes verdicts is worse than no cache;
2. *the cache actually engaged*: every file and every SCC summary is
   served from cache on the warm scan, and the cold scan really ran the
   interval pass (its per-pass timer advanced);
3. *the cache actually pays*: the warm scan is at least 2x faster.

The full run merges its record into ``benchmarks/BENCH_lint.json``
under the ``"a13_numeric"`` key.  ``XAIDB_A13_SMOKE=1`` shrinks the scan to the linter's own
sources and skips the artifact write — that is what ``tools/check.py``
runs.
"""

import json
import os
import tempfile
import time

from pathlib import Path

from benchmarks._tables import print_table
from xaidb.analysis import run_paths

REPO_ROOT = Path(__file__).resolve().parents[1]

_SMOKE = os.environ.get("XAIDB_A13_SMOKE") == "1"

#: Full runs cover the repo-standard scan set; the smoke covers the
#: linter linting itself (the densest interval-pass workload per file).
if _SMOKE:
    SCAN_PATHS = [REPO_ROOT / "src" / "xaidb" / "analysis"]
else:
    SCAN_PATHS = [
        REPO_ROOT / name
        for name in ("src", "benchmarks", "examples", "tools")
        if (REPO_ROOT / name).is_dir()
    ]


def _fingerprint(result):
    return [
        (f.path, f.line, f.col, f.rule_id, f.message)
        for f in result.findings + result.suppressed
    ]


def _timed_scan(cache_path):
    started = time.perf_counter()
    result = run_paths(SCAN_PATHS, root=REPO_ROOT, cache_path=cache_path)
    return result, time.perf_counter() - started


def compute_rows():
    with tempfile.TemporaryDirectory(prefix="xailint-a13-") as tmp:
        cache_path = Path(tmp) / "cache.json"
        cold, cold_seconds = _timed_scan(cache_path)
        warm, warm_seconds = _timed_scan(cache_path)
    speedup = cold_seconds / warm_seconds
    interval_ms = cold.stats.pass_seconds.get("interval", 0.0) * 1e3
    rows = [
        (
            "cold",
            cold.stats.files_scanned,
            cold.stats.cache_hits,
            f"{cold_seconds * 1e3:.1f}",
            "1.0x",
        ),
        (
            "warm",
            warm.stats.files_scanned,
            warm.stats.cache_hits,
            f"{warm_seconds * 1e3:.1f}",
            f"{speedup:.2f}x",
        ),
    ]
    record = {
        "files_scanned": cold.stats.files_scanned,
        "cold_s": cold_seconds,
        "warm_s": warm_seconds,
        "speedup": speedup,
        "interval_pass_ms": interval_ms,
        "warm_cache_hits": warm.stats.cache_hits,
        "warm_summary_misses": warm.stats.summary_misses,
        "identical": _fingerprint(cold) == _fingerprint(warm),
    }
    context = {"cold": cold, "warm": warm, "record": record}
    if not _SMOKE:
        out_path = Path(__file__).resolve().parent / "BENCH_lint.json"
        merged = {}
        if out_path.exists():
            merged = json.loads(out_path.read_text())
        merged["a13_numeric"] = record
        out_path.write_text(json.dumps(merged, indent=2) + "\n")
    return rows, context


def test_a13_numeric_lint(benchmark):
    rows, context = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    record = context["record"]
    print_table(
        "A13 (ablation): numeric-lint scan, cold vs summary-cached warm"
        + (" [smoke]" if _SMOKE else ""),
        ["scan", "files", "cache hits", "wall ms", "speedup"],
        rows,
    )
    cold, warm = context["cold"], context["warm"]
    # identity: caching must be invisible in the verdicts
    assert record["identical"], "warm scan diverged from cold"
    # the cold scan really exercised the interval pass...
    assert cold.stats.summary_misses >= 1
    assert record["interval_pass_ms"] > 0.0
    # ...and the warm scan really skipped it: every file and every SCC
    # summary came from the cache
    assert warm.stats.cache_hits == warm.stats.files_scanned
    assert warm.stats.cache_misses == 0
    assert warm.stats.summary_misses == 0
    assert warm.stats.project_from_cache
    # skipping the interval pass must be worth something
    assert record["speedup"] >= 2.0, record
    # the gate this bench models is currently green
    assert cold.ok, [f.message for f in cold.findings]
