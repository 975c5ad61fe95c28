"""The interprocedural summary cache: warm scans recompute only the
SCCs reachable from an edit and stay finding-for-finding identical to
cold scans (the guarantee docs/LINTING.md "Summary caching" states;
bench A9 measures the speedup on the real repo)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from xaidb.analysis import run_paths

FIXTURES = Path(__file__).parent / "fixtures"


def _fingerprint(result):
    return [
        (f.path, f.line, f.col, f.rule_id, f.message)
        for f in result.findings
    ]


@pytest.fixture()
def project(tmp_path):
    """A corpus under ``src/xaidb/`` (the path anchor the engine keys
    ``in_xaidb_package`` on) with known interprocedural findings."""
    pkg = tmp_path / "src" / "xaidb"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text('"""Cache-test corpus."""\n')
    for target, fixture in (
        ("rng.py", "xdb016_dirty.py"),
        ("mutation.py", "xdb017_dirty.py"),
        ("scaling.py", "xdb023_clean.py"),
    ):
        (pkg / target).write_text(
            (FIXTURES / fixture).read_text(encoding="utf-8")
        )
    return tmp_path


def _scan(project, cached=True):
    cache_path = project / ".xailint_cache.json" if cached else None
    return run_paths(
        [project / "src"], root=project, cache_path=cache_path
    )


def test_cold_scan_computes_summaries_and_finds_the_planted_bugs(project):
    cold = _scan(project)
    assert cold.stats.summary_misses > 0
    assert cold.stats.summary_hits == 0
    counts = cold.counts_by_rule()
    assert counts["XDB016"] == 2
    assert counts["XDB017"] == 2


def test_untouched_corpus_serves_project_results_wholesale(project):
    cold = _scan(project)
    warm = _scan(project)
    # nothing changed: the project-rule layer short-circuits above the
    # summary cache entirely
    assert warm.stats.project_from_cache
    assert warm.stats.summary_misses == 0
    assert _fingerprint(warm) == _fingerprint(cold)


def test_touching_one_file_recomputes_only_reachable_sccs(project):
    cold = _scan(project)
    total_sccs = cold.stats.summary_misses
    scaling = project / "src" / "xaidb" / "scaling.py"
    scaling.write_text(scaling.read_text() + "\n# touched\n")
    warm = _scan(project)
    assert not warm.stats.project_from_cache  # corpus digest changed
    # same condensation, mostly served from cache: only scaling.py's
    # SCCs (nothing else calls into it) recompute
    assert warm.stats.summary_hits + warm.stats.summary_misses == total_sccs
    assert warm.stats.summary_hits > 0
    assert 0 < warm.stats.summary_misses < total_sccs
    assert _fingerprint(warm) == _fingerprint(cold)


def test_warm_scan_is_finding_identical_to_an_uncached_scan(project):
    _scan(project)  # populate
    scaling = project / "src" / "xaidb" / "scaling.py"
    scaling.write_text(scaling.read_text() + "\n# touched\n")
    warm = _scan(project)
    assert warm.stats.summary_hits > 0  # summaries actually reused
    uncached = _scan(project, cached=False)
    assert _fingerprint(warm) == _fingerprint(uncached)


def test_corrupt_summary_entries_degrade_to_misses_not_wrong_results(
    project,
):
    cache_path = project / ".xailint_cache.json"
    cold = _scan(project)
    document = json.loads(cache_path.read_text())
    assert document["summaries"]  # the section round-trips to disk
    for key in document["summaries"]:
        document["summaries"][key] = [{"bogus": 1}]
    cache_path.write_text(json.dumps(document))
    scaling = project / "src" / "xaidb" / "scaling.py"
    scaling.write_text(scaling.read_text() + "\n# touched\n")
    rescanned = _scan(project)
    assert rescanned.stats.summary_hits == 0  # nothing adoptable
    assert _fingerprint(rescanned) == _fingerprint(cold)


def test_cache_version_bump_invalidates_old_documents(project):
    from xaidb.analysis.cache import CACHE_VERSION

    assert CACHE_VERSION == 5  # v5 dropped the pass C/D/F/G fields
    cache_path = project / ".xailint_cache.json"
    cold = _scan(project)
    document = json.loads(cache_path.read_text())
    document["version"] = CACHE_VERSION - 1
    cache_path.write_text(json.dumps(document))
    rescan = _scan(project)
    assert not rescan.stats.project_from_cache
    assert rescan.stats.summary_hits == 0  # pre-bump summaries dropped
    assert _fingerprint(rescan) == _fingerprint(cold)


def test_stale_summary_keys_are_pruned_after_edits(project):
    cache_path = project / ".xailint_cache.json"
    _scan(project)
    scaling = project / "src" / "xaidb" / "scaling.py"
    scaling.write_text(scaling.read_text() + "\n# touched\n")
    rescan = _scan(project)
    document = json.loads(cache_path.read_text())
    # content-addressed entries for the old scaling.py digests are
    # gone: the store holds exactly this run's SCC keys
    assert len(document["summaries"]) == (
        rescan.stats.summary_hits + rescan.stats.summary_misses
    )
