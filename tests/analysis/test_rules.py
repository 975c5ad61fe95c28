"""Per-rule fixture tests: each rule fires on its dirty fixture and
stays silent on its clean one (ISSUE acceptance criterion)."""

from __future__ import annotations

from pathlib import Path

import pytest

from xaidb.analysis import lint_source

FIXTURES = Path(__file__).parent / "fixtures"

# (rule id, extra lint_source kwargs). XDB004 only applies inside the
# xaidb package; XDB008/XDB009 only inside xaidb.explainers;
# XDB010/XDB013 (the flow-sensitive tier) only inside xaidb;
# XDB016-XDB017 (the interprocedural tier) and the later tiers
# additionally need a module name, since call-graph qualnames derive
# from it.
CASES = [
    ("XDB001", {}),
    ("XDB002", {}),
    ("XDB003", {}),
    ("XDB004", {"in_xaidb_package": True}),
    ("XDB005", {}),
    ("XDB006", {}),
    ("XDB007", {}),
    ("XDB008", {"module_name": "xaidb.explainers.fixture"}),
    ("XDB009", {"module_name": "xaidb.explainers.fixture"}),
    ("XDB010", {"in_xaidb_package": True}),
    ("XDB011", {}),
    ("XDB012", {}),
    ("XDB013", {"in_xaidb_package": True}),
    ("XDB016", {"in_xaidb_package": True, "module_name": "xaidb.fx"}),
    ("XDB017", {"in_xaidb_package": True, "module_name": "xaidb.fx"}),
    ("XDB023", {"in_xaidb_package": True, "module_name": "xaidb.fx"}),
    ("XDB024", {"in_xaidb_package": True, "module_name": "xaidb.fx"}),
    ("XDB025", {"in_xaidb_package": True, "module_name": "xaidb.fx"}),
    ("XDB026", {"in_xaidb_package": True, "module_name": "xaidb.fx"}),
    ("XDB027", {"in_xaidb_package": True, "module_name": "xaidb.fx"}),
    ("XDB032", {"in_xaidb_package": True, "module_name": "xaidb.fx"}),
]


def _lint_fixture(rule_id: str, variant: str, kwargs: dict) -> list:
    path = FIXTURES / f"{rule_id.lower()}_{variant}.py"
    result = lint_source(
        path.read_text(),
        filename=path.name,
        **kwargs,
    )
    return [f for f in result.findings if f.rule_id == rule_id]


#: Case ids keep the suffix each rule had when CASES ran contiguously
#: from XDB001 (``kwargs`` + rule number − 1), so retiring a rule does
#: not rename the cases of the rules that stay.
CASE_IDS = [
    f"{rule_id}-kwargs{int(rule_id[3:]) - 1}" for rule_id, _ in CASES
]


@pytest.mark.parametrize("rule_id,kwargs", CASES, ids=CASE_IDS)
def test_rule_fires_on_dirty_fixture(rule_id, kwargs):
    findings = _lint_fixture(rule_id, "dirty", kwargs)
    assert findings, f"{rule_id} did not fire on its dirty fixture"
    for finding in findings:
        assert finding.rule_id == rule_id
        assert finding.line >= 1
        assert finding.message


@pytest.mark.parametrize("rule_id,kwargs", CASES, ids=CASE_IDS)
def test_rule_silent_on_clean_fixture(rule_id, kwargs):
    findings = _lint_fixture(rule_id, "clean", kwargs)
    assert not findings, [f.message for f in findings]


def test_dirty_fixture_finding_counts():
    """Pin the exact violation counts so rules neither over- nor
    under-report as they evolve."""
    expected = {
        "XDB001": 3,  # two import statements + one from-import
        "XDB002": 5,  # import random, seed, normal, choice, random()
        "XDB003": 3,  # subscript store, augmented assign, out=
        "XDB004": 1,
        "XDB005": 2,  # bare except + except Exception
        "XDB006": 2,
        "XDB007": 2,
        "XDB008": 2,  # not-a-subclass + missing abstract method
        "XDB009": 2,  # for-loop call + listcomp over self.predict_fn
        "XDB010": 2,  # literal-seed sink + taint through a copy chain
        "XDB011": 2,  # view-chain return + asarray passthrough return
        "XDB012": 3,  # stale + reason-less + dangling suppression
        "XDB013": 2,  # overwritten-before-use + unused unpack slot
        "XDB016": 2,  # two sinks fed by a generator two levels down
        "XDB017": 2,  # callee mutation + view-through-callee return
        "XDB023": 3,  # sum + len denominators + callsite precondition
        "XDB024": 2,  # log reaching 0 + sqrt reaching below 0
        "XDB025": 2,  # empty mean + ddof == sample count
        "XDB026": 2,  # predict_proba return + negative p= weights
        "XDB027": 2,  # weak-updated counts + unguarded len()
        "XDB032": 2,  # except Exception: pass + bare except discard
    }
    for (rule_id, kwargs) in CASES:
        findings = _lint_fixture(rule_id, "dirty", kwargs)
        assert len(findings) == expected[rule_id], (
            rule_id,
            [f.message for f in findings],
        )


def test_xdb009_silent_outside_explainer_packages():
    """The runtime rule is scoped: the same loops in, say, benchmarks or
    xaidb.utils are not explainer hot paths and must not fire."""
    findings = _lint_fixture(
        "XDB009", "dirty", {"module_name": "xaidb.utils.fixture"}
    )
    assert not findings, [f.message for f in findings]


def test_xdb010_and_xdb013_silent_outside_xaidb_package():
    """The flow-sensitive tier is scoped to the library: the same code
    in scripts/benchmarks (literal module-level seeds, scratch locals)
    is idiomatic and must not fire."""
    for rule_id in ("XDB010", "XDB013"):
        findings = _lint_fixture(rule_id, "dirty", {})
        assert not findings, [f.message for f in findings]


def test_interproc_tier_silent_outside_xaidb_package():
    """XDB016-XDB027 are scoped to the library like the rest of the
    flow-sensitive tier."""
    for rule_id in (
        "XDB016",
        "XDB017",
        "XDB023",
        "XDB024",
        "XDB025",
        "XDB026",
        "XDB027",
    ):
        findings = _lint_fixture(
            rule_id, "dirty", {"module_name": "scripts.fx"}
        )
        assert not findings, [f.message for f in findings]


def test_xdb016_findings_cross_two_call_boundaries():
    """The dirty fixture builds its generator two helpers down; the
    message must carry the measured depth."""
    findings = _lint_fixture(
        "XDB016",
        "dirty",
        {"in_xaidb_package": True, "module_name": "xaidb.fx"},
    )
    assert findings
    for finding in findings:
        assert "2 call levels away" in finding.message


def test_numeric_tier_messages_carry_interval_witnesses():
    """XDB023-XDB027 findings must cite the proven interval that
    supports them — the silent-unless-provable contract made visible."""
    kwargs = {"in_xaidb_package": True, "module_name": "xaidb.fx"}
    messages = " | ".join(
        f.message for f in _lint_fixture("XDB023", "dirty", kwargs)
    )
    assert "proven range [0, inf]" in messages
    assert "xaidb.fx._rescale divides by it" in messages
    messages = " | ".join(
        f.message for f in _lint_fixture("XDB025", "dirty", kwargs)
    )
    assert "proven length [0, 0]" in messages
    assert "n - ddof reaches 0" in messages
    messages = " | ".join(
        f.message for f in _lint_fixture("XDB026", "dirty", kwargs)
    )
    assert "proven range [2, inf]" in messages
    assert "proven range [-0.125, -0.125]" in messages


def test_xdb012_messages_distinguish_failure_modes():
    findings = _lint_fixture("XDB012", "dirty", {})
    messages = " | ".join(f.message for f in findings)
    assert "never matched a finding" in messages
    assert "no parenthesised reason" in messages
    assert "not followed by any code line" in messages


def test_xdb008_messages_distinguish_failure_modes():
    findings = _lint_fixture(
        "XDB008", "dirty", {"module_name": "xaidb.explainers.fixture"}
    )
    messages = " | ".join(f.message for f in findings)
    assert "does not subclass" in messages
    assert "does not implement abstract method 'explain'" in messages
