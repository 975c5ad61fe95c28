"""Reporter schema stability and CLI behaviour."""

from __future__ import annotations

import json

import pytest

from xaidb.analysis import (
    JSON_SCHEMA_VERSION,
    lint_source,
    render_github,
    render_json,
    render_stats,
    render_text,
)
from xaidb.analysis.cli import main
from xaidb.analysis.reporters import (
    _github_escape_data,
    _github_escape_property,
)

DIRTY = "def f(x, bucket=[]):\n    return bucket\n"

#: The pinned JSON schema — changing either set is a breaking change
#: that must bump JSON_SCHEMA_VERSION (see docs/LINTING.md).
DOCUMENT_KEYS = {
    "schema_version",
    "files_scanned",
    "ok",
    "findings",
    "suppressed_count",
    "summary",
}
FINDING_KEYS = {"path", "line", "col", "rule", "symbol", "message", "severity"}


class TestJsonReporter:
    def test_schema_keys_are_stable(self):
        document = json.loads(render_json(lint_source(DIRTY)))
        assert set(document) == DOCUMENT_KEYS
        assert document["schema_version"] == JSON_SCHEMA_VERSION
        assert document["ok"] is False
        assert document["files_scanned"] == 1
        assert document["summary"] == {"XDB007": 1}
        (finding,) = document["findings"]
        assert set(finding) == FINDING_KEYS
        assert finding["rule"] == "XDB007"
        assert finding["symbol"] == "mutable-default-argument"
        assert finding["severity"] == "error"

    def test_clean_document(self):
        document = json.loads(render_json(lint_source("x = 1\n")))
        assert document["ok"] is True
        assert document["findings"] == []
        assert document["summary"] == {}


class TestTextReporter:
    def test_one_line_per_finding_plus_summary(self):
        text = render_text(lint_source(DIRTY, filename="mod.py"))
        assert "mod.py:1:" in text
        assert "XDB007" in text
        assert "1 finding(s)" in text

    def test_clean_says_clean(self):
        assert "clean" in render_text(lint_source("x = 1\n"))


class TestGithubReporter:
    def test_one_annotation_per_finding(self):
        out = render_github(lint_source(DIRTY, filename="mod.py"))
        (annotation, summary) = out.splitlines()
        assert annotation.startswith("::error file=mod.py,line=1,col=")
        assert ",title=XDB007::" in annotation
        assert "[mutable-default-argument]" in annotation
        assert "1 finding(s)" in summary

    def test_clean_emits_only_the_summary_line(self):
        out = render_github(lint_source("x = 1\n"))
        assert out.splitlines() == ["xailint: 1 file scanned, clean"]

    def test_workflow_command_escaping(self):
        # %, CR and LF would corrupt the ::command stream; commas and
        # colons would corrupt the property list.  The escapes are
        # GitHub's documented ones.
        out = render_github(lint_source(DIRTY, filename="a,b:c.py"))
        assert "file=a%2Cb%3Ac.py," in out
        assert _github_escape_data("50%\r\ndone") == "50%25%0D%0Adone"
        assert _github_escape_property("f:1,2") == "f%3A1%2C2"


class TestStatsReporter:
    def test_per_rule_table_counts_findings_and_suppressions(self):
        # one XDB007 finding, one suppressed XDB007, one XDB006 finding
        source = (
            "def f(x, bucket=[]):\n"
            "    return bucket\n"
            "def g(x, seen={}):  # xailint: disable=XDB007 (test fixture)\n"
            "    return seen == 0.1\n"
        )
        result = lint_source(source)
        assert [f.rule_id for f in result.findings] == ["XDB007", "XDB006"]
        assert [f.rule_id for f in result.suppressed] == ["XDB007"]
        rows = {
            line.split()[0]: line.split()
            for line in render_stats(result).splitlines()
            if line.startswith("    XDB")
        }
        # rule id, time, "ms", findings, suppressed
        assert rows["XDB007"][3:] == ["1", "1"]
        assert rows["XDB006"][3:] == ["1", "0"]
        assert rows["XDB001"][3:] == ["0", "0"]


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(DIRTY)
        assert main([str(tmp_path)]) == 1
        assert "XDB007" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(DIRTY)
        assert main([str(tmp_path), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"] == {"XDB007": 1}

    def test_rules_subset(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(DIRTY)
        assert main([str(tmp_path), "--rules", "XDB001"]) == 0
        capsys.readouterr()

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(DIRTY)
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--rules", "XDB999"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_nonexistent_path_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "no_such_dir")])
        assert excinfo.value.code == 2
        assert "no such file" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in [f"XDB00{i}" for i in range(1, 9)]:
            assert rule_id in out
