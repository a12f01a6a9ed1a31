"""Direct tests for repro/analysis/reporting.py.

Covers the three renderers (text/json/sarif) and the exit-code mapping:
0 clean (warnings alone never fail), 1 violations, 2 usage errors.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    LintReport,
    Violation,
    exit_code_for,
    lint_paths,
    render,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.reporting import SARIF_SCHEMA, SARIF_VERSION, TOOL_NAME
from repro.cli import main
from repro.errors import AnalysisError

FIXTURES = Path(__file__).parent / "fixtures"


def report_with(violations=(), warnings=(), **kwargs):
    defaults = dict(checked_files=3, rule_ids=("REP001", "REP002"))
    defaults.update(kwargs)
    return LintReport(
        violations=tuple(violations), warnings=tuple(warnings), **defaults
    )


V1 = Violation(path="src/a.py", line=4, rule_id="REP001", message="no rng")
V2 = Violation(path="src/b.py", line=9, rule_id="REP002", message="no assert")
W1 = Violation(
    path="src/c.py",
    line=2,
    rule_id="REP008",
    message="bad noqa",
    severity="warning",
)


class TestText:
    def test_clean_summary(self):
        text = render_text(report_with())
        assert text == "ok: 3 file(s) clean under 2 rule(s)"

    def test_violation_lines_and_summary(self):
        text = render_text(report_with([V1, V2]))
        lines = text.splitlines()
        assert lines[0] == "src/a.py:4: REP001 no rng"
        assert lines[1] == "src/b.py:9: REP002 no assert"
        assert lines[2] == "2 violation(s) in 2 file(s) (3 checked)"

    def test_warnings_marked_and_do_not_fail(self):
        report = report_with(warnings=[W1])
        text = render_text(report)
        assert "src/c.py:2: REP008 [warning] bad noqa" in text
        assert "ok: 3 file(s) clean" in text
        assert "1 warning(s)" in text

    def test_cache_counters(self):
        report = report_with(cached_files=5, analyzed_files=1)
        text = render_text(report)
        assert "cache: 5 hit(s), 1 analyzed" in text


class TestJson:
    def test_round_trips_with_warnings(self):
        payload = json.loads(render_json(report_with([V1], [W1])))
        assert payload["ok"] is False
        assert payload["rules"] == ["REP001", "REP002"]
        assert payload["violations"][0]["severity"] == "error"
        assert payload["warnings"][0]["severity"] == "warning"

    def test_counters_serialised(self):
        payload = json.loads(
            render_json(report_with(cached_files=2, analyzed_files=1))
        )
        assert payload["cached_files"] == 2
        assert payload["analyzed_files"] == 1


class TestSarif:
    def document(self, report):
        return json.loads(render_sarif(report))

    def test_envelope(self):
        doc = self.document(report_with([V1]))
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"] == SARIF_SCHEMA
        assert len(doc["runs"]) == 1
        assert doc["runs"][0]["tool"]["driver"]["name"] == TOOL_NAME

    def test_rules_metadata_from_registry(self):
        doc = self.document(report_with())
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert [rule["id"] for rule in rules] == ["REP001", "REP002"]
        assert all(rule["shortDescription"]["text"] for rule in rules)

    def test_results_carry_location_and_level(self):
        doc = self.document(report_with([V1], [W1]))
        results = doc["runs"][0]["results"]
        assert [r["level"] for r in results] == ["error", "warning"]
        first = results[0]
        assert first["ruleId"] == "REP001"
        assert first["ruleIndex"] == 0
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/a.py"
        assert location["artifactLocation"]["uriBaseId"] == "SRCROOT"
        assert location["region"]["startLine"] == 4

    def test_unknown_rule_id_falls_back_to_bare_id(self):
        report = report_with([V1], rule_ids=("REPX99",))
        doc = self.document(report)
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert rules[0]["shortDescription"]["text"] == "REPX99"

    def test_real_report_validates_against_subset_schema(self):
        import subprocess
        import sys

        report = lint_paths([str(FIXTURES / "rep001_bad.py")])
        document = render_sarif(report)
        result = subprocess.run(
            [sys.executable, str(Path("scripts") / "validate_sarif.py"), "-"],
            input=document,
            capture_output=True,
            text=True,
            cwd=Path(__file__).parents[2],
        )
        assert result.returncode == 0, result.stderr


class TestDispatchAndExitCodes:
    def test_render_dispatch(self):
        report = report_with()
        assert render(report, "text") == render_text(report)
        assert render(report, "json") == render_json(report)
        assert render(report, "sarif") == render_sarif(report)

    def test_unknown_format_raises_usage_error(self):
        with pytest.raises(AnalysisError):
            render(report_with(), "xml")

    def test_exit_zero_when_clean_even_with_warnings(self):
        assert exit_code_for(report_with(warnings=[W1])) == 0

    def test_exit_one_on_violations(self):
        assert exit_code_for(report_with([V1])) == 1

    def test_exit_two_on_usage_error_via_cli(self, capsys):
        assert main(["lint", "--rules", "NOPE1", str(FIXTURES)]) == 2
        assert "error" in capsys.readouterr().err
