"""Tests for noqa parsing and suppression semantics.

The contract: ``# noqa`` (bare) suppresses every rule on the line,
``# noqa: REP001,REP004`` suppresses exactly the listed rules, and an
unknown ``REP`` id suppresses *nothing* — it is surfaced as a REP008
warning instead of silently widening the suppression.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.graph import ModuleIndex, build_module_index
from repro.analysis.linter import ModuleUnit, build_noqa_map, parse_noqa_codes

FIXTURES = Path(__file__).parent / "fixtures"


class TestParseNoqaCodes:
    def test_no_comment(self):
        assert parse_noqa_codes("x = 1") is None
        assert parse_noqa_codes("x = 1  # plain comment") is None

    def test_bare_noqa(self):
        assert parse_noqa_codes("x = 1  # noqa") == (True, None)

    def test_single_code(self):
        assert parse_noqa_codes("x = 1  # noqa: REP001") == (True, ["REP001"])

    def test_comma_separated_list(self):
        assert parse_noqa_codes("x = 1  # noqa: REP001,REP004") == (
            True,
            ["REP001", "REP004"],
        )

    def test_whitespace_separated_list(self):
        assert parse_noqa_codes("x = 1  # noqa: REP001 REP004") == (
            True,
            ["REP001", "REP004"],
        )

    def test_case_insensitive_marker(self):
        present, codes = parse_noqa_codes("x = 1  # NOQA: rep002")
        assert present
        assert codes == ["rep002"]

    def test_trailing_rationale_tolerated(self):
        present, codes = parse_noqa_codes(
            "x = 1  # noqa: REP006 - unfittable candidate"
        )
        assert present
        assert codes == ["REP006"]

    def test_malformed_tokens_dropped_not_widened(self):
        # A garbage token must not degrade the comment into a bare noqa.
        present, codes = parse_noqa_codes("x = 1  # noqa: ???")
        assert present
        assert codes == []

    def test_foreign_codes_parse(self):
        present, codes = parse_noqa_codes("import os  # noqa: F401")
        assert present
        assert codes == ["F401"]


class TestSuppression:
    def make_index(self, source: str) -> ModuleIndex:
        unit = ModuleUnit(path=Path("mem.py"), display="mem.py", source=source)
        return build_module_index(unit.tree, "mem.py", ("mem.py",), noqa=unit.noqa)

    def test_bare_noqa_suppresses_everything(self):
        index = self.make_index('"""Doc."""\nassert True  # noqa\n')
        assert index.suppressed(2, "REP002")
        assert index.suppressed(2, "REP001")

    def test_listed_codes_suppress_only_themselves(self):
        index = self.make_index('"""Doc."""\nassert True  # noqa: REP002\n')
        assert index.suppressed(2, "REP002")
        assert not index.suppressed(2, "REP001")

    def test_rule_lists_cover_each_member(self):
        index = self.make_index(
            '"""Doc."""\nassert True  # noqa: REP001,REP002\n'
        )
        assert index.suppressed(2, "REP001")
        assert index.suppressed(2, "REP002")
        assert not index.suppressed(2, "REP004")

    def test_codes_match_case_insensitively(self):
        index = self.make_index('"""Doc."""\nassert True  # noqa: rep002\n')
        assert index.suppressed(2, "REP002")

    def test_unrelated_lines_not_suppressed(self):
        index = self.make_index('"""Doc."""\nassert True  # noqa: REP002\n')
        assert not index.suppressed(1, "REP002")

    def test_build_noqa_map_lines(self):
        noqa = build_noqa_map(
            ["x = 1", "y = 2  # noqa", "z = 3  # noqa: REP004"]
        )
        assert noqa == {2: None, 3: ["REP004"]}


class TestUnknownIds:
    def test_unknown_rep_code_does_not_suppress(self, tmp_path):
        # A typo'd id must not hide the finding it meant to suppress.
        bad = tmp_path / "typo.py"
        bad.write_text('"""Doc."""\nassert True  # noqa: REP999\n')
        report = lint_paths([str(bad)])
        assert [v.rule_id for v in report.violations] == ["REP002"]

    def test_unknown_rep_code_warns_via_rep008(self):
        report = lint_paths([str(FIXTURES / "rep008_bad.py")], ["REP008"])
        assert report.ok  # warnings never fail the run
        assert [(w.rule_id, w.line, w.detail) for w in report.warnings] == [
            ("REP008", 3, "REP999"),
            ("REP008", 4, "REP998"),
        ]
        assert "suppress nothing" in report.warnings[0].message

    def test_known_and_foreign_codes_not_warned(self, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text(
            '"""Doc."""\nx = 1  # noqa: REP001\nimport os  # noqa: F401\n'
        )
        report = lint_paths([str(clean)], ["REP008"])
        assert report.ok
        assert report.warnings == ()
