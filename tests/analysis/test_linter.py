"""Tests for the OPE-correctness linter (repro.analysis)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    build_rules,
    lint_paths,
    registered_rule_ids,
    render_json,
    render_text,
)
from repro.cli import main
from repro.errors import AnalysisError

FIXTURES = Path(__file__).parent / "fixtures"


def violations_for(path, rules=None):
    report = lint_paths([path], rules)
    return report.violations


class TestRegistry:
    def test_all_thirteen_rules_registered(self):
        assert registered_rule_ids() == tuple(
            f"REP{number:03d}" for number in range(1, 14)
        )

    def test_rules_carry_metadata(self):
        for rule in build_rules():
            assert rule.rule_id.startswith("REP")
            assert rule.description
            assert rule.severity in ("error", "warning")

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(AnalysisError):
            build_rules(["REP999"])

    def test_missing_path_rejected(self):
        with pytest.raises(AnalysisError):
            lint_paths([str(FIXTURES / "does_not_exist.py")])


class TestRep001:
    def test_flags_each_determinism_violation(self):
        found = violations_for(str(FIXTURES / "rep001_bad.py"))
        assert [(v.rule_id, v.line) for v in found] == [
            ("REP001", 5),
            ("REP001", 10),
            ("REP001", 11),
        ]

    def test_messages_name_the_offence(self):
        messages = "\n".join(
            v.message for v in violations_for(str(FIXTURES / "rep001_bad.py"))
        )
        assert "stdlib `random`" in messages
        assert "default_rng() without a seed" in messages
        assert "np.random.normal" in messages


class TestRep002:
    def test_flags_bare_assert(self):
        found = violations_for(str(FIXTURES / "rep002_bad.py"))
        assert [(v.rule_id, v.line) for v in found] == [("REP002", 6)]
        assert "python -O" in found[0].message

    def test_noqa_suppresses_on_the_line(self):
        assert violations_for(str(FIXTURES / "suppressed.py")) == ()


class TestRep003:
    def test_flags_missing_estimate_hook(self):
        found = violations_for(str(FIXTURES / "rep003_bad.py"))
        assert [(v.rule_id, v.line) for v in found] == [("REP003", 6)]
        assert "IncompleteEstimator" in found[0].message

    def test_flags_unexported_estimator(self):
        found = violations_for(str(FIXTURES / "estimators"))
        export_violations = [v for v in found if "missing from" in v.message]
        assert len(export_violations) == 1
        assert export_violations[0].rule_id == "REP003"
        assert "UnexportedEstimator" in export_violations[0].message

    def test_flags_non_canonical_constructor_keywords(self):
        found = violations_for(str(FIXTURES / "estimators" / "rep003_kwargs_bad.py"))
        vocabulary = [v for v in found if "vocabulary" in v.message]
        assert [(v.rule_id, v.line) for v in vocabulary] == [
            ("REP003", 9),
            ("REP003", 9),
            ("REP003", 9),
        ]
        messages = "\n".join(v.message for v in vocabulary)
        # The two named parameters and the var-keyword catch-all are all
        # flagged: the vocabulary is closed.
        assert "'reward_model'" in messages
        assert "'max_weight'" in messages
        assert "var-keyword catch-all" in messages

    def test_flags_half_serialized_spec_classes(self):
        found = violations_for(str(FIXTURES / "rep003_spec_bad.py"))
        assert [(v.rule_id, v.line) for v in found] == [
            ("REP003", 10),
            ("REP003", 18),
        ]
        messages = "\n".join(v.message for v in found)
        assert "HalfSerializedSpec defines to_dict() without from_dict()" in messages
        assert "ReadOnlyConfig defines from_dict() without to_dict()" in messages
        assert "from_dict(to_dict())" in messages

    def test_paired_and_non_spec_classes_pass(self):
        assert violations_for(str(FIXTURES / "rep003_spec_good.py")) == ()

    def test_shipped_spec_classes_round_trip(self):
        # The api spec layer (PolicySpec/EstimatorConfig/TraceRef) must
        # satisfy the rule it motivated.
        report = lint_paths(
            [str(Path(__file__).parents[2] / "src" / "repro" / "api")],
            ["REP003"],
        )
        assert report.ok

    def test_canonical_constructors_pass(self):
        # The shipped estimators all speak the canonical vocabulary.
        report = lint_paths(
            [str(Path(__file__).parents[2] / "src" / "repro" / "core" / "estimators")],
            ["REP003"],
        )
        assert report.ok


class TestRep004:
    def test_flags_float_literal_equality(self):
        found = violations_for(str(FIXTURES / "estimators" / "rep004_bad.py"))
        assert [(v.rule_id, v.line) for v in found] == [
            ("REP004", 6),
            ("REP004", 8),
        ]

    def test_scoped_to_estimator_and_model_paths(self):
        # The same comparisons outside an estimators/models path pass.
        rules = build_rules(["REP004"])
        clean_unit_report = lint_paths([str(FIXTURES / "clean.py")], ["REP004"])
        assert clean_unit_report.ok
        assert rules[0].rule_id == "REP004"


class TestRep005:
    def test_flags_undocumented_public_symbols(self):
        found = violations_for(str(FIXTURES / "core" / "rep005_bad.py"))
        assert [(v.rule_id, v.line) for v in found] == [
            ("REP005", 4),
            ("REP005", 8),
        ]
        assert "undocumented_function" in found[0].message
        assert "UndocumentedClass" in found[1].message


class TestRep006:
    def test_flags_swallows_and_unlogged_broad_catch(self):
        found = violations_for(str(FIXTURES / "rep006_bad.py"))
        assert [(v.rule_id, v.line) for v in found] == [
            ("REP006", 10),
            ("REP006", 19),
            ("REP006", 29),
        ]

    def test_messages_distinguish_the_two_offences(self):
        found = violations_for(str(FIXTURES / "rep006_bad.py"))
        assert "except ValueError silently discards" in found[0].message
        assert "except KeyError silently discards" in found[1].message
        assert "over-broad except Exception" in found[2].message

    def test_logged_counted_and_reraised_handlers_pass(self):
        # Only the three bad handlers fire; the logged/counted/re-raised
        # handlers in the same fixture are clean.
        found = violations_for(str(FIXTURES / "rep006_bad.py"))
        assert len(found) == 3


class TestRep007:
    def test_flags_per_record_calls_in_every_loop_form(self):
        found = violations_for(
            str(FIXTURES / "estimators" / "rep007_bad.py"), ["REP007"]
        )
        assert [(v.rule_id, v.line) for v in found] == [
            ("REP007", 7),
            ("REP007", 8),
            ("REP007", 13),
            ("REP007", 19),
        ]

    def test_messages_name_the_batch_api(self):
        found = violations_for(
            str(FIXTURES / "estimators" / "rep007_bad.py"), ["REP007"]
        )
        messages = "\n".join(v.message for v in found)
        assert "propensity_batch" in messages
        assert "predict_batch" in messages
        assert "Trace.columns()" in messages

    def test_batch_calls_and_suppressions_pass(self):
        report = lint_paths(
            [str(FIXTURES / "estimators" / "rep007_good.py")], ["REP007"]
        )
        assert report.ok

    def test_scoped_to_estimator_paths(self):
        # The same loops outside an estimators path pass.
        report = lint_paths([str(FIXTURES / "clean.py")], ["REP007"])
        assert report.ok


class TestReporting:
    def test_clean_fixture_is_clean(self):
        report = lint_paths([str(FIXTURES / "clean.py")])
        assert report.ok
        assert report.checked_files == 1

    def test_text_report_carries_locations_and_ids(self):
        report = lint_paths([str(FIXTURES / "rep002_bad.py")])
        text = render_text(report)
        assert "rep002_bad.py:6: REP002" in text

    def test_json_report_round_trips(self):
        report = lint_paths([str(FIXTURES / "rep001_bad.py")])
        payload = json.loads(render_json(report))
        assert payload["ok"] is False
        assert payload["rules"] == list(registered_rule_ids())
        assert [v["rule"] for v in payload["violations"]] == ["REP001"] * 3
        assert all(
            {"path", "line", "rule", "message"} <= set(v) for v in payload["violations"]
        )

    def test_rule_filter_restricts_findings(self):
        report = lint_paths([str(FIXTURES)], ["REP002"])
        assert {v.rule_id for v in report.violations} == {"REP002"}


class TestCli:
    def test_exit_one_and_locations_on_violations(self, capsys):
        code = main(["lint", str(FIXTURES / "rep001_bad.py")])
        output = capsys.readouterr().out
        assert code == 1
        assert "REP001" in output
        assert "rep001_bad.py:5" in output

    def test_exit_zero_on_clean(self, capsys):
        assert main(["lint", str(FIXTURES / "clean.py")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_json_format_round_trips(self, capsys):
        code = main(["lint", "--format", "json", str(FIXTURES / "rep002_bad.py")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["violations"][0]["rule"] == "REP002"

    def test_rules_flag(self, capsys):
        code = main(
            ["lint", "--rules", "REP004", str(FIXTURES / "rep001_bad.py")]
        )
        assert code == 0  # REP001 findings filtered away
        assert "ok" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, capsys):
        code = main(["lint", "--rules", "REP999", str(FIXTURES / "clean.py")])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        code = main(["lint", str(FIXTURES / "nope.py")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err
