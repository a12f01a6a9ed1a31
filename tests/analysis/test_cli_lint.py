"""CLI tests for `repro lint`: --rules, --format, --cache."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


class TestRulesFlag:
    def test_single_rule_filter(self, capsys):
        code = main(
            ["lint", "--rules", "REP002", str(FIXTURES / "rep001_bad.py")]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_rule_list(self, capsys):
        code = main(
            [
                "lint",
                "--rules",
                "REP001,REP002",
                str(FIXTURES / "rep001_bad.py"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REP001" in out

    def test_empty_rules_is_usage_error(self, capsys):
        code = main(["lint", "--rules", " , ", str(FIXTURES / "clean.py")])
        assert code == 2
        assert "no rule ids" in capsys.readouterr().err


class TestFormatFlag:
    def test_sarif_format(self, capsys):
        code = main(
            ["lint", "--format", "sarif", str(FIXTURES / "rep002_bad.py")]
        )
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["version"] == "2.1.0"
        results = document["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["REP002"]

    def test_json_format_carries_cache_counters(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        target = tmp_path / "mod.py"
        target.write_text('"""Doc."""\n\nVALUE = 1\n')
        main(["lint", "--cache", str(cache), "--format", "json", str(target)])
        capsys.readouterr()
        code = main(
            ["lint", "--cache", str(cache), "--format", "json", str(target)]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["cached_files"] == 1
        assert payload["analyzed_files"] == 0


class TestCacheFlag:
    def test_cache_hit_across_two_invocations(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        for name in ("a.py", "b.py"):
            (tmp_path / name).write_text('"""Doc."""\n\nVALUE = 1\n')
        first = main(["lint", "--cache", str(cache), str(tmp_path)])
        first_out = capsys.readouterr().out
        second = main(["lint", "--cache", str(cache), str(tmp_path)])
        second_out = capsys.readouterr().out
        assert first == second == 0
        assert "cache:" not in first_out  # cold run: nothing cached yet
        assert "cache: 2 hit(s), 0 analyzed" in second_out

    def test_changed_file_reanalyzed_only(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        for name in ("a.py", "b.py", "c.py"):
            (tmp_path / name).write_text('"""Doc."""\n\nVALUE = 1\n')
        main(["lint", "--cache", str(cache), str(tmp_path)])
        capsys.readouterr()
        (tmp_path / "b.py").write_text('"""Doc."""\n\nassert True\n')
        code = main(["lint", "--cache", str(cache), str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP002" in out
        assert "cache: 2 hit(s), 1 analyzed" in out
