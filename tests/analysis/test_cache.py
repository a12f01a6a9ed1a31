"""Tests for the incremental engine: content-hash cache and forked blocks."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import linter, lint_paths, registered_rule_ids
from repro.analysis.cache import LintCache, content_hash, ruleset_signature
from repro.errors import AnalysisError

CLEAN = '"""Doc."""\n\nVALUE = 1\n'
BAD = '"""Doc."""\n\nassert True\n'


def write_tree(tmp_path, files):
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)


class TestPrimitives:
    def test_content_hash_is_stable_and_content_sensitive(self):
        assert content_hash(b"abc") == content_hash(b"abc")
        assert content_hash(b"abc") != content_hash(b"abd")

    def test_ruleset_signature_changes_with_rules(self):
        assert ruleset_signature(("REP001",)) != ruleset_signature(("REP002",))
        assert ruleset_signature(("REP001",)) == ruleset_signature(("REP001",))


class TestIncrementalRuns:
    def test_second_run_is_fully_cached(self, tmp_path):
        write_tree(tmp_path, {"a.py": CLEAN, "b.py": CLEAN})
        cache = tmp_path / "cache.json"
        first = lint_paths([str(tmp_path)], cache_path=cache)
        second = lint_paths([str(tmp_path)], cache_path=cache)
        assert first.analyzed_files == 2 and first.cached_files == 0
        assert second.analyzed_files == 0 and second.cached_files == 2
        assert second.ok == first.ok

    def test_only_changed_files_reanalyzed(self, tmp_path):
        write_tree(tmp_path, {"a.py": CLEAN, "b.py": CLEAN, "c.py": CLEAN})
        cache = tmp_path / "cache.json"
        lint_paths([str(tmp_path)], cache_path=cache)
        (tmp_path / "b.py").write_text(BAD)
        report = lint_paths([str(tmp_path)], cache_path=cache)
        assert report.analyzed_files == 1
        assert report.cached_files == 2
        assert [v.rule_id for v in report.violations] == ["REP002"]

    def test_cached_violations_replayed(self, tmp_path):
        write_tree(tmp_path, {"bad.py": BAD})
        cache = tmp_path / "cache.json"
        first = lint_paths([str(tmp_path)], cache_path=cache)
        second = lint_paths([str(tmp_path)], cache_path=cache)
        assert second.cached_files == 1
        assert second.violations == first.violations

    def test_rule_change_invalidates_cache(self, tmp_path):
        write_tree(tmp_path, {"a.py": CLEAN})
        cache = tmp_path / "cache.json"
        lint_paths([str(tmp_path)], ["REP001"], cache_path=cache)
        report = lint_paths([str(tmp_path)], ["REP002"], cache_path=cache)
        assert report.analyzed_files == 1
        assert report.cached_files == 0

    def test_project_rules_rerun_over_cached_indexes(self, tmp_path):
        # The dataflow tier must keep firing on warm runs: per-file
        # results are cached, cross-module conclusions are recomputed.
        write_tree(
            tmp_path,
            {
                "helpers.py": (
                    '"""Doc."""\n\nimport numpy as np\n\n\n'
                    "def jitter(values):\n"
                    '    """Draw."""\n'
                    "    return np.random.normal()\n"
                ),
                "bootstrap.py": (
                    '"""Doc."""\n\nfrom .helpers import jitter\n\n\n'
                    "def bootstrap_run(values):\n"
                    '    """Run."""\n'
                    "    return jitter(values)\n"
                ),
            },
        )
        cache = tmp_path / "cache.json"
        first = lint_paths([str(tmp_path)], ["REP010"], cache_path=cache)
        second = lint_paths([str(tmp_path)], ["REP010"], cache_path=cache)
        assert [v.rule_id for v in first.violations] == ["REP010"]
        assert second.cached_files == 2
        assert second.violations == first.violations

    def test_version_skewed_cache_treated_as_cold(self, tmp_path):
        write_tree(tmp_path, {"a.py": CLEAN})
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"signature": "old/stale", "files": {}}))
        report = lint_paths([str(tmp_path)], cache_path=cache)
        assert report.ok
        assert report.analyzed_files == 1

    def test_malformed_entries_discarded_with_warning(self, tmp_path, capsys):
        write_tree(tmp_path, {"a.py": CLEAN})
        cache = tmp_path / "cache.json"
        signature = ruleset_signature(registered_rule_ids())
        cache.write_text(
            json.dumps({"signature": signature, "files": {"a.py": {"hash": "x"}}})
        )
        report = lint_paths([str(tmp_path)], cache_path=cache)
        assert report.ok
        assert report.analyzed_files == 1
        assert "malformed cache entries" in capsys.readouterr().err

    def test_cache_file_written_and_reloadable(self, tmp_path):
        write_tree(tmp_path, {"a.py": CLEAN})
        cache_path = tmp_path / "cache.json"
        lint_paths([str(tmp_path)], cache_path=cache_path)
        assert cache_path.exists()
        signature = ruleset_signature(registered_rule_ids())
        cache = LintCache.load(cache_path, signature)
        assert set(cache.entries) == {str(tmp_path / "a.py")}


class TestJobs:
    """Per-file analysis runs in blocks through ``fork_blocks``; the
    worker cap is forced here so a 2-CPU runner still forks."""

    @staticmethod
    def cap_workers(monkeypatch, cap):
        """Force *cap* blocks and record each ``fork_blocks`` call's count."""
        counts = []
        fork_blocks = linter.fork_blocks

        def recorded(work, blocks):
            counts.append(len(blocks))
            return fork_blocks(work, blocks)

        monkeypatch.setattr(
            linter, "_effective_workers", lambda workers, tasks: min(cap, tasks)
        )
        monkeypatch.setattr(linter, "fork_blocks", recorded)
        return counts

    def test_serial_and_parallel_agree(self, tmp_path, monkeypatch):
        files = {f"mod_{i:02d}.py": (CLEAN if i % 3 else BAD) for i in range(12)}
        write_tree(tmp_path / "tree", files)
        reports, entries = [], []
        for cap in (1, 4):
            counts = self.cap_workers(monkeypatch, cap)
            cache = tmp_path / f"cache-{cap}.json"
            reports.append(lint_paths([str(tmp_path / "tree")], cache_path=cache))
            entries.append(json.loads(cache.read_text())["files"])
            assert counts == [cap]
        assert reports[0].to_json() == reports[1].to_json()
        assert entries[0] == entries[1]
        assert reports[0].checked_files == 12
        assert [v.rule_id for v in reports[0].violations] == ["REP002"] * 4

    def test_unparsable_file_in_a_child_block_raises_as_in_one_process(
        self, tmp_path, monkeypatch
    ):
        files = {f"mod_{i:02d}.py": CLEAN for i in range(7)}
        files["zz_broken.py"] = '"""Doc."""\n\ndef broken(:\n'
        write_tree(tmp_path, files)
        errors = []
        for cap in (1, 4):
            counts = self.cap_workers(monkeypatch, cap)
            with pytest.raises(AnalysisError) as caught:
                lint_paths([str(tmp_path)])
            errors.append(str(caught.value))
            assert counts == [cap]
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert errors[0] == errors[1]
        assert "zz_broken.py:3: does not parse" in errors[0]
