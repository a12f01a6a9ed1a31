"""Per-rule positive/negative tests for the dataflow rules REP010-REP013."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.dataflow import ForkSafety

FIXTURES = Path(__file__).parent / "fixtures"
DATAFLOW = FIXTURES / "dataflow"


def findings(path, rules):
    report = lint_paths([str(path)], rules)
    return report.violations


class TestRep010RngTaint:
    def test_cross_module_taint_reaches_bootstrap_path(self):
        found = findings(DATAFLOW, ["REP010"])
        assert [(v.rule_id, v.path.endswith("rep010_bad.py"), v.line) for v in found] == [
            ("REP010", True, 10)
        ]

    def test_message_names_source_and_witness(self):
        (violation,) = findings(DATAFLOW, ["REP010"])
        assert "bootstrap_resample()" in violation.message
        assert "np.random.normal" in violation.message
        assert "via jitter" in violation.message
        assert violation.detail.endswith("rep010_helpers.py:8")

    def test_seeded_path_is_clean(self):
        assert findings(DATAFLOW / "rep010_good.py", ["REP010"]) == ()

    def test_taint_outside_sensitive_scope_not_flagged(self):
        # The tainted helper itself is not an estimator/bootstrap path.
        found = findings(DATAFLOW / "rep010_helpers.py", ["REP010"])
        assert found == ()


class TestRep011ForkSafety:
    def test_flags_mutation_rebind_and_lambda(self):
        found = findings(DATAFLOW / "rep011_bad.py", ["REP011"])
        assert [(v.rule_id, v.line) for v in found] == [
            ("REP011", 11),
            ("REP011", 18),
            ("REP011", 28),
        ]
        messages = "\n".join(v.message for v in found)
        assert "mutates module-level '_CACHE'" in messages
        assert "rebinds global '_EPOCH'" in messages
        assert "lambda" in messages

    def test_pid_guarded_reinit_is_sanctioned(self):
        assert findings(DATAFLOW / "rep011_good.py", ["REP011"]) == ()

    def test_fork_blocks_worker_is_a_root(self):
        found = findings(DATAFLOW / "rep011_fork_bad.py", ["REP011"])
        assert [(v.rule_id, v.line) for v in found] == [
            ("REP011", 10),
            ("REP011", 17),
        ]
        messages = "\n".join(v.message for v in found)
        assert "mutates module-level '_SEEN'" in messages
        assert "lambda" in messages and "fork_blocks(...)" in messages

    def test_pure_fork_blocks_worker_is_clean(self):
        assert findings(DATAFLOW / "rep011_fork_good.py", ["REP011"]) == ()

    def test_shipped_fork_pool_workers_are_roots(self, monkeypatch):
        roots = set()
        resolve = ForkSafety._worker_roots

        def recorded(self, *args):
            found = resolve(self, *args)
            roots.update(found)
            return found

        monkeypatch.setattr(ForkSafety, "_worker_roots", recorded)
        src = Path(__file__).parents[2] / "src" / "repro"
        assert lint_paths([str(src)], ["REP011"]).ok
        names = {root.replace("\\", "/") for root in roots}
        assert any(n.endswith("store/streaming.py::_stream_block") for n in names)
        assert any(n.endswith("experiments/harness.py::_run_block") for n in names)

    def test_mutation_without_pool_path_not_flagged(self):
        # Module mutation alone (REP010 helpers write nothing; use the
        # good fixture's worker without its pool caller) stays clean:
        # the rule only fires on worker-reachable paths.
        assert findings(DATAFLOW / "rep010_helpers.py", ["REP011"]) == ()


class TestRep012BatchStreamParity:
    def test_flags_all_three_parity_breaks(self):
        found = findings(DATAFLOW / "rep012_bad.py", ["REP012"])
        assert [(v.rule_id, v.line) for v in found] == [
            ("REP012", 6),
            ("REP012", 14),
            ("REP012", 22),
        ]
        messages = "\n".join(v.message for v in found)
        assert "DenseOnlyEstimator implements a dense _estimate" in messages
        assert "HalfStreamEstimator implements _stream_chunk" in messages
        assert "LoopPolicy implements per-record propensity()" in messages

    def test_paired_and_history_aware_classes_pass(self):
        assert findings(DATAFLOW / "rep012_good.py", ["REP012"]) == ()

    def test_shipped_estimators_pass(self):
        src = Path(__file__).parents[2] / "src" / "repro"
        report = lint_paths([str(src)], ["REP012"])
        assert report.ok


class TestRep013ContractCoverage:
    def test_flags_unchecked_propensity_consumption(self):
        found = findings(DATAFLOW / "estimators", ["REP013"])
        assert [(v.rule_id, v.path.endswith("rep013_bad.py"), v.line) for v in found] == [
            ("REP013", True, 6)
        ]
        assert "reweight()" in found[0].message
        assert "check_propensities" in found[0].message

    def test_dominating_check_protects_the_helper(self):
        assert findings(DATAFLOW / "estimators" / "rep013_good.py", ["REP013"]) == ()

    def test_out_of_scope_modules_exempt(self):
        # Same consumption pattern outside estimator/streaming scope is
        # REP013-silent (the per-file rules still apply there).
        assert findings(DATAFLOW / "rep010_helpers.py", ["REP013"]) == ()


class TestWholeProgramOverSource:
    def test_self_lint_clean_under_dataflow_rules(self):
        src = Path(__file__).parents[2] / "src" / "repro"
        report = lint_paths(
            [str(src)], ["REP010", "REP011", "REP012", "REP013"]
        )
        assert report.ok, [v.location for v in report.violations]
