"""Tests for overlap/randomness diagnostics."""

import numpy as np
import pytest

from repro import core
from repro.core.diagnostics import overlap_report, randomness_report
from repro.core.types import ClientContext, Trace, TraceRecord
from repro.errors import PropensityError

from tests.conftest import make_uniform_trace


def _truth(context, decision):
    return {"a": 1.0, "b": 2.0, "c": 3.0}[decision]


class TestOverlapReport:
    def test_healthy_under_uniform_logging(self, abc_space, rng):
        trace = make_uniform_trace(abc_space, _truth, rng, n=600)
        new = core.UniformRandomPolicy(abc_space)
        report = overlap_report(new, trace, old_policy=core.UniformRandomPolicy(abc_space))
        assert report.healthy()
        assert report.ess == pytest.approx(600, rel=0.01)
        assert report.n == 600

    def test_warns_on_thin_overlap(self, abc_space, rng):
        # Old policy almost never takes 'c'; new policy always does.
        base = core.DeterministicPolicy(abc_space, lambda c: "a")
        old = core.EpsilonGreedyPolicy(base, epsilon=0.03)
        records = []
        for _ in range(300):
            context = ClientContext(x=0.0)
            decision = old.sample(context, rng)
            records.append(
                TraceRecord(
                    context, decision, 1.0, propensity=old.propensity(decision, context)
                )
            )
        trace = Trace(records)
        new = core.DeterministicPolicy(abc_space, lambda c: "c")
        report = overlap_report(new, trace, old_policy=old)
        assert not report.healthy()
        assert any("effective sample size" in w for w in report.warnings)

    def test_no_match_warning(self, abc_space):
        trace = Trace(
            [TraceRecord(ClientContext(x=0.0), "a", 1.0, propensity=0.5)] * 3
        )
        new = core.DeterministicPolicy(abc_space, lambda c: "c")
        report = overlap_report(new, trace)
        assert report.match_fraction == 0.0
        assert any("matching" in w or "matches" in w for w in report.warnings)

    def test_decision_coverage_counts(self, abc_space, rng):
        trace = make_uniform_trace(abc_space, _truth, rng, n=300)
        new = core.UniformRandomPolicy(abc_space)
        report = overlap_report(new, trace)
        assert sum(report.decision_coverage.values()) == 300
        assert set(report.decision_coverage) == {"a", "b", "c"}

    def test_slice_coverage_and_matches_count_its_own_records(self, abc_space):
        # Two context objects; the slice drops every "a" record, so its
        # vocabulary (the parent's, in code order a, c, b) holds a
        # decision the slice never contains.
        left, right = ClientContext(x=0.0), ClientContext(x=1.0)
        logged = [(left, "a"), (right, "c"), (left, "b"), (right, "c"), (left, "c")]
        logged += [(right, "b"), (left, "b"), (right, "c")]
        trace = Trace([TraceRecord(c, d, 1.0, propensity=0.5) for c, d in logged])
        trace.columns()  # built first, so the slice shares the parent's codes
        part = trace[1:]
        assert part.columns().decision_vocabulary == ("a", "c", "b")
        new = core.DeterministicPolicy(
            abc_space, lambda context: "c" if context is right else "b"
        )
        report = overlap_report(new, part)
        assert list(report.decision_coverage.items()) == [("c", 4), ("b", 3)]
        # Greedy matches: right→"c" three times, left→"b" twice.
        assert report.match_fraction == 5 / 7

    def test_render_contains_key_lines(self, abc_space, rng):
        trace = make_uniform_trace(abc_space, _truth, rng, n=100)
        report = overlap_report(core.UniformRandomPolicy(abc_space), trace)
        text = report.render()
        assert "effective sample size" in text
        assert "min logged propensity" in text

    def test_requires_propensity_source(self, abc_space):
        trace = Trace([TraceRecord(ClientContext(x=0.0), "a", 1.0)])
        with pytest.raises(PropensityError):
            overlap_report(core.UniformRandomPolicy(abc_space), trace)


class TestRandomnessReport:
    def test_uniform_policy_max_entropy(self, abc_space, rng):
        trace = make_uniform_trace(abc_space, _truth, rng, n=100)
        report = randomness_report(core.UniformRandomPolicy(abc_space), trace)
        assert report.mean_entropy == pytest.approx(np.log(3), abs=1e-9)
        assert report.deterministic_fraction == 0.0

    def test_deterministic_policy_zero_entropy(self, abc_space, rng):
        trace = make_uniform_trace(abc_space, _truth, rng, n=50)
        policy = core.DeterministicPolicy(abc_space, lambda c: "a")
        report = randomness_report(policy, trace)
        assert report.mean_entropy == 0.0
        assert report.deterministic_fraction == 1.0

    def test_render(self, abc_space, rng):
        trace = make_uniform_trace(abc_space, _truth, rng, n=20)
        text = randomness_report(core.UniformRandomPolicy(abc_space), trace).render()
        assert "entropy" in text
