"""Failure-injection tests: estimators under hostile inputs.

A production evaluation library must fail loudly and informatively on
degenerate traces (the paper's pitfalls, taken to their extremes), not
return quiet garbage.
"""

import numpy as np
import pytest

from repro import core
from repro.core.types import ClientContext, Trace, TraceRecord
from repro.errors import EstimatorError, PropensityError, TraceError


SPACE = core.DecisionSpace(["a", "b", "c"])
NEW = core.DeterministicPolicy(SPACE, lambda c: "c")


def _record(decision="a", reward=1.0, propensity=0.5, **features):
    features = features or {"x": 0.0}
    return TraceRecord(ClientContext(features), decision, reward, propensity=propensity)


class TestDegenerateTraces:
    def test_single_record_trace(self):
        trace = Trace([_record(decision="c", propensity=1.0)])
        result = core.IPS().estimate(NEW, trace)
        assert result.value == 1.0
        assert np.isnan(result.std_error)  # honest about unknown spread

    def test_all_zero_overlap_ips_returns_zero(self):
        """IPS on a no-overlap trace is 0 — mathematically correct but
        useless; the diagnostics must flag it."""
        trace = Trace([_record(decision="a") for _ in range(20)])
        result = core.IPS().estimate(NEW, trace)
        assert result.value == 0.0
        assert result.diagnostics["zero_weight_fraction"] == 1.0
        report = core.overlap_report(NEW, trace)
        assert not report.healthy()

    def test_tiny_propensities_blow_up_visibly(self):
        trace = Trace(
            [_record(decision="c", propensity=1e-6, reward=2.0)]
            + [_record(decision="a") for _ in range(99)]
        )
        result = core.IPS().estimate(NEW, trace)
        assert result.diagnostics["max_weight"] == pytest.approx(1e6)
        assert result.diagnostics["ess"] < 2.0

    def test_extreme_rewards_finite(self):
        trace = Trace(
            [
                _record(decision="c", reward=1e12, propensity=0.5),
                _record(decision="c", reward=-1e12, propensity=0.5),
            ]
        )
        model = core.ConstantRewardModel()
        result = core.DoublyRobust(model).estimate(NEW, trace)
        assert np.isfinite(result.value)

    def test_nan_reward_rejected_at_construction(self):
        with pytest.raises(TraceError):
            _record(reward=float("nan"))

    def test_zero_propensity_rejected_at_construction(self):
        with pytest.raises(TraceError):
            _record(propensity=0.0)

    def test_mixed_missing_propensities_rejected(self):
        trace = Trace(
            [
                _record(decision="c", propensity=0.5),
                TraceRecord(ClientContext(x=0.0), "c", 1.0),  # no propensity
            ]
        )
        with pytest.raises(PropensityError):
            core.IPS().estimate(NEW, trace)

    def test_decision_outside_space(self):
        from repro.errors import PolicyError

        trace = Trace([_record(decision="zzz")])
        with pytest.raises(PolicyError):
            core.IPS().estimate(NEW, trace)


class TestHostilePolicies:
    def test_policy_probabilities_not_summing_rejected(self):
        broken = core.FunctionPolicy(SPACE, lambda c: {"a": 0.7})
        trace = Trace([_record(decision="a")])
        from repro.errors import PolicyError

        with pytest.raises(PolicyError):
            core.IPS().estimate(broken, trace)

    def test_old_policy_inconsistent_with_trace(self):
        """Old policy says the logged decision was impossible."""
        old = core.DeterministicPolicy(SPACE, lambda c: "b")
        trace = Trace([_record(decision="a")])
        with pytest.raises(PropensityError):
            core.IPS().estimate(NEW, trace, old_policy=old)


class TestModelFailuresSurface:
    def test_dm_with_failing_model_propagates(self):
        class ExplodingModel(core.RewardModel):
            def _fit(self, trace):
                pass

            def _predict(self, context, decision):
                raise ValueError("model server unreachable")

        trace = Trace([_record(decision="c")])
        with pytest.raises(ValueError, match="unreachable"):
            core.DirectMethod(ExplodingModel()).estimate(NEW, trace)

    def test_bootstrap_survives_partial_failures(self):
        """Bootstrap resamples that lose all overlap are skipped, and
        the result reports on the survivors."""
        records = [_record(decision="c", reward=2.0, propensity=0.5)] * 3
        records += [_record(decision="a") for _ in range(30)]
        trace = Trace(records)
        result = core.bootstrap_ci(
            core.SelfNormalizedIPS(), NEW, trace, replicates=60, rng=0
        )
        assert result.replicates.size >= 30
        assert np.isfinite(result.lower)

    def test_bootstrap_refuses_when_most_replicates_fail(self):
        """If more than half the resamples are unusable, the bootstrap
        raises rather than reporting a sham interval built on survivors."""

        class MostlyFailingEstimator(core.OffPolicyEstimator):
            requires_propensities = False

            def __init__(self):
                self.calls = 0

            @property
            def name(self):
                return "flaky"

            def _stream_chunk(self, new_policy, chunk, propensities, offset):
                return {"rewards": chunk.columns().rewards}

            def _stream_finalize(self, columns, n):
                self.calls += 1
                if self.calls > 1 and self.calls % 3 != 0:  # point est. ok,
                    raise EstimatorError("degenerate resample")  # ~67% fail
                from repro.core.estimators.base import result_from_contributions

                return result_from_contributions("flaky", columns["rewards"])

        trace = Trace([_record(decision="c", reward=2.0)] * 20)
        with pytest.raises(EstimatorError):
            core.bootstrap_ci(MostlyFailingEstimator(), NEW, trace, replicates=30, rng=0)
