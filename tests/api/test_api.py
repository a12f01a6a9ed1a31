"""Round-trip tests for the :mod:`repro.api` facade.

The facade's contract is that it adds nothing numerically: building an
estimator through the registry and calling :func:`repro.api.evaluate`
must be bit-identical to constructing the class and calling
``estimate()`` directly.  These tests pin that contract and the
registry's error paths.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import api, core
from repro.api.registry import Registry, default_registry
from repro.errors import EstimatorError

from tests.conftest import make_uniform_trace


def _truth(context, decision):
    return {"a": 1.0, "b": 2.0, "c": 3.0}[decision]


@pytest.fixture
def trace(abc_space, rng):
    return make_uniform_trace(abc_space, _truth, rng, n=300, noise=0.2)


@pytest.fixture
def new_policy(abc_space):
    return core.DeterministicPolicy(abc_space, lambda c: "c")


class TestFacadeBitIdentity:
    """facade == direct call, bit for bit."""

    CASES = {
        "dm": lambda: core.DirectMethod(core.TabularMeanModel()),
        "snips": lambda: core.SelfNormalizedIPS(),
        "dr": lambda: core.DoublyRobust(core.TabularMeanModel()),
        "matching": lambda: core.MatchingEstimator(),
        "clipped-ips": lambda: core.ClippedIPS(),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_logged_propensities(self, name, trace, new_policy):
        direct = self.CASES[name]().estimate(new_policy, trace)
        report = api.evaluate(trace, new_policy, estimator=name)
        assert report.value == direct.value
        assert report.result.std_error == direct.std_error or (
            np.isnan(report.result.std_error) and np.isnan(direct.std_error)
        )
        np.testing.assert_array_equal(
            report.result.contributions, direct.contributions
        )

    @pytest.mark.parametrize("name", ["dr", "snips"])
    def test_policy_propensities(self, name, trace, new_policy, abc_space):
        old = core.UniformRandomPolicy(abc_space)
        direct = self.CASES[name]().estimate(new_policy, trace, old_policy=old)
        report = api.evaluate(trace, new_policy, estimator=name, propensities=old)
        assert report.value == direct.value

    def test_clip_forwarded(self, trace, new_policy):
        direct = core.ClippedIPS(clip=2.0).estimate(new_policy, trace)
        report = api.evaluate(trace, new_policy, estimator="clipped-ips", clip=2.0)
        assert report.value == direct.value

    def test_shared_model_instance(self, trace, new_policy):
        model = core.OracleRewardModel(_truth)
        direct = core.DirectMethod(model).estimate(new_policy, trace)
        report = api.evaluate(trace, new_policy, estimator="dm", model=model)
        assert report.value == direct.value
        assert report.value == pytest.approx(3.0, abs=1e-9)

    def test_bootstrap_round_trip(self, trace, new_policy):
        estimator = core.DoublyRobust(core.TabularMeanModel())
        direct = core.bootstrap_ci(
            estimator, new_policy, trace, replicates=40, rng=0
        )
        report = api.evaluate(
            trace, new_policy, estimator="dr", bootstrap_replicates=40, rng=0
        )
        assert report.bootstrap is not None
        assert report.bootstrap.lower == direct.lower
        assert report.bootstrap.upper == direct.upper

    def test_estimator_instance_passthrough(self, trace, new_policy):
        instance = core.ClippedIPS(clip=3.0)
        direct = instance.estimate(new_policy, trace)
        report = api.evaluate(trace, new_policy, estimator=instance)
        assert report.value == direct.value
        assert report.recommended == instance.name


class TestCompare:
    def test_extra_estimators_and_instances(self, trace, new_policy):
        report = api.compare(
            trace,
            new_policy,
            estimators=["dm", core.ClippedIPS(clip=4.0)],
            extra_estimators={"ips": core.IPS()},
        )
        assert set(report.estimates) == {"dm", "clipped-ips", "ips"}
        assert report.recommended == "dm"

    def test_partial_failure_reported_not_raised(self, abc_space, new_policy, rng):
        # A trace the new policy never overlaps: SNIPS fails, DM survives.
        old = core.DeterministicPolicy(abc_space, lambda c: "a")
        records = []
        for _ in range(50):
            context = core.ClientContext(x=1.0, isp="isp-0")
            records.append(
                core.TraceRecord(
                    context=context,
                    decision="a",
                    reward=1.0,
                    propensity=1.0,
                )
            )
        degenerate = core.Trace(records)
        report = api.compare(degenerate, new_policy, estimators=["dm", "snips"])
        assert "snips" in report.failed
        assert report.recommended == "dm"

    def test_all_failed_raises(self, abc_space, new_policy):
        records = [
            core.TraceRecord(
                context=core.ClientContext(x=1.0, isp="isp-0"),
                decision="a",
                reward=1.0,
                propensity=1.0,
            )
            for _ in range(20)
        ]
        degenerate = core.Trace(records)
        with pytest.raises(EstimatorError):
            api.compare(degenerate, new_policy, estimators=["snips"])

    def test_diagnostics_off_skips_overlap(self, trace, new_policy):
        report = api.compare(trace, new_policy, diagnostics=False)
        assert report.overlap is None
        assert "recommended" in report.render()


class TestRegistry:
    def test_unknown_name_lists_known(self):
        with pytest.raises(EstimatorError, match="dr.*snips|snips.*dr"):
            default_registry.estimator_spec("drr")

    def test_model_rejected_for_model_free_estimator(self):
        with pytest.raises(EstimatorError, match="does not take a reward model"):
            default_registry.build_estimator("ips", model=core.TabularMeanModel())

    def test_clip_rejected_when_unsupported(self):
        with pytest.raises(EstimatorError, match="does not support clip="):
            default_registry.build_estimator("dm", clip=5.0)

    def test_duplicate_registration_needs_replace(self):
        registry = Registry()
        registry.register_estimator("ips", core.IPS)
        with pytest.raises(EstimatorError, match="replace=True"):
            registry.register_estimator("ips", core.IPS)
        registry.register_estimator("ips", core.SelfNormalizedIPS, replace=True)
        assert isinstance(registry.build_estimator("ips"), core.SelfNormalizedIPS)

    def test_build_model_forwards_options(self):
        model = default_registry.build_model("knn", k=7)
        assert isinstance(model, core.KNNRewardModel)
        with pytest.raises(EstimatorError, match="registered models"):
            default_registry.build_model("nope")

    def test_default_names(self):
        assert default_registry.estimator_names() == (
            "clipped-ips",
            "dm",
            "dr",
            "ips",
            "matching",
            "replay-dr",
            "sndr",
            "snips",
            "switch-dr",
        )
        assert "tabular" in default_registry.model_names()

    def test_instance_with_model_or_clip_rejected(self, trace, new_policy):
        with pytest.raises(EstimatorError, match="pre-built estimator"):
            api.evaluate(
                trace,
                new_policy,
                estimator=core.IPS(),
                clip=1.0,
            )

    def test_custom_registry_threaded_through(self, trace, new_policy):
        registry = Registry()
        registry.register_estimator("only", core.SelfNormalizedIPS)
        report = api.evaluate(trace, new_policy, estimator="only", registry=registry)
        assert report.recommended == "snips"
        with pytest.raises(EstimatorError):
            api.evaluate(trace, new_policy, estimator="dr", registry=registry)

    def test_unknown_keyword_rejected(self):
        # The constructor vocabulary is closed: the removed max_weight=
        # and tau= aliases are unknown keywords like any other.
        with pytest.raises(TypeError):
            core.ClippedIPS(threshold=2.0)
        with pytest.raises(TypeError):
            core.ClippedIPS(max_weight=2.0)
        with pytest.raises(TypeError):
            core.SwitchDR(core.TabularMeanModel(), tau=4.0)


class TestReExports:
    def test_top_level_functions_are_the_facade(self):
        assert repro.evaluate is api.evaluate
        assert repro.compare is api.compare
        assert repro.api is api
