"""Tests for the estimator fallback chain (repro.runtime.fallback)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import api, core
from repro.core.types import Trace, TraceRecord
from repro.errors import EstimatorError, FallbackExhaustedError
from repro.runtime import (
    FALLBACK_DIAGNOSTIC,
    EstimatorFallbackChain,
    degradation_label,
    fallback_metadata,
)

from tests.conftest import make_uniform_trace


def _truth(context, decision):
    return {"a": 1.0, "b": 2.0, "c": 3.0}[decision] + 0.1 * float(context["x"])


@pytest.fixture
def trace(abc_space, rng):
    return make_uniform_trace(abc_space, _truth, rng, n=400, noise=0.2)


@pytest.fixture
def propensity_free_trace(trace):
    """The same trace with its propensity column lost (a common trace
    corruption: the logging pipeline dropped the column)."""
    return Trace(
        TraceRecord(
            context=record.context,
            decision=record.decision,
            reward=record.reward,
            propensity=None,
        )
        for record in trace
    )


@pytest.fixture
def new_policy(abc_space):
    return core.DeterministicPolicy(abc_space, lambda c: "c")


def _chain():
    return EstimatorFallbackChain(
        [
            core.DoublyRobust(core.TabularMeanModel()),
            core.SelfNormalizedIPS(),
            core.DirectMethod(core.TabularMeanModel()),
        ]
    )


class TestConstruction:
    def test_empty_chain_rejected(self):
        with pytest.raises(EstimatorError, match="at least one"):
            EstimatorFallbackChain([])

    def test_non_estimator_link_rejected(self):
        with pytest.raises(EstimatorError, match="must be estimators"):
            EstimatorFallbackChain([object()])

    def test_name_spells_out_the_chain(self):
        assert _chain().name == "chain(dr>snips>dm)"

    def test_links_exposed_in_order(self):
        assert [link.name for link in _chain().links] == ["dr", "snips", "dm"]


class TestNoDegradation:
    def test_healthy_inputs_answered_by_first_link(self, trace, new_policy):
        result = _chain().estimate(new_policy, trace)
        metadata = fallback_metadata(result)
        assert metadata["answered_by"] == "dr"
        assert metadata["chain"] == ["dr", "snips", "dm"]
        assert metadata["hops"] == []
        assert degradation_label(result) is None

    def test_matches_the_bare_estimator(self, trace, new_policy):
        chained = _chain().estimate(new_policy, trace)
        bare = core.DoublyRobust(core.TabularMeanModel()).estimate(new_policy, trace)
        assert chained.value == pytest.approx(bare.value)


class TestDegradation:
    def test_missing_propensities_degrade_to_dm(
        self, propensity_free_trace, new_policy
    ):
        result = _chain().estimate(new_policy, propensity_free_trace)
        metadata = fallback_metadata(result)
        assert metadata["answered_by"] == "dm"
        assert [hop["link"] for hop in metadata["hops"]] == ["dr", "snips"]
        assert degradation_label(result) == "dm"

    def test_hops_carry_error_and_declared_modes(
        self, propensity_free_trace, new_policy
    ):
        result = _chain().estimate(new_policy, propensity_free_trace)
        for hop in fallback_metadata(result)["hops"]:
            assert hop["error_type"]
            assert hop["message"]
            assert "missing-propensities" in hop["declared_modes"]

    def test_degraded_answer_matches_the_dm_tail(
        self, propensity_free_trace, new_policy
    ):
        chained = _chain().estimate(new_policy, propensity_free_trace)
        bare = core.DirectMethod(core.TabularMeanModel()).estimate(
            new_policy, propensity_free_trace
        )
        assert chained.value == pytest.approx(bare.value)

    def test_original_diagnostics_preserved(self, propensity_free_trace, new_policy):
        result = _chain().estimate(new_policy, propensity_free_trace)
        assert FALLBACK_DIAGNOSTIC in result.diagnostics
        # The answering link's own diagnostics survive alongside.
        assert len(result.diagnostics) >= 1


class TestExhaustion:
    def test_every_link_failing_raises_with_all_hops(
        self, propensity_free_trace, new_policy
    ):
        chain = EstimatorFallbackChain(
            [core.SelfNormalizedIPS(), core.IPS()]
        )
        with pytest.raises(FallbackExhaustedError) as excinfo:
            chain.estimate(new_policy, propensity_free_trace)
        message = str(excinfo.value)
        assert "snips" in message and "ips" in message

    def test_exhaustion_counts_as_one_estimator_error(
        self, propensity_free_trace, new_policy
    ):
        # FallbackExhaustedError extends EstimatorError, so the harness
        # records an exhausted chain as one failed run, not a crash.
        chain = EstimatorFallbackChain([core.SelfNormalizedIPS()])
        with pytest.raises(EstimatorError):
            chain.estimate(new_policy, propensity_free_trace)


class TestHelpers:
    def test_non_chain_result_has_no_metadata(self, trace, new_policy):
        bare = core.DirectMethod(core.TabularMeanModel()).estimate(new_policy, trace)
        assert fallback_metadata(bare) is None
        assert degradation_label(bare) is None


class _AlwaysFails(core.OffPolicyEstimator):
    """A link whose contracts never hold — forces a fallback hop."""

    requires_propensities = False
    failure_modes = ("model-fit-failure",)

    @property
    def name(self):
        return "broken"

    def _stream_chunk(self, new_policy, chunk, propensities, offset):
        raise EstimatorError("injected: this link always fails")


class TestReportRendering:
    def test_evaluation_report_surfaces_the_degradation(self, trace, new_policy):
        chain = EstimatorFallbackChain(
            [_AlwaysFails(), core.DirectMethod(core.TabularMeanModel())]
        )
        report = api.compare(trace, new_policy, extra_estimators={"chain": chain})
        text = report.render()
        assert "degraded to dm" in text
        assert "broken: EstimatorError" in text
