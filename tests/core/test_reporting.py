"""Tests for the one-stop evaluation report built by ``api.compare``."""

import numpy as np
import pytest

from repro import api, core
from repro.core.types import ClientContext, Trace, TraceRecord
from repro.errors import EstimatorError

from tests.conftest import make_uniform_trace


def _truth(context, decision):
    return {"a": 1.0, "b": 2.0, "c": 3.0}[decision]


@pytest.fixture
def trace(abc_space, rng):
    return make_uniform_trace(abc_space, _truth, rng, n=400, noise=0.2)


@pytest.fixture
def new_policy(abc_space):
    return core.DeterministicPolicy(abc_space, lambda c: "c")


class TestEvaluatePolicy:
    def test_standard_panel(self, trace, new_policy):
        result = api.compare(trace, new_policy)
        assert set(result.estimates) == {"dm", "snips", "dr"}
        assert result.recommended == "dr"
        assert result.value == pytest.approx(3.0, abs=0.25)
        assert result.overlap.n == len(trace)
        assert result.bootstrap is None

    def test_with_bootstrap(self, trace, new_policy):
        result = api.compare(
            trace, new_policy, bootstrap_replicates=40, rng=0
        )
        assert result.bootstrap is not None
        assert result.bootstrap.lower <= result.value <= result.bootstrap.upper

    def test_custom_model_shared(self, trace, new_policy):
        model = core.OracleRewardModel(_truth)
        result = api.compare(trace, new_policy, model=model)
        # With an exact model DM and DR agree in expectation (here the
        # rewards are noisy, so they differ only via the correction).
        assert result.estimates["dm"].value == pytest.approx(3.0, abs=1e-9)

    def test_extra_estimators(self, trace, new_policy):
        result = api.compare(
            trace,
            new_policy,
            extra_estimators={"ips": core.IPS()},
        )
        assert "ips" in result.estimates

    def test_partial_failure_reported(self, abc_space, new_policy):
        # No overlap at all: SNIPS fails, DM survives.
        trace = Trace(
            [
                TraceRecord(
                    ClientContext(x=float(i % 3), isp="i"), "a", 1.0, propensity=0.5
                )
                for i in range(20)
            ]
        )
        result = api.compare(trace, new_policy)
        assert "snips" in result.failed
        assert "dm" in result.estimates
        assert not result.overlap.healthy()

    def test_render_sections(self, trace, new_policy):
        text = api.compare(trace, new_policy, bootstrap_replicates=20, rng=0).render()
        assert "evaluation report" in text
        assert "recommended" in text
        assert "bootstrap" in text
        assert "effective sample size" in text

    def test_empty_trace_rejected(self, new_policy):
        with pytest.raises(EstimatorError):
            api.compare(Trace(), new_policy)
