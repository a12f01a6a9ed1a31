"""One fitted reward model per panel.

``api.compare`` hands its registry-built model-based members one shared
default model, and ``run_fig7a`` hands WISE and DR one CBN: the model is
fit once and reused.  Two fits on the same trace give identical tables,
so reports, bootstrap intervals and the Fig 7a summaries must not move.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest

from repro import api, core
from repro.cbn.scenario import WiseScenario
from repro.cbn.wise import WiseRewardModel
from repro.core.metrics import relative_error
from repro.core.models.tabular import TabularMeanModel
from repro.experiments.fig7 import run_fig7a
from repro.experiments.harness import run_repeated

from tests.conftest import make_uniform_trace


def _truth(context, decision):
    return {"a": 1.0, "b": 2.0, "c": 3.0}[decision]


@pytest.fixture
def trace(abc_space, rng):
    return make_uniform_trace(abc_space, _truth, rng, n=300, noise=0.2)


@pytest.fixture
def new_policy(abc_space):
    greedy = core.DeterministicPolicy(abc_space, lambda c: "c")
    return core.EpsilonGreedyPolicy(greedy, 0.2)


@pytest.fixture
def fits(monkeypatch):
    """Every TabularMeanModel.fit call, by model instance."""
    calls = []
    fit = TabularMeanModel.fit

    def counted(self, trace):
        calls.append(self)
        return fit(self, trace)

    monkeypatch.setattr(TabularMeanModel, "fit", counted)
    return calls


def test_bootstrap_reuses_the_point_estimates_model(trace, new_policy, fits):
    estimator = core.DoublyRobust(TabularMeanModel())
    core.bootstrap_ci(estimator, new_policy, trace, replicates=20, rng=0)
    assert fits == [estimator.model]


def test_compare_fits_one_shared_model(trace, new_policy, fits):
    report = api.compare(trace, new_policy, bootstrap_replicates=20, rng=0)
    assert len(fits) == 1
    assert set(report.estimates) == {"dm", "snips", "dr"}


def test_shared_model_leaves_the_panel_unchanged(trace, new_policy):
    report = api.compare(trace, new_policy, bootstrap_replicates=20, rng=0)
    # The per-member fresh models every member used to get.
    for name, estimator in (
        ("dm", core.DirectMethod(TabularMeanModel())),
        ("snips", core.SelfNormalizedIPS()),
        ("dr", core.DoublyRobust(TabularMeanModel())),
    ):
        alone = estimator.estimate(new_policy, trace)
        assert report.estimates[name].value == alone.value
        assert np.array_equal(report.estimates[name].contributions, alone.contributions)
        assert report.estimates[name].diagnostics == alone.diagnostics
    expected = core.bootstrap_ci(
        core.DoublyRobust(TabularMeanModel()), new_policy, trace, replicates=20, rng=0
    )
    assert report.bootstrap.lower == expected.lower
    assert report.bootstrap.upper == expected.upper
    assert np.array_equal(report.bootstrap.replicates, expected.replicates)


def test_fig7a_summaries_match_a_fit_per_estimator():
    scenario = WiseScenario()
    old, new = scenario.old_policy(), scenario.new_policy()

    def fit_per_estimator(rng: np.random.Generator) -> Dict[str, float]:
        trace = scenario.generate_trace(rng)
        truth = scenario.ground_truth_value(new, trace)
        errors = {}
        for label, name in (("wise", "dm"), ("dr", "dr")):
            report = api.evaluate(
                trace,
                new,
                estimator=name,
                model=WiseRewardModel(decision_factors=("frontend", "backend")),
                propensities=old,
                diagnostics=False,
            )
            errors[label] = relative_error(truth, report.value)
        return errors

    expected = run_repeated(
        "fig7a-trace-bias",
        fit_per_estimator,
        runs=3,
        seed=11,
        baseline="wise",
        treatment="dr",
    )
    result = run_fig7a(runs=3, seed=11, scenario=scenario)
    assert result.failed_runs == 0
    assert result.summaries == expected.summaries
