"""DM and SWITCH-DR ask a cross-fitted model for its fold-mean prediction.

Only DR's cross-fitting answers each record from the fold model that
held it out (by absolute trace position).  DM and SWITCH-DR ask
``CrossFitModel`` through ``predict_trace_for_decision`` /
``predict_trace``, i.e. the mean of the fold models, so their values do
not depend on where a record sits, and a model cross-fitted on a
different (even shorter) trace can be reused with ``fit_on_trace=False``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import core
from repro.cbn.scenario import WiseScenario
from repro.store import ShardedTrace

SHARD_SIZE = 250
CHUNK_SIZE = 120
CLIP = 1.5


def cross_fit():
    return core.CrossFitModel(
        lambda: core.TabularMeanModel(key_features=("isp",)), folds=3
    )


@pytest.fixture(scope="module")
def scenario():
    return WiseScenario()


@pytest.fixture(scope="module")
def trace(scenario):
    return scenario.generate_trace(np.random.default_rng(7))


@pytest.fixture(scope="module")
def sharded(trace, tmp_path_factory):
    directory = tmp_path_factory.mktemp("cross-fit") / "shards"
    trace.to_shards(directory, shard_size=SHARD_SIZE)
    return ShardedTrace(directory, chunk_records=CHUNK_SIZE)


def dm_terms(policy, context, predict):
    """``Σ_d mu(d|c) · predict(d)`` over positive-probability decisions,
    in decision-space order, as a per-record scalar loop."""
    row = policy.probability_matrix([context])[0]
    term = 0.0
    for probability, decision in zip(row, policy.space.decisions):
        if probability > 0.0:
            term = term + probability * predict(decision)
    return term


def mean_contributions(policy, model, trace):
    return np.array(
        [
            dm_terms(policy, r.context, lambda d, c=r.context: model.predict(c, d))
            for r in trace
        ]
    )


def switch_contributions(policy, old, model, trace):
    contributions = mean_contributions(policy, model, trace)
    for k, record in enumerate(trace):
        weight = policy.propensity(record.decision, record.context) / old.propensity(
            record.decision, record.context
        )
        if not weight > CLIP:
            residual = record.reward - model.predict(record.context, record.decision)
            contributions[k] = contributions[k] + weight * residual
    return contributions


def fold_contributions(policy, model, trace):
    return np.array(
        [
            dm_terms(
                policy,
                r.context,
                lambda d, k=k, c=r.context: model.predict_for_index(k, c, d),
            )
            for k, r in enumerate(trace)
        ]
    )


def test_dm_uses_the_fold_mean(scenario, trace, sharded):
    new = scenario.new_policy()
    model = cross_fit().fit(trace)
    expected = mean_contributions(new, model, trace)
    # The fold mean and the held-out fold answer differ on this trace, so
    # the comparison below tells the two paths apart.
    assert not np.array_equal(expected, fold_contributions(new, model, trace))
    for candidate in (trace, sharded):
        result = core.DirectMethod(cross_fit()).estimate(new, candidate)
        assert np.array_equal(result.contributions, expected)
        assert result.value == float(expected.mean())


def test_switch_dr_uses_the_fold_mean(scenario, trace, sharded):
    new, old = scenario.new_policy(), scenario.old_policy()
    model = cross_fit().fit(trace)
    expected = switch_contributions(new, old, model, trace)
    clipped = core.SwitchDR(cross_fit(), clip=CLIP).estimate(
        new, trace, old_policy=old
    )
    assert 0.0 < clipped.diagnostics["switched_fraction"] < 1.0
    assert np.array_equal(clipped.contributions, expected)
    result = core.SwitchDR(cross_fit(), clip=CLIP).estimate(
        new, sharded, old_policy=old
    )
    assert np.array_equal(result.contributions, expected)


def test_dr_answers_from_the_held_out_fold(scenario, trace, sharded):
    new, old = scenario.new_policy(), scenario.old_policy()
    model = cross_fit().fit(trace)
    expected = fold_contributions(new, model, trace)
    for candidate in (trace, sharded):
        result = core.DoublyRobust(cross_fit()).estimate(
            new, candidate, old_policy=old
        )
        assert result.diagnostics["dm_value"] == float(expected.mean())


@pytest.mark.parametrize("held_out", [300, 1500])
def test_prefitted_model_on_another_trace(scenario, trace, sharded, held_out):
    # A held-out trace shorter than (300) or longer than (1500) the one
    # evaluated: no evaluation position indexes its folds.
    new, old = scenario.new_policy(), scenario.old_policy()
    records = [
        record
        for seed in (99, 100)
        for record in scenario.generate_trace(np.random.default_rng(seed))
    ]
    model = cross_fit().fit(core.Trace(records[:held_out]))
    dm_expected = mean_contributions(new, model, trace)
    switch_expected = switch_contributions(new, old, model, trace)
    for candidate in (trace, sharded):
        dm = core.DirectMethod(model, fit_on_trace=False).estimate(new, candidate)
        assert np.array_equal(dm.contributions, dm_expected)
        switch = core.SwitchDR(model, clip=CLIP, fit_on_trace=False).estimate(
            new, candidate, old_policy=old
        )
        assert np.array_equal(switch.contributions, switch_expected)
