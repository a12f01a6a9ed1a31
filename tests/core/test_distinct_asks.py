"""An in-memory estimate asks each distinct (context, decision) pair once.

Fig 7a's trace holds 1,030 records but only 2 distinct contexts (one
object per ISP) and 4 decisions.  An in-memory trace runs through the
chunk engine as one chunk, so the target policy, the logging policy and
the reward model are asked about distinct contexts or pairs, and the
answers are gathered per record.  These tests count the rows each one
is asked about.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro import api, core
from repro.cbn.scenario import ISPS, WiseScenario
from repro.cbn.wise import WiseRewardModel
from repro.core.policy import Policy


class CountingPolicy(Policy):
    """Delegates to *policy*, logging the rows of each batch call."""

    def __init__(self, policy: Policy):
        super().__init__(policy.space)
        self._policy = policy
        self.matrix_calls: List[list] = []
        self.pair_calls: List[list] = []

    def probabilities(self, context):
        return self._policy.probabilities(context)

    def propensity(self, decision, context):
        return self._policy.propensity(decision, context)

    def propensity_batch(self, decisions, contexts):
        self.pair_calls.append(list(zip(contexts, decisions)))
        return self._policy.propensity_batch(decisions, contexts)

    def probability_matrix(self, contexts):
        self.matrix_calls.append(list(contexts))
        return self._policy.probability_matrix(contexts)


class CountingCBN(WiseRewardModel):
    """The Fig 7a CBN, logging the pairs of each ``predict_batch`` call."""

    def __init__(self):
        super().__init__(decision_factors=("frontend", "backend"))
        self.calls: List[list] = []

    def predict_batch(self, contexts, decisions):
        self.calls.append(list(zip(contexts, decisions)))
        return super().predict_batch(contexts, decisions)


@pytest.fixture(scope="module")
def scenario():
    return WiseScenario()


@pytest.fixture
def trace(scenario):
    return scenario.generate_trace(np.random.default_rng(11))


def distinct(rows) -> bool:
    keys = [(context["isp"], decision) for context, decision in rows]
    return len(keys) == len(set(keys))


def test_trace_has_two_contexts_and_eight_pairs(trace):
    assert len(trace) == 1030
    assert len({id(record.context) for record in trace}) == len(ISPS)
    assert len({(id(r.context), r.decision) for r in trace}) == 8


def test_dm_then_dr_ask_each_pair_once(scenario, trace):
    new = CountingPolicy(scenario.new_policy())
    old = CountingPolicy(scenario.old_policy())
    cbn = CountingCBN()
    dm = api.evaluate(
        trace, new, estimator="dm", model=cbn, propensities=old, diagnostics=False
    )
    # Every decision has positive probability in both contexts, so the
    # sweep asks all 2 x 4 pairs, each once.
    assert sum(len(rows) for rows in cbn.calls) == 8
    assert all(distinct(rows) for rows in cbn.calls)
    assert [len(rows) for rows in new.matrix_calls] == [2]
    assert old.pair_calls == []

    cbn.calls.clear()
    new.matrix_calls.clear()
    dr = api.evaluate(
        trace, new, estimator="dr", model=cbn, propensities=old, diagnostics=False
    )
    # The model term's 8 pairs plus the residuals' 8 logged pairs.
    assert sum(len(rows) for rows in cbn.calls) == 16
    assert all(distinct(rows) for rows in cbn.calls)
    assert [len(rows) for rows in new.matrix_calls] == [2]
    # The weights are entries of the same matrix rows: no pair asks.
    assert new.pair_calls == []
    assert [len(rows) for rows in old.matrix_calls] == [2]
    assert old.pair_calls == []
    assert np.isfinite(dm.value) and np.isfinite(dr.value)


def test_gathered_answers_equal_the_per_record_loop(scenario, trace):
    new = scenario.new_policy()
    cbn = WiseRewardModel(decision_factors=("frontend", "backend")).fit(trace)
    result = core.DirectMethod(cbn).estimate(new, trace)
    expected = []
    for record in trace:
        term = 0.0
        for decision, probability in new.probabilities(record.context).items():
            if probability > 0:
                term = term + probability * cbn.predict(record.context, decision)
        expected.append(term)
    np.testing.assert_array_equal(result.contributions, np.asarray(expected))

    logged = cbn.predict_trace(trace.columns())
    loop = [cbn.predict(record.context, record.decision) for record in trace]
    np.testing.assert_array_equal(logged, np.asarray(loop))
    positions = np.asarray([5, 3, 900, 3, 17])
    subset = cbn.predict_trace(trace.columns(), positions=positions)
    np.testing.assert_array_equal(subset, np.asarray(loop)[positions])


def test_dense_estimate_ignores_stream_workers(scenario, trace, monkeypatch):
    from repro import obs

    monkeypatch.setenv("REPRO_STREAM_WORKERS", "not-a-number")
    with obs.capture() as recorder:
        result = core.IPS().estimate(
            scenario.new_policy(), trace, old_policy=scenario.old_policy()
        )
    counters = recorder.metrics.snapshot()["counters"]
    assert counters["ope.stream.chunks"] == 1
    assert not any(key.startswith("ope.stream.sequential") for key in counters)
    assert np.isfinite(result.value)
