"""Property tests: the batch APIs are bit-identical to their scalar loops.

The perf rewrite's contract is strict: every vectorised override of
``propensity_batch`` / ``probability_matrix`` / ``greedy_decision_batch``
/ ``predict_batch`` must return exactly what the base-class loop default
(one scalar call per record) returns — same values bit for bit, same
errors in the same order.  These tests pin that contract with hypothesis
over generated traces and policy/model families, so a future "fast path"
that drifts by an ulp or reorders validation fails here, not in a figure.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import core
from repro.core.estimators import IPS, DirectMethod
from repro.core.models.base import ConstantRewardModel, RewardModel
from repro.core.models.ensemble import CrossFitModel, EnsembleRewardModel
from repro.core.models.knn import KNNRewardModel
from repro.core.models.tabular import TabularMeanModel
from repro.core.policy import DeterministicPolicy, Policy
from repro.core.propensity import (
    EmpiricalPropensityModel,
    EstimatedPropensitySource,
    FlooredPropensitySource,
    LoggedPropensitySource,
    LogisticPropensityModel,
    PolicyPropensitySource,
    PropensityModel,
    PropensitySource,
)
from repro.core.types import ClientContext, Trace, TraceRecord
from repro.errors import PolicyError, PropensityError

DECISIONS = ("a", "b", "c")
SPACE = core.DecisionSpace(DECISIONS)

#: Exact-sum distributions for the tabular policy (no normalisation
#: rounding to worry about).
_TABLE_ROWS = (
    {"a": 0.5, "b": 0.25, "c": 0.25},
    {"a": 0.25, "b": 0.5, "c": 0.25},
    {"a": 0.125, "b": 0.375, "c": 0.5},
)


# -- strategies ---------------------------------------------------------------

@st.composite
def contexts(draw):
    x = draw(st.integers(min_value=0, max_value=4))
    isp = draw(st.sampled_from(["isp-0", "isp-1"]))
    return ClientContext(x=float(x), isp=isp)


@st.composite
def traces(draw, min_size=4, max_size=25):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    records = []
    for _ in range(size):
        records.append(
            TraceRecord(
                context=draw(contexts()),
                decision=draw(st.sampled_from(DECISIONS)),
                reward=draw(
                    st.floats(
                        min_value=-10,
                        max_value=10,
                        allow_nan=False,
                        allow_infinity=False,
                    )
                ),
                propensity=draw(st.floats(min_value=0.05, max_value=1.0)),
            )
        )
    return Trace(records)


@st.composite
def policies(draw):
    """One policy from every family that overrides a batch method, plus
    one that overrides none."""
    kind = draw(
        st.sampled_from(
            [
                "uniform",
                "deterministic",
                "epsilon",
                "softmax",
                "mixture",
                "tabular",
                "function",
            ]
        )
    )
    target = draw(st.sampled_from(DECISIONS))
    if kind == "uniform":
        return core.UniformRandomPolicy(SPACE)
    if kind == "deterministic":
        return core.DeterministicPolicy(SPACE, lambda context: target)
    if kind == "epsilon":
        epsilon = draw(st.floats(min_value=0.0, max_value=1.0))
        return core.EpsilonGreedyPolicy(
            core.DeterministicPolicy(SPACE, lambda context: target), epsilon
        )
    if kind == "softmax":
        temperature = draw(st.floats(min_value=0.2, max_value=3.0))
        base = {"a": 1.0, "b": 2.0, "c": 3.0}
        return core.SoftmaxPolicy(
            SPACE,
            lambda context, decision: base[decision] + 0.1 * float(context["x"]),
            temperature=temperature,
        )
    if kind == "mixture":
        weight = draw(st.floats(min_value=0.0, max_value=1.0))
        return core.MixturePolicy(
            [
                core.DeterministicPolicy(SPACE, lambda context: target),
                core.UniformRandomPolicy(SPACE),
            ],
            [weight, 1.0 - weight],
        )
    if kind == "function":
        return core.FunctionPolicy(
            SPACE, lambda context: _TABLE_ROWS[int(context["x"]) % len(_TABLE_ROWS)]
        )
    table = {
        ("isp-0",): draw(st.sampled_from(_TABLE_ROWS)),
        ("isp-1",): draw(st.sampled_from(_TABLE_ROWS)),
    }
    return core.TabularPolicy(SPACE, ("isp",), table)


@st.composite
def full_support_policies(draw):
    """Policies that never assign zero propensity (valid logging policies)."""
    kind = draw(st.sampled_from(["uniform", "epsilon", "softmax"]))
    if kind == "uniform":
        return core.UniformRandomPolicy(SPACE)
    if kind == "epsilon":
        target = draw(st.sampled_from(DECISIONS))
        epsilon = draw(st.floats(min_value=0.1, max_value=1.0))
        return core.EpsilonGreedyPolicy(
            core.DeterministicPolicy(SPACE, lambda context: target), epsilon
        )
    base = {"a": 1.0, "b": 2.0, "c": 3.0}
    return core.SoftmaxPolicy(
        SPACE,
        lambda context, decision: base[decision] + 0.1 * float(context["x"]),
        temperature=draw(st.floats(min_value=0.5, max_value=3.0)),
    )


@st.composite
def reward_models(draw):
    """One model from every family that overrides ``predict_batch``."""
    kind = draw(st.sampled_from(["tabular", "knn", "constant", "ensemble"]))
    if kind == "tabular":
        keys = draw(st.sampled_from([("isp",), ("isp", "x"), None]))
        return TabularMeanModel(key_features=keys)
    if kind == "knn":
        return KNNRewardModel(
            k=draw(st.integers(min_value=1, max_value=3)),
            weighted=draw(st.booleans()),
        )
    if kind == "constant":
        return ConstantRewardModel()
    return EnsembleRewardModel(
        [TabularMeanModel(key_features=("isp",)), ConstantRewardModel()]
    )


# -- policy batch APIs vs the base-class loop defaults ------------------------

class TestPolicyBatchEquivalence:
    @given(policy=policies(), trace=traces())
    @settings(deadline=None)
    def test_propensity_batch_matches_loop_default(self, policy, trace):
        columns = trace.columns()
        batch = policy.propensity_batch(columns.decisions, columns.contexts)
        loop = np.asarray(
            [
                policy.propensity(decision, context)
                for decision, context in zip(columns.decisions, columns.contexts)
            ],
            dtype=float,
        )
        assert batch.dtype == loop.dtype
        assert np.array_equal(batch, loop)

    @given(
        policy=policies(),
        trace=traces(),
        position=st.integers(min_value=0, max_value=3),
    )
    @settings(deadline=None)
    def test_off_space_decision_raises_the_loop_error(self, policy, trace, position):
        columns = trace.columns()
        decisions = list(columns.decisions)
        decisions[position] = "off-space"
        with pytest.raises(PolicyError) as batch:
            policy.propensity_batch(decisions, columns.contexts)
        with pytest.raises(PolicyError) as loop:
            for decision, context in zip(decisions, columns.contexts):
                policy.propensity(decision, context)
        assert str(batch.value) == str(loop.value)

    @given(policy=policies(), trace=traces())
    @settings(deadline=None)
    def test_probability_matrix_matches_loop_default(self, policy, trace):
        columns = trace.columns()
        batch = policy.probability_matrix(columns.contexts)
        loop = Policy.probability_matrix(policy, columns.contexts)
        assert batch.shape == (len(trace), len(SPACE))
        assert np.array_equal(batch, loop)

    @given(
        trace=traces(),
        picks=st.lists(
            st.sampled_from(DECISIONS + ("off-space",)), min_size=10, max_size=10
        ),
    )
    @settings(deadline=None)
    def test_deterministic_probability_matrix_matches_loop_default(self, trace, picks):
        # A context-dependent rule, so rows are one-hot in varying columns;
        # an off-space pick must fail with the loop's error at the same row.
        calls = []

        def rule(context):
            calls.append(context)
            return picks[2 * int(context["x"]) + (context["isp"] == "isp-1")]

        policy = DeterministicPolicy(SPACE, rule)
        contexts = trace.columns().contexts
        outcomes = []
        for method in (DeterministicPolicy.probability_matrix, Policy.probability_matrix):
            calls.clear()
            try:
                outcomes.append(("ok", method(policy, contexts), len(calls)))
            except PolicyError as error:
                outcomes.append(("error", str(error), len(calls)))
        (kind, batch, batch_calls), (loop_kind, loop, loop_calls) = outcomes
        assert kind == loop_kind
        assert batch_calls == loop_calls
        if kind == "ok":
            assert batch.dtype == loop.dtype
            assert np.array_equal(batch, loop)
        else:
            assert batch == loop

    @given(policy=policies(), trace=traces())
    @settings(deadline=None)
    def test_greedy_decision_batch_matches_scalar_scan(self, policy, trace):
        columns = trace.columns()
        batch = policy.greedy_decision_batch(columns.contexts)
        assert list(batch) == [
            policy.greedy_decision(context) for context in columns.contexts
        ]


# -- model predict_batch vs the scalar loop -----------------------------------

class TestModelBatchEquivalence:
    @given(model=reward_models(), trace=traces())
    @settings(deadline=None)
    def test_predict_batch_matches_loop_default(self, model, trace):
        model.fit(trace)
        columns = trace.columns()
        batch = model.predict_batch(columns.contexts, columns.decisions)
        loop = RewardModel.predict_batch(model, columns.contexts, columns.decisions)
        assert batch.dtype == loop.dtype
        assert np.array_equal(batch, loop)

    @given(trace=traces(min_size=6))
    @settings(deadline=None)
    def test_cross_fit_batch_matches_per_index_loop(self, trace):
        model = CrossFitModel(
            lambda: TabularMeanModel(key_features=("isp",)), folds=2
        )
        model.fit(trace)
        columns = trace.columns()
        indices = list(range(len(trace)))
        batch = model.predict_batch_for_indices(
            indices, columns.contexts, columns.decisions
        )
        loop = np.asarray(
            [
                model.predict_for_index(index, context, decision)
                for index, context, decision in zip(
                    indices, columns.contexts, columns.decisions
                )
            ],
            dtype=float,
        )
        assert np.array_equal(batch, loop)


# -- propensity sources: same values, same errors -----------------------------

def _interned(trace: Trace) -> Trace:
    """*trace* with equal contexts sharing one object, so a batch asked
    once per distinct context object has repeats to reuse."""
    pool = {}
    return Trace(
        dataclasses.replace(
            record, context=pool.setdefault(record.context, record.context)
        )
        for record in trace
    )


class _PatchyPropensityModel(PropensityModel):
    """1/3 everywhere except where *failure* strikes: ``"zero"`` gives
    decision "c" zero propensity at x = 0; ``"raise"`` raises for x >= 3,
    naming the context."""

    def __init__(self, failure: str):
        super().__init__()
        self._failure = failure

    def _fit(self, trace):
        pass

    def _propensity(self, decision, context):
        x = context["x"]
        if self._failure == "raise" and x >= 3.0:
            raise PropensityError(f"no estimate for {context!r}")
        if self._failure == "zero" and decision == "c" and x == 0.0:
            return 0.0
        return 1.0 / 3.0


class _ZeroThenRaiseModel(PropensityModel):
    """Zero propensity at x = 0; no estimate at all for x = 1."""

    def _fit(self, trace):
        pass

    def _propensity(self, decision, context):
        if context["x"] == 1.0:
            raise ValueError("no estimate for x=1")
        return 0.0


class TestPropensitySourceEquivalence:
    @pytest.mark.parametrize("kind", ["policy", "estimated"])
    def test_earlier_zero_propensity_beats_a_later_failed_ask(self, kind):
        # Record 0's propensity is zero and asking about record 1 raises:
        # the scalar loop stops at record 0, so the batch must too.
        trace = Trace(
            [
                TraceRecord(ClientContext(x=0.0), "b", 1.0),
                TraceRecord(ClientContext(x=1.0), "a", 1.0),
            ]
        )
        if kind == "policy":

            def rule(context):
                if context["x"] == 1.0:
                    raise ValueError("no decision for x=1")
                return "a"

            source = PolicyPropensitySource(DeterministicPolicy(SPACE, rule))
        else:
            source = EstimatedPropensitySource(_ZeroThenRaiseModel().fit(trace))
        with pytest.raises(PropensityError) as loop:
            PropensitySource.propensity_batch(source, trace)
        with pytest.raises(PropensityError) as batch:
            source.propensity_batch(trace)
        assert str(batch.value) == str(loop.value)
        assert "is 0.0" in str(batch.value)

    @given(trace=traces())
    def test_logged_source_matches_loop_default(self, trace):
        source = LoggedPropensitySource()
        batch = source.propensity_batch(trace)
        loop = PropensitySource.propensity_batch(source, trace)
        assert np.array_equal(batch, loop)

    @given(policy=full_support_policies(), trace=traces())
    @settings(deadline=None)
    def test_policy_source_matches_loop_default(self, policy, trace):
        source = PolicyPropensitySource(policy)
        batch = source.propensity_batch(trace)
        loop = PropensitySource.propensity_batch(source, trace)
        assert np.array_equal(batch, loop)

    @given(
        policy=full_support_policies(),
        trace=traces(),
        floor=st.floats(min_value=0.05, max_value=0.4),
    )
    @settings(deadline=None)
    def test_floored_source_matches_loop_default(self, policy, trace, floor):
        batch = FlooredPropensitySource(
            PolicyPropensitySource(policy), floor
        ).propensity_batch(trace)
        loop = PropensitySource.propensity_batch(
            FlooredPropensitySource(PolicyPropensitySource(policy), floor), trace
        )
        assert np.array_equal(batch, loop)

    @given(trace=traces(), kind=st.sampled_from(["empirical", "logistic"]))
    @settings(deadline=None)
    def test_estimated_source_matches_loop_default(self, trace, kind):
        trace = _interned(trace)
        if kind == "empirical":
            model = EmpiricalPropensityModel(SPACE, key_features=("isp",))
        else:
            model = LogisticPropensityModel(SPACE, iterations=20)
        source = EstimatedPropensitySource(model.fit(trace))
        batch = source.propensity_batch(trace)
        loop = PropensitySource.propensity_batch(source, trace)
        assert batch.dtype == loop.dtype
        assert np.array_equal(batch, loop)

    @given(trace=traces(), failure=st.sampled_from(["zero", "raise"]))
    @settings(deadline=None)
    def test_estimated_source_raises_the_scalar_error(self, trace, failure):
        trace = _interned(trace)
        source = EstimatedPropensitySource(_PatchyPropensityModel(failure).fit(trace))
        outcomes = []
        for method in (PropensitySource.propensity_batch, type(source).propensity_batch):
            try:
                outcomes.append(method(source, trace).tolist())
            except PropensityError as exc:
                outcomes.append(str(exc))
        assert outcomes[1] == outcomes[0]

    @given(trace=traces())
    def test_batch_raises_the_scalar_error(self, trace):
        # A deterministic logger gives zero propensity to every other
        # decision; the batch path must raise the error the scalar loop
        # raises at its first offending record, message and all.
        policy = core.DeterministicPolicy(SPACE, lambda context: "a")
        source = PolicyPropensitySource(policy)
        scalar_error = batch_error = None
        try:
            PropensitySource.propensity_batch(source, trace)
        except PropensityError as exc:
            scalar_error = str(exc)
        try:
            source.propensity_batch(trace)
        except PropensityError as exc:
            batch_error = str(exc)
        assert batch_error == scalar_error


# -- estimators end to end vs hand-rolled scalar arithmetic -------------------

class TestEstimatorEquivalence:
    @given(policy=full_support_policies(), trace=traces())
    @settings(deadline=None)
    def test_ips_contributions_match_manual_loop(self, policy, trace):
        result = IPS().estimate(policy, trace)
        manual = np.asarray(
            [
                policy.propensity(record.decision, record.context)
                / record.propensity
                * record.reward
                for record in trace
            ],
            dtype=float,
        )
        assert np.array_equal(result.contributions, manual)

    @given(policy=full_support_policies(), trace=traces())
    @settings(deadline=None)
    def test_dm_contributions_match_manual_loop(self, trace, policy):
        model = TabularMeanModel(key_features=("isp",))
        result = DirectMethod(model).estimate(policy, trace)
        # Replays the vectorised accumulation scalar-ly: one dm term per
        # record, accumulated over decisions in canonical space order.
        manual = np.zeros(len(trace), dtype=float)
        for column, decision in enumerate(SPACE.decisions):
            for row, record in enumerate(trace):
                probability = policy.probabilities(record.context).get(decision, 0.0)
                manual[row] = manual[row] + probability * model.predict(
                    record.context, decision
                )
        assert np.array_equal(result.contributions, manual)


# -- the columnar cache itself ------------------------------------------------

class TestColumnarCache:
    @given(trace=traces(min_size=5), data=st.data())
    def test_take_matches_a_fresh_trace(self, trace, data):
        indices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(trace) - 1),
                min_size=1,
                max_size=2 * len(trace),
            )
        )
        taken = trace.take(indices)
        fresh = Trace([trace[index] for index in indices])
        took, built = taken.columns(), fresh.columns()
        assert np.array_equal(took.rewards, built.rewards)
        assert np.array_equal(took.propensities, built.propensities, equal_nan=True)
        assert tuple(took.decisions) == tuple(built.decisions)
        assert tuple(took.contexts) == tuple(built.contexts)

    @given(trace=traces(min_size=5))
    def test_slice_shares_column_values(self, trace):
        sliced = trace[1:-1]
        columns = sliced.columns()
        assert np.array_equal(columns.rewards, trace.columns().rewards[1:-1])
        assert tuple(columns.decisions) == tuple(trace.columns().decisions[1:-1])
