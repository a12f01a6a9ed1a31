"""The columnar Fig 4 / Fig 7a pipeline equals its per-record definition.

``WiseScenario.generate_trace`` draws its noise in one call and checks
whole columns; ``WiseRewardModel`` codes its CBN dataset from the trace
columns.  The oracles below are the per-record versions: one scalar draw
and one validating :class:`TraceRecord` per record, and one row dict per
record handed to :meth:`StructureLearner.learn`.  Traces (values, reward
bits, types, the rng state afterwards) and learned networks (variables,
parents, CPT bytes, domains) must match them exactly.
"""

import numpy as np
import pytest

from repro.cbn.learning import StructureLearner
from repro.cbn.scenario import ISPS, WiseScenario
from repro.cbn.wise import REWARD_VARIABLE, WiseRewardModel
from repro.core.policy import TabularPolicy
from repro.core.types import ClientContext, Trace, TraceRecord
from repro.errors import ModelError, TraceError


def _per_record_trace(scenario, rng):
    old = scenario.old_policy()
    records = []
    for isp in ISPS:
        context = ClientContext(isp=isp)
        arrow = ("fe-1", "be-1") if isp == "isp-1" else ("fe-2", "be-2")
        for decision in scenario.space():
            count = (
                scenario.clients_per_arrow
                if decision == arrow
                else scenario.clients_per_rare_combo
            )
            propensity = old.propensity(decision, context)
            mean = scenario.true_mean_response(isp, decision)
            for _ in range(count):
                response = mean + rng.normal(0.0, scenario.noise_ms)
                records.append(
                    TraceRecord(
                        context=context,
                        decision=decision,
                        reward=float(max(response, 1.0)),
                        propensity=propensity,
                    )
                )
    rng.shuffle(records)
    return Trace(records)


def _record_bytes(trace):
    return [
        (
            record.context,
            record.decision,
            type(record.reward),
            float(record.reward).hex(),
            type(record.propensity),
            record.propensity,
            record.timestamp,
            record.state,
        )
        for record in trace
    ]


def _oracle_network(model_factors, trace, reward_bins=2):
    """The per-record row loop the model used to build, learned through
    :meth:`StructureLearner.learn`."""
    names = trace.feature_names()
    rewards = trace.rewards()
    edges = np.unique(np.quantile(rewards, np.linspace(0.0, 1.0, reward_bins + 1)))
    assignments = np.clip(
        np.searchsorted(edges[:-1], rewards, side="right") - 1, 0, len(edges) - 2
    )
    rows = []
    for record, bin_index in zip(trace, assignments):
        row = {name: record.context[name] for name in names}
        values = (record.decision,) if len(model_factors) == 1 else record.decision
        if len(model_factors) > 1 and (
            not isinstance(values, tuple) or len(values) != len(model_factors)
        ):
            raise ModelError(
                f"decision {record.decision!r} does not match factors {model_factors}"
            )
        row.update(zip(model_factors, values))
        row[REWARD_VARIABLE] = int(bin_index)
        rows.append(row)
    variables = list(names) + list(model_factors) + [REWARD_VARIABLE]
    return StructureLearner(max_parents=3).learn(rows, variables)


def _signature(network):
    return [
        (
            variable,
            network.parents(variable),
            network.domain(variable),
            network.dense_rows(variable).tobytes(),
        )
        for variable in network.variables
    ]


def _fitted(factors, trace):
    return WiseRewardModel(factors).fit(trace).network


EDGE_SCENARIOS = [
    WiseScenario(noise_ms=0.0),
    WiseScenario(clients_per_arrow=7, clients_per_rare_combo=1, noise_ms=400.0),
]


@pytest.mark.parametrize("scenario", [WiseScenario()] + EDGE_SCENARIOS)
def test_trace_equals_per_record_generator(scenario):
    for seed in range(20):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        trace = scenario.generate_trace(rng)
        expected = _per_record_trace(scenario, oracle_rng)
        assert _record_bytes(trace) == _record_bytes(expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class _ZeroCellScenario(WiseScenario):
    """An old policy that never picks one ISP-2 configuration."""

    def old_policy(self):
        base = super().old_policy()
        table = {}
        for isp in ISPS:
            distribution = dict(base.probabilities(ClientContext(isp=isp)))
            if isp == "isp-2":
                moved = distribution.pop(("fe-1", "be-2"))
                distribution[("fe-2", "be-2")] += moved
                distribution[("fe-1", "be-2")] = 0.0
            table[(isp,)] = distribution
        return TabularPolicy(self.space(), key_features=("isp",), table=table)


@pytest.mark.parametrize(
    "scenario", [_ZeroCellScenario(), WiseScenario(noise_ms=float("inf"))]
)
def test_invalid_record_raises_the_record_error(scenario):
    with pytest.raises(TraceError) as expected:
        _per_record_trace(scenario, np.random.default_rng(1))
    with pytest.raises(TraceError) as raised:
        scenario.generate_trace(np.random.default_rng(1))
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("factors", [("frontend", "backend"), ("choice",)])
def test_network_equals_row_oracle_on_wise_traces(factors):
    scenario = WiseScenario()
    for seed in range(50):
        trace = scenario.generate_trace(np.random.default_rng(seed))
        assert _signature(_fitted(factors, trace)) == _signature(
            _oracle_network(factors, trace)
        )


@pytest.mark.parametrize("scenario", EDGE_SCENARIOS)
def test_network_equals_row_oracle_on_edge_traces(scenario):
    for seed in range(5):
        trace = scenario.generate_trace(np.random.default_rng(seed))
        for factors in (("frontend", "backend"), ("choice",)):
            assert _signature(_fitted(factors, trace)) == _signature(
                _oracle_network(factors, trace)
            )


def test_equal_contexts_that_are_distinct_objects():
    trace = WiseScenario().generate_trace(np.random.default_rng(4))
    copied = Trace(
        TraceRecord(
            ClientContext(record.context.features),
            record.decision,
            record.reward,
            record.propensity,
        )
        for record in trace
    )
    assert len(set(map(id, copied.contexts()))) == len(copied)
    factors = ("frontend", "backend")
    network = _fitted(factors, copied)
    assert _signature(network) == _signature(_oracle_network(factors, copied))
    assert _signature(network) == _signature(_fitted(factors, trace))


def test_several_features_and_a_slice():
    # The slice shares its parent's decision vocabulary and context
    # codes, which start with values the slice never holds.
    rng = np.random.default_rng(7)
    head = [
        TraceRecord(ClientContext(isp="d", tier=9), ("z", 5), 1.0, 0.5)
        for _ in range(20)
    ]
    records = head + [
        TraceRecord(
            ClientContext(
                isp=str(rng.choice(["a", "b", "c"])), tier=int(rng.integers(0, 3))
            ),
            (str(rng.choice(["x", "y"])), int(rng.integers(0, 2))),
            float(rng.normal(5.0, 1.0)),
            0.5,
        )
        for _ in range(300)
    ]
    trace = Trace(records)
    trace.columns()
    factors = ("left", "right")
    for view in (trace, trace[20:], trace[157:]):
        assert _signature(_fitted(factors, view)) == _signature(
            _oracle_network(factors, view)
        )


def test_mismatched_decision_raises_the_row_error():
    context = ClientContext(isp="isp-1")
    trace = Trace(
        TraceRecord(context, decision, reward, 0.5)
        for decision, reward in [
            (("fe-1", "be-1"), 100.0),
            ("fe-2", 200.0),
            (("fe-2",), 120.0),
            ("fe-2", 300.0),
        ]
    )
    factors = ("frontend", "backend")
    with pytest.raises(ModelError) as expected:
        _oracle_network(factors, trace)
    with pytest.raises(ModelError) as raised:
        WiseRewardModel(factors).fit(trace)
    assert str(raised.value) == str(expected.value)
    assert "'fe-2'" in str(raised.value)


# -- column-born traces ---------------------------------------------------------


@pytest.fixture
def record_calls(monkeypatch):
    """Counts every record built, trusted or validated, in any module."""
    import sys

    from repro.core import types

    calls = []
    trusted, validated = types.trusted_record, TraceRecord.__init__

    def counting_trusted(*args):
        calls.append(args)
        return trusted(*args)

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        validated(self, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "trusted_record", None) is trusted:
            monkeypatch.setattr(module, "trusted_record", counting_trusted)
    monkeypatch.setattr(TraceRecord, "__init__", counting_init)
    return calls


def _assert_same_columns(columns, expected):
    for name in (
        "rewards",
        "propensities",
        "timestamps",
        "decision_codes",
        "context_codes",
    ):
        got, want = getattr(columns, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert columns.decisions == expected.decisions
    assert columns.decision_vocabulary == expected.decision_vocabulary
    assert columns.contexts == expected.contexts
    assert columns.feature_names() == expected.feature_names()


@pytest.mark.parametrize("scenario", [WiseScenario()] + EDGE_SCENARIOS)
def test_columns_equal_the_columns_of_their_records(scenario):
    for seed in range(10):
        trace = scenario.generate_trace(np.random.default_rng(seed))
        records = Trace(list(trace)).columns()
        _assert_same_columns(trace.columns(), records)
        assert list(map(id, trace.columns().contexts)) == list(map(id, records.contexts))


def test_a_fig7a_seed_builds_no_record(record_calls):
    from repro.experiments.fig7 import run_fig7a

    result = run_fig7a(runs=1, seed=5)
    assert result.summaries
    assert record_calls == []


def test_column_born_trace_behaves_like_the_record_built_one(record_calls):
    import pickle

    scenario = WiseScenario(clients_per_arrow=40, clients_per_rare_combo=3)
    trace = scenario.generate_trace(np.random.default_rng(3))
    expected = _per_record_trace(scenario, np.random.default_rng(3))
    # Views of built columns keep the parent's context numbering.
    expected.columns().context_codes
    del record_calls[:]

    assert len(trace) == len(expected)
    assert trace.feature_names() == ("isp",)
    assert trace.has_propensities()
    assert trace.decision_set() == expected.decision_set()
    assert trace.mean_reward() == expected.mean_reward()
    copied = pickle.loads(pickle.dumps(trace))
    views = [trace[5:60], trace[::-3], trace.take([4, 0, 4, -1])]
    views.append(trace.subsample(17, np.random.default_rng(8)))
    for view in views:
        view.columns()
    assert record_calls == []

    assert copied == trace == expected
    assert copied.columns().rewards.tobytes() == expected.columns().rewards.tobytes()
    assert trace[7] == expected[7]
    assert all(r.state is None and r.timestamp is None for r in trace)
    oracles = [expected[5:60], expected[::-3], expected.take([4, 0, 4, -1])]
    oracles.append(expected.subsample(17, np.random.default_rng(8)))
    for view, oracle in zip(views, oracles):
        assert view == oracle
        _assert_same_columns(view.columns(), oracle.columns())

    extra = TraceRecord(ClientContext(isp="isp-2"), ("fe-1", "be-1"), 9.5, 0.25)
    grown = scenario.generate_trace(np.random.default_rng(3))
    grown.append(extra)
    expected.append(extra)
    assert len(grown) == len(expected)
    assert grown == expected
    _assert_same_columns(grown.columns(), expected.columns())
