"""An in-memory trace is one chunk of the streaming engine.

Models without a columnar predict path (the Fig 7a CBN, kNN, an oracle)
answer through ``RewardModel``'s per-distinct-pair defaults, and
``old_policy=`` propensities through the chunk's logging-policy wrapper.
Dense, sharded and 2-worker parallel evaluation must still agree byte
for byte, and a bad in-memory trace must fail exactly as its sharded
copy does.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro import api, core
from repro.cbn.scenario import WiseScenario
from repro.cbn.wise import WiseRewardModel
from repro.errors import TraceError
from repro.runtime.pool import _fork_available
from repro.store import ShardedTrace
from repro.store.streaming import STREAM_WORKERS_VAR, stream_estimate

SHARD_SIZE = 250
CHUNK_SIZE = 120

MODELS = {
    "wise": lambda scenario: WiseRewardModel(decision_factors=("frontend", "backend")),
    "knn": lambda scenario: core.KNNRewardModel(k=7),
    "oracle": lambda scenario: core.OracleRewardModel(
        lambda context, decision: scenario.true_mean_response(context["isp"], decision),
        bias=3.0,
    ),
}

ESTIMATORS = {
    "dm": core.DirectMethod,
    "dr": core.DoublyRobust,
    "sndr": core.SelfNormalizedDR,
    "switch-dr": lambda model: core.SwitchDR(model, clip=20.0),
}


@pytest.fixture(scope="module")
def scenario():
    return WiseScenario()


@pytest.fixture(scope="module")
def dense(scenario):
    return scenario.generate_trace(np.random.default_rng(26))


@pytest.fixture(scope="module")
def shard_dir(dense, tmp_path_factory):
    directory = tmp_path_factory.mktemp("dense-one-chunk") / "shards"
    dense.to_shards(directory, shard_size=SHARD_SIZE)
    return directory


def fields(result):
    return (
        result.method,
        result.n,
        result.value,
        repr(result.std_error),
        result.contributions.tobytes(),
        json.dumps(result.diagnostics, sort_keys=True),
    )


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_dense_sharded_and_parallel_agree(scenario, dense, shard_dir, model, estimator):
    new, old = scenario.new_policy(), scenario.old_policy()

    def run(trace, **workers):
        built = ESTIMATORS[estimator](MODELS[model](scenario))
        if workers:
            return stream_estimate(built, new, trace, old_policy=old, **workers)
        return built.estimate(new, trace, old_policy=old)

    reference = fields(run(dense))
    sharded = ShardedTrace(shard_dir, chunk_records=CHUNK_SIZE)
    assert fields(run(sharded)) == reference
    if _fork_available():
        assert len(sharded.plan_chunks()) > 3
        assert fields(run(sharded, workers=2)) == reference


@pytest.mark.parametrize("model", sorted(MODELS))
def test_compare_reports_are_byte_identical(
    scenario, dense, shard_dir, model, monkeypatch
):
    def report(trace):
        return json.dumps(
            api.compare(
                trace,
                scenario.new_policy(),
                estimators=("dm", "ips", "snips", "dr", "sndr", "switch-dr"),
                model=MODELS[model](scenario),
                propensities=scenario.old_policy(),
            ).to_json(),
            sort_keys=True,
        )

    reference = report(dense)
    assert report(ShardedTrace(shard_dir, chunk_records=CHUNK_SIZE)) == reference
    monkeypatch.setenv(STREAM_WORKERS_VAR, "2")
    assert report(ShardedTrace(shard_dir, chunk_records=CHUNK_SIZE)) == reference
    # An in-memory trace ignores the worker count.
    assert report(dense) == reference


def _with(record, **values):
    """A copy of *record* with fields set past its constructor's checks,
    as corrupt serialised data can."""
    bad = copy.copy(record)
    for name, value in values.items():
        object.__setattr__(bad, name, value)
    return bad


def _corrupted(dense, faults):
    records = list(dense)
    for index, values in faults.items():
        records[index] = _with(records[index], **values)
    return core.Trace(records)


FAULTS = {
    "bad-propensity": {611: {"propensity": 1.5}},
    "non-finite-reward": {407: {"reward": float("nan")}},
    # A reward fault after a propensity fault in one chunk (sharded
    # chunks are checked in turn): the reward error comes first.
    "both": {130: {"propensity": -0.25}, 200: {"reward": float("inf")}},
}

FAULT_ESTIMATORS = {
    "ips": lambda: core.IPS(),
    "dm": lambda: core.DirectMethod(core.TabularMeanModel()),
    "dr": lambda: core.DoublyRobust(core.TabularMeanModel()),
}


@pytest.mark.parametrize("estimator", sorted(FAULT_ESTIMATORS))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_bad_trace_fails_alike_dense_and_sharded(
    scenario, dense, tmp_path, fault, estimator
):
    trace = _corrupted(dense, FAULTS[fault])
    sharded = trace.to_shards(tmp_path / "shards", shard_size=SHARD_SIZE)
    errors = []
    for candidate in (trace, ShardedTrace(tmp_path / "shards", chunk_records=CHUNK_SIZE)):
        with pytest.raises(TraceError) as caught:
            FAULT_ESTIMATORS[estimator]().estimate(scenario.new_policy(), candidate)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    record = max(FAULTS[fault]) if fault == "both" else next(iter(FAULTS[fault]))
    assert f"record {record} " in errors[0]
    assert len(sharded) == len(trace)


def test_mixed_schema_fails_dense_and_cannot_be_sharded(scenario, dense, tmp_path):
    records = list(dense)
    records[300] = core.TraceRecord(
        context=core.ClientContext(isp="isp-1", pop="ams"),
        decision=records[300].decision,
        reward=records[300].reward,
        propensity=records[300].propensity,
    )
    trace = core.Trace(records)
    with pytest.raises(TraceError) as dense_error:
        core.IPS().estimate(scenario.new_policy(), trace)
    with pytest.raises(TraceError) as contract_error:
        core.check_trace(trace)
    assert str(dense_error.value) == str(contract_error.value)
    with pytest.raises(TraceError, match="record 300 has"):
        trace.to_shards(tmp_path / "shards", shard_size=SHARD_SIZE)
