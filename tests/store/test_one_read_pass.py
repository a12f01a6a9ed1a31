"""One read per panel: the in-sample reward model is fit from the pass.

A default ``api.compare`` (dm, snips, dr on one unfitted
``TabularMeanModel``) reads each planned chunk once, fits the model once
on the pass's interned codes and rewards, and fills the model columns
after the fit.  The fitted state, and every report, equal the dense fit.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pytest

from repro import api
from repro.core.estimators import DirectMethod, SelfNormalizedIPS
from repro.core.models.tabular import TabularMeanModel
from repro.core.types import Trace, TraceColumns
from repro.errors import EstimatorError, ModelError, TraceError
from repro.live import IncrementalEstimator
from repro.runtime.fallback import EstimatorFallbackChain
from repro.runtime.pool import _fork_available
from repro.store import ShardedTrace
from repro.store import streaming
from repro.workloads.synthetic import SyntheticWorkload

RECORDS = 300
SHARD_SIZE = 70

WORKERS = [
    "1",
    pytest.param(
        "2",
        marks=pytest.mark.skipif(
            not _fork_available(), reason="fork start method unavailable"
        ),
    ),
]


@pytest.fixture(params=WORKERS)
def workers(request, monkeypatch):
    monkeypatch.setenv(streaming.STREAM_WORKERS_VAR, request.param)
    return int(request.param)


@pytest.fixture(scope="module")
def workload():
    return SyntheticWorkload()


@pytest.fixture(scope="module")
def new_policy(workload):
    return workload.logging_policy(epsilon=0.1, base_index=1)


@pytest.fixture(scope="module")
def shard_dir(workload, tmp_path_factory):
    old = workload.logging_policy(epsilon=0.3)
    trace = workload.generate_trace(old, RECORDS, np.random.default_rng(32))
    directory = tmp_path_factory.mktemp("one-read") / "shards"
    trace.to_shards(directory, shard_size=SHARD_SIZE)
    return directory


@pytest.fixture(scope="module")
def dense(shard_dir):
    return ShardedTrace(shard_dir).materialize()


def _state(model):
    """Everything a fitted tabular model predicts from, order included."""
    return (
        list(model._bucket_means.items()),
        list(model._decision_means.items()),
        model._global_mean,
        list(model._key_index.items()),
        model._mean_matrix.tobytes(),
        model._bucket_present.tobytes(),
    )


def test_each_chunk_is_read_once_and_the_model_fit_once(
    shard_dir, dense, new_policy, workers, monkeypatch, tmp_path
):
    log = tmp_path / "chunks"
    iter_chunks, fit = ShardedTrace.iter_chunks, TabularMeanModel.fit
    fits = []

    def logged_chunks(self, *args, **kwargs):
        for chunk in iter_chunks(self, *args, **kwargs):
            # O_APPEND: forked blocks log into the same file.
            line = f"{chunk._shard_index} {chunk._lo} {chunk._hi}\n".encode()
            descriptor = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(descriptor, line)
            finally:
                os.close(descriptor)
            yield chunk

    def counted_fit(self, trace):
        fits.append(len(trace))
        return fit(self, trace)

    monkeypatch.setattr(ShardedTrace, "iter_chunks", logged_chunks)
    monkeypatch.setattr(TabularMeanModel, "fit", counted_fit)
    trace = ShardedTrace(shard_dir, chunk_records=25)
    report = api.compare(trace, new_policy)
    lines = log.read_text().splitlines()
    read = Counter(tuple(map(int, line.split())) for line in lines)
    assert read == {span: 1 for span in trace.plan_chunks()}
    assert fits == [RECORDS]
    monkeypatch.undo()
    assert report.to_json() == api.compare(dense, new_policy).to_json()


@pytest.mark.parametrize("chunk_records", [1, 7, 1024, RECORDS])
def test_pass_fitted_model_equals_the_dense_fit(
    chunk_records, shard_dir, dense, new_policy, workers
):
    model = TabularMeanModel()
    trace = ShardedTrace(shard_dir, chunk_records=chunk_records)
    report = api.compare(trace, new_policy, model=model)
    assert model.fitted
    assert _state(model) == _state(TabularMeanModel().fit(dense))
    assert report.to_json() == api.compare(dense, new_policy).to_json()


def test_a_pass_without_in_sample_members_interns_nothing(
    shard_dir, new_policy, monkeypatch
):
    calls = []
    intern = streaming.PanelPass._intern_chunk

    def counted(self, *args):
        calls.append(self._codes is not None)
        return intern(self, *args)

    monkeypatch.setattr(streaming.PanelPass, "_intern_chunk", counted)
    fitted = TabularMeanModel().fit(ShardedTrace(shard_dir).materialize())
    trace = ShardedTrace(shard_dir, chunk_records=50)
    api.compare(trace, new_policy, ["snips", "ips"])
    api.compare(trace, new_policy, ["dm", "dr"], model=fitted)
    assert calls == []


def test_one_contract_check_per_chunk(shard_dir, new_policy, monkeypatch):
    calls = []
    check = streaming.check_trace_columns

    def counted(columns, where="trace", offset=0):
        calls.append(where)
        return check(columns, where=where, offset=offset)

    monkeypatch.setattr(streaming, "check_trace_columns", counted)
    trace = ShardedTrace(shard_dir, chunk_records=35)
    api.compare(trace, new_policy)
    assert calls == ["dm input trace"] * len(trace.plan_chunks())


@pytest.mark.parametrize(
    "panel, name", [(("dm", "snips", "dr"), "dm"), (("snips", "dm"), "snips")]
)
def test_a_failed_check_names_the_first_member(dense, new_policy, panel, name):
    columns = dense.columns()
    rewards = columns.rewards.copy()
    rewards[17] = np.nan
    broken = Trace._from_columns(
        TraceColumns(
            rewards,
            columns.propensities,
            columns.timestamps,
            columns.decisions,
            columns.contexts,
            columns.decision_codes,
            columns.decision_vocabulary,
        )
    )
    with pytest.raises(TraceError) as caught:
        api.compare(broken, new_policy, list(panel))
    assert str(caught.value) == (
        f"{name} input trace: record 17 has non-finite reward nan"
    )


def test_greedy_decisions_for_chosen_rows(dense, new_policy, workload):
    contexts = dense.columns().contexts
    positions = np.asarray([40, 3, 3, 250, 0])
    for policy in (new_policy, workload.uniform_policy()):
        every = policy.greedy_decision_batch(contexts)
        chosen = policy.greedy_decision_batch(contexts, positions)
        assert chosen == [every[position] for position in positions.tolist()]


def test_fallback_chains_stay_out_of_the_pass(dense, new_policy, monkeypatch):
    scored = []
    add = streaming.ColumnGather.add

    def counted(self, *args, **kwargs):
        scored.append(self._estimator.name)
        return add(self, *args, **kwargs)

    chain = EstimatorFallbackChain(
        [SelfNormalizedIPS(), DirectMethod(TabularMeanModel())]
    )
    monkeypatch.setattr(streaming.ColumnGather, "add", counted)
    report = api.compare(dense, new_policy, ["snips", chain])
    assert "chain(snips>dm)" not in scored
    assert scored.count("snips") == 2  # the panel's member, then the chain's link
    answer = report.estimates["chain(snips>dm)"]
    assert answer.value == report.estimates["snips"].value
    monkeypatch.undo()
    alone = api.compare(dense, new_policy, ["snips"])
    assert report.estimates["snips"].value == alone.estimates["snips"].value
    assert report.overlap == alone.overlap


def test_seeded_replay_dr_is_deterministic(workload):
    old = workload.logging_policy(epsilon=0.3)
    trace = workload.generate_trace(old, 200, np.random.default_rng(4))
    target = workload.logging_policy(epsilon=0.5, base_index=2)
    first, second = (
        api.evaluate(trace, target, "replay-dr", propensities=old, rng=11)
        for _ in range(2)
    )
    assert first.to_json() == second.to_json()


def test_live_refuses_an_in_sample_model(dense, new_policy):
    incremental = IncrementalEstimator(DirectMethod(TabularMeanModel()), new_policy)
    with pytest.raises(EstimatorError, match="needs a pre-fitted reward model"):
        incremental.observe_chunk(dense)


class FitFails(TabularMeanModel):
    """A tabular model whose fit raises *error*."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def _fit(self, trace):
        raise self.error


def test_a_failed_fit_keeps_its_type_and_text(shard_dir, dense, new_policy, workers):
    for trace in (ShardedTrace(shard_dir, chunk_records=40), dense):
        failing = FitFails(EstimatorError("fit refused"))
        report = api.compare(trace, new_policy, model=failing)
        assert report.failed == {"dm": "fit refused", "dr": "fit refused"}
        assert set(report.estimates) == {"snips"}
        with pytest.raises(ModelError, match="no buckets"):
            api.compare(trace, new_policy, model=FitFails(ModelError("no buckets")))
