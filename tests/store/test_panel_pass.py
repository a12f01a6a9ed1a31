"""One pass per panel: ``api.compare`` on a sharded trace.

A panel's estimators and its overlap diagnostics share one read of each
planned chunk, one reward-model fit and, when parallel, one fork pool.
Everything they report must still equal the dense ``api.compare`` on the
materialised trace, and a member's failure must stay that member's own.
"""

from __future__ import annotations

import os
import shutil
from collections import Counter

import numpy as np
import pytest

from repro import api, core
from repro.core.diagnostics import overlap_report
from repro.core.estimators import IPS, DirectMethod
from repro.core.models.tabular import TabularMeanModel
from repro.errors import EstimatorError, PropensityError
from repro.runtime.pool import _fork_available
from repro.store import ShardedTrace
from repro.store import streaming
from repro.store.sharded import ShardChunk
from repro.testing.faults import flip_shard_bit
from repro.workloads.synthetic import SyntheticWorkload

from tests.store.conftest import build_trace

RECORDS = 600
SHARD_SIZE = 130
CHUNK_SIZE = 60

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


def _shards(trace, tmp_path_factory, name):
    directory = tmp_path_factory.mktemp(name) / "shards"
    trace.to_shards(directory, shard_size=SHARD_SIZE)
    return directory


@pytest.fixture(scope="module")
def shard_dir(workload, tmp_path_factory):
    old = workload.logging_policy(epsilon=0.3)
    trace = workload.generate_trace(old, RECORDS, np.random.default_rng(2017))
    return _shards(trace, tmp_path_factory, "panel")


def _sharded(directory, **options):
    return ShardedTrace(directory, chunk_records=CHUNK_SIZE, **options)


def _dense(directory):
    return ShardedTrace(directory).materialize()


def _same_result(left, right):
    assert left.value == right.value
    assert np.array_equal(left.contributions, right.contributions)
    assert left.diagnostics == right.diagnostics


def _raised(call):
    with pytest.raises(Exception) as excinfo:
        call()
    return type(excinfo.value), str(excinfo.value)


class FailingPastFirstChunk(IPS):
    """IPS whose scoring fails on every chunk after the first."""

    def _stream_chunk(self, new_policy, chunk, propensities, offset):
        if offset > 0:
            raise EstimatorError("scoring failed past the first chunk")
        return super()._stream_chunk(new_policy, chunk, propensities, offset)


class CountingPolicy(core.Policy):
    """Delegates to *inner*, counting the batch calls that reach it."""

    def __init__(self, inner):
        super().__init__(inner.space)
        self.inner = inner
        self.calls = Counter()

    def probabilities(self, context):
        return self.inner.probabilities(context)

    def propensity_batch(self, decisions, contexts):
        self.calls["propensity_batch"] += 1
        return self.inner.propensity_batch(decisions, contexts)

    def probability_matrix(self, contexts):
        self.calls["probability_matrix"] += 1
        return self.inner.probability_matrix(contexts)


REPORTS = {
    "compare": lambda trace, policy: api.compare(trace, policy),
    "evaluate": lambda trace, policy: api.evaluate(trace, policy, "dr"),
}


class TestOnePass:
    @pytest.mark.parametrize("call", sorted(REPORTS))
    def test_each_chunk_is_decoded_once_to_fit_and_once_to_score(
        self, call, shard_dir, new_policy, workers, monkeypatch, tmp_path
    ):
        log = tmp_path / "decoded"
        columns = ShardChunk.columns

        def logged(chunk):
            if chunk._columns is None:
                # O_APPEND: pool workers log into the same file.
                line = f"{chunk._shard_index} {chunk._lo} {chunk._hi}\n".encode()
                descriptor = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
                try:
                    os.write(descriptor, line)
                finally:
                    os.close(descriptor)
            return columns(chunk)

        monkeypatch.setattr(ShardChunk, "columns", logged)
        trace = _sharded(shard_dir)
        report = REPORTS[call](trace, new_policy)
        lines = log.read_text().splitlines()
        decoded = Counter(tuple(map(int, line.split())) for line in lines)
        assert decoded == {span: 2 for span in trace.plan_chunks()}
        monkeypatch.undo()
        dense = REPORTS[call](_dense(shard_dir), new_policy)
        assert report.to_json() == dense.to_json()

    @pytest.mark.skipif(not _fork_available(), reason="fork start method unavailable")
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_one_fork_pool(self, shard_dir, new_policy, monkeypatch):
        calls, forks = [], []
        fork_blocks, fork = streaming.fork_blocks, os.fork

        def counted_blocks(work, blocks):
            calls.append(len(blocks))
            return fork_blocks(work, blocks)

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(streaming, "fork_blocks", counted_blocks)
        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setenv(streaming.STREAM_WORKERS_VAR, "2")
        report = api.compare(_sharded(shard_dir), new_policy)
        monkeypatch.undo()
        assert calls == [2] and len(forks) == 1
        assert report.to_json() == api.compare(_dense(shard_dir), new_policy).to_json()

    def test_policy_work_is_shared_per_chunk(self, shard_dir, new_policy):
        trace = _sharded(shard_dir)
        policy = CountingPolicy(new_policy)
        report = api.compare(trace, policy)
        chunks = len(trace.plan_chunks())
        assert policy.calls == {
            "propensity_batch": chunks,
            "probability_matrix": chunks,
        }
        assert report.to_json() == api.compare(_dense(shard_dir), policy).to_json()

    def test_one_reconcile_stamps_every_member(
        self, shard_dir, new_policy, monkeypatch, tmp_path
    ):
        directory = tmp_path / "shards"
        shutil.copytree(shard_dir, directory)
        flip_shard_bit(directory, 1)
        calls = []
        reconcile = streaming.reconcile_shortfall

        def counted(trace, streamed):
            calls.append(streamed)
            return reconcile(trace, streamed)

        monkeypatch.setattr(streaming, "reconcile_shortfall", counted)
        trace = _sharded(directory, on_corruption="quarantine")
        report = api.compare(trace, new_policy)
        assert calls == [RECORDS - SHARD_SIZE]
        assert report.overlap.n == RECORDS - SHARD_SIZE
        for result in report.estimates.values():
            quarantine = result.diagnostics["store_quarantine"]
            assert quarantine["dropped_records"] == SHARD_SIZE


class TestFailuresStayPerMember:
    def test_failing_members_leave_the_rest_identical(
        self, shard_dir, new_policy, workers
    ):
        unfitted = DirectMethod(TabularMeanModel(), fit_on_trace=False)
        report = api.compare(
            _sharded(shard_dir),
            new_policy,
            ["snips", FailingPastFirstChunk(), "dr"],
            extra_estimators={"unfitted": unfitted},
        )
        assert report.failed == {
            "ips": "scoring failed past the first chunk",
            "unfitted": "DM model is not fitted and fit_on_trace is disabled",
        }
        dense = api.compare(_dense(shard_dir), new_policy, ["snips", "dr"])
        assert set(report.estimates) == {"snips", "dr"}
        for name, result in dense.estimates.items():
            _same_result(report.estimates[name], result)
        assert report.overlap == dense.overlap

    def test_snips_without_overlap(self, workload, tmp_path_factory, workers):
        space = workload.space()
        first, last = space.decisions[0], space.decisions[-1]
        logging = core.DeterministicPolicy(space, lambda context: first)
        trace = workload.generate_trace(logging, RECORDS, np.random.default_rng(3))
        directory = _shards(trace, tmp_path_factory, "no-overlap")
        policy = core.DeterministicPolicy(space, lambda context: last)
        dense = api.compare(_dense(directory), policy)
        report = api.compare(_sharded(directory), policy)
        assert "snips" in report.failed
        assert report.failed == dense.failed
        assert report.to_json() == dense.to_json()

    def test_without_propensities(self, tmp_path_factory, workers):
        dense_trace = build_trace(n=RECORDS, with_propensities=False)
        directory = _shards(dense_trace, tmp_path_factory, "no-propensities")
        space = core.DecisionSpace(sorted(dense_trace.decision_set(), key=repr))
        policy = core.UniformRandomPolicy(space)
        dense = api.compare(dense_trace, policy, diagnostics=False)
        report = api.compare(_sharded(directory), policy, diagnostics=False)
        assert set(report.failed) == {"snips", "dr"}
        assert report.failed == dense.failed
        assert report.to_json() == dense.to_json()
        expected = _raised(lambda: api.compare(dense_trace, policy))
        assert expected[0] is PropensityError
        assert _raised(lambda: api.compare(_sharded(directory), policy)) == expected

    def test_overlap_error_names_the_absolute_record(
        self, tmp_path, monkeypatch, workers
    ):
        records = list(build_trace(n=RECORDS))
        missing = 411
        records[missing] = core.TraceRecord(
            records[missing].context, records[missing].decision, records[missing].reward
        )
        dense = core.Trace(records)
        dense.to_shards(tmp_path / "shards", shard_size=SHARD_SIZE)
        # Claim full coverage so the logged source meets the gap per record.
        monkeypatch.setattr(core.Trace, "has_propensities", lambda self: True)
        monkeypatch.setattr(ShardedTrace, "has_propensities", lambda self: True)
        space = core.DecisionSpace(sorted(dense.decision_set(), key=repr))
        policy = core.UniformRandomPolicy(space)
        expected = _raised(lambda: overlap_report(policy, dense))
        assert expected[0] is PropensityError
        assert f"trace record {missing} " in expected[1]
        sharded = _sharded(tmp_path / "shards")
        panel = ["dm", "snips"]
        assert _raised(lambda: api.compare(sharded, policy, panel)) == expected
