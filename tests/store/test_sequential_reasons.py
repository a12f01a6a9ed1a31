"""Why a parallel stream request ran in one process.

A pass asked for more than one worker that streams sequentially counts
its reason as ``ope.stream.sequential.<reason>``.  The counter is an
environment metric: the deterministic snapshot of the fallback equals
the plain sequential stream's.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.core.estimators import IPS
from repro.obs.metrics import is_environment_metric
from repro.runtime.pool import _fork_available
from repro.store import ShardedTrace, streaming
from repro.store.streaming import stream_estimate
from repro.workloads.synthetic import SyntheticWorkload

RECORDS = 600
SHARD_SIZE = 130
CHUNK_SIZE = 60
PREFIX = "ope.stream.sequential."


@pytest.fixture(scope="module")
def workload():
    return SyntheticWorkload()


@pytest.fixture(scope="module")
def new_policy(workload):
    return workload.logging_policy(epsilon=0.1, base_index=1)


@pytest.fixture(scope="module")
def logged(workload):
    return workload.generate_trace(
        workload.logging_policy(epsilon=0.3), RECORDS, np.random.default_rng(2017)
    )


@pytest.fixture(scope="module")
def shard_dir(logged, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sequential-reasons") / "shards"
    logged.to_shards(directory, shard_size=SHARD_SIZE)
    return directory


@pytest.fixture(scope="module")
def one_shard_dir(logged, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sequential-reasons") / "one-shard"
    logged.to_shards(directory, shard_size=RECORDS)
    return directory


def reasons(recorder):
    counters = recorder.metrics.snapshot().get("counters", {})
    return {name[len(PREFIX):]: count for name, count in counters.items() if name.startswith(PREFIX)}


def assert_sequential_for(reason, trace, new_policy, monkeypatch):
    """*trace* asked for two workers streams in one process, counting
    *reason*, with the sequential stream's result and telemetry."""
    with obs.capture() as sequential:
        reference = stream_estimate(IPS(), new_policy, trace)

    def refuse():
        raise AssertionError("a sequential fallback forked")

    monkeypatch.setattr(os, "fork", refuse)
    with obs.capture() as fallback:
        result = stream_estimate(IPS(), new_policy, trace, workers=2)
    monkeypatch.undo()
    assert reasons(fallback) == {reason: 1}
    assert reasons(sequential) == {}
    assert result.value == reference.value
    assert np.array_equal(result.contributions, reference.contributions)
    assert fallback.metrics.snapshot(deterministic=True) == sequential.metrics.snapshot(
        deterministic=True
    )


def test_no_fork(shard_dir, new_policy, monkeypatch):
    monkeypatch.setattr(streaming, "_fork_available", lambda: False)
    trace = ShardedTrace(shard_dir, chunk_records=CHUNK_SIZE)
    assert_sequential_for("no-fork", trace, new_policy, monkeypatch)


@pytest.mark.skipif(not _fork_available(), reason="fork start method unavailable")
def test_quarantine(shard_dir, new_policy, monkeypatch):
    trace = ShardedTrace(shard_dir, chunk_records=CHUNK_SIZE, on_corruption="quarantine")
    assert_sequential_for("quarantine", trace, new_policy, monkeypatch)


@pytest.mark.skipif(not _fork_available(), reason="fork start method unavailable")
def test_one_chunk(one_shard_dir, new_policy, monkeypatch):
    trace = ShardedTrace(one_shard_dir, chunk_records=RECORDS)
    assert len(trace.plan_chunks()) == 1
    assert_sequential_for("one-chunk", trace, new_policy, monkeypatch)


@pytest.mark.skipif(not _fork_available(), reason="fork start method unavailable")
def test_one_cpu(shard_dir, new_policy, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    trace = ShardedTrace(shard_dir, chunk_records=CHUNK_SIZE)
    assert_sequential_for("one-cpu", trace, new_policy, monkeypatch)


@pytest.mark.skipif(not _fork_available(), reason="fork start method unavailable")
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_parallel_stream_counts_no_reason(shard_dir, new_policy):
    with obs.capture() as recorder:
        stream_estimate(IPS(), new_policy, ShardedTrace(shard_dir, chunk_records=CHUNK_SIZE), workers=2)
    assert reasons(recorder) == {}


def test_reasons_are_environment_metrics():
    for reason in ("no-fork", "quarantine", "one-chunk", "one-cpu"):
        assert is_environment_metric(PREFIX + reason)
