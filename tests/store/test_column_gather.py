"""One error path for every streaming engine.

The sequential stream, the fork-pool stream and the live
``IncrementalEstimator`` all validate ``_stream_chunk`` output through
the same :class:`~repro.store.streaming.ColumnGather`, so a faulty
estimator must fail each of them with the same ``EstimatorError`` text.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimators import IPS
from repro.errors import EstimatorError
from repro.live import IncrementalEstimator
from repro.runtime.pool import _fork_available
from repro.store import ShardedTrace
from repro.store.streaming import stream_estimate
from repro.workloads.synthetic import SyntheticWorkload

RECORDS = 300
SHARD_SIZE = 100
CHUNK_SIZE = 40


class NoColumns(IPS):
    def _stream_chunk(self, new_policy, chunk, propensities, offset):
        return {}


class ShortColumn(IPS):
    def _stream_chunk(self, new_policy, chunk, propensities, offset):
        columns = super()._stream_chunk(new_policy, chunk, propensities, offset)
        columns["weights"] = np.asarray(columns["weights"])[:-1]
        return columns


class ExtraColumnAfterFirstChunk(IPS):
    def _stream_chunk(self, new_policy, chunk, propensities, offset):
        columns = super()._stream_chunk(new_policy, chunk, propensities, offset)
        if offset > 0:
            columns["extra"] = np.zeros(len(chunk))
        return columns


FAULTS = {
    "no-columns": (NoColumns, "ips._stream_chunk returned no columns"),
    "short-column": (
        ShortColumn,
        f"ips._stream_chunk column 'weights' has shape ({CHUNK_SIZE - 1},), "
        f"expected ({CHUNK_SIZE},)",
    ),
    "column-set-change": (
        ExtraColumnAfterFirstChunk,
        "ips._stream_chunk changed its column set mid-stream: "
        "['rewards', 'weights'] vs ['extra', 'rewards', 'weights']",
    ),
}


def sequential(estimator, policy, trace):
    stream_estimate(estimator, policy, trace)


def parallel(estimator, policy, trace):
    stream_estimate(estimator, policy, trace, workers=2)


def live(estimator, policy, trace):
    incremental = IncrementalEstimator(estimator, policy)
    for chunk in trace.iter_chunks():
        incremental.observe_chunk(chunk)


ENGINES = {
    "sequential": sequential,
    "parallel": pytest.param(
        parallel,
        marks=pytest.mark.skipif(
            not _fork_available(), reason="fork start method unavailable"
        ),
    ),
    "live": live,
}


@pytest.fixture(scope="module")
def workload():
    return SyntheticWorkload()


@pytest.fixture(scope="module")
def sharded(workload, tmp_path_factory):
    old = workload.logging_policy(epsilon=0.3)
    trace = workload.generate_trace(old, RECORDS, np.random.default_rng(5))
    directory = tmp_path_factory.mktemp("column-gather") / "shards"
    trace.to_shards(directory, shard_size=SHARD_SIZE)
    return ShardedTrace(directory, chunk_records=CHUNK_SIZE)


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("engine", list(ENGINES.values()), ids=list(ENGINES))
def test_same_error_in_every_engine(engine, fault, sharded, workload):
    factory, message = FAULTS[fault]
    policy = workload.logging_policy(epsilon=0.1, base_index=1)
    with pytest.raises(EstimatorError) as caught:
        engine(factory(), policy, sharded)
    assert str(caught.value) == message
