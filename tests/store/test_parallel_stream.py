"""Parallel streaming estimation: the workers sweep.

Extends the stream-vs-dense bit-identity guarantee to a fork worker pool
gathering columns into fork-inherited shared buffers.  Every cell of the
sweep must reproduce the sequential engine's results bit for bit —
values, contributions, diagnostics, and deterministic telemetry.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.estimators import IPS, DoublyRobust, SelfNormalizedDR, SwitchDR
from repro.core.models.tabular import TabularMeanModel
from repro.errors import EstimatorError
from repro.store import ShardedTrace
from repro.runtime.pool import _fork_available
from repro.store.streaming import STREAM_WORKERS_VAR, stream_estimate
from repro.workloads.synthetic import SyntheticWorkload

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable"
)

RECORDS = 600
SHARD_SIZE = 130
CHUNK_SIZE = 60

ESTIMATOR_FACTORIES = {
    "ips": lambda: IPS(),
    "dr": lambda: DoublyRobust(TabularMeanModel()),
    "sndr": lambda: SelfNormalizedDR(TabularMeanModel()),
    "switch-dr": lambda: SwitchDR(TabularMeanModel(), clip=5.0),
}


@pytest.fixture(scope="module")
def workload():
    return SyntheticWorkload()


@pytest.fixture(scope="module")
def new_policy(workload):
    return workload.logging_policy(epsilon=0.1, base_index=1)


@pytest.fixture(scope="module")
def shard_dir(workload, tmp_path_factory):
    old = workload.logging_policy(epsilon=0.3)
    trace = workload.generate_trace(
        old, RECORDS, np.random.default_rng(2017)
    )
    directory = tmp_path_factory.mktemp("parallel-stream") / "shards"
    trace.to_shards(directory, shard_size=SHARD_SIZE)
    return directory


@pytest.fixture
def sharded(shard_dir):
    return ShardedTrace(shard_dir, chunk_records=CHUNK_SIZE)


class FailingPastFirstChunk(IPS):
    """IPS whose scoring fails on every chunk a pool worker handles."""

    def _stream_chunk(self, new_policy, chunk, propensities, offset):
        if offset > 0:
            raise EstimatorError("scoring failed past the first chunk")
        return super()._stream_chunk(new_policy, chunk, propensities, offset)


def assert_same(reference, candidate):
    assert candidate.value == reference.value
    assert np.array_equal(candidate.contributions, reference.contributions)
    assert candidate.diagnostics == reference.diagnostics


@needs_fork
class TestParallelBitIdentity:
    @pytest.mark.parametrize("name", sorted(ESTIMATOR_FACTORIES))
    def test_every_estimator(self, name, sharded, new_policy):
        factory = ESTIMATOR_FACTORIES[name]
        reference = stream_estimate(factory(), new_policy, sharded)
        parallel = stream_estimate(factory(), new_policy, sharded, workers=2)
        assert_same(reference, parallel)

    def test_deterministic_telemetry_identical(self, sharded, new_policy):
        with obs.capture() as sequential:
            stream_estimate(DoublyRobust(TabularMeanModel()), new_policy, sharded)
        with obs.capture() as parallel:
            stream_estimate(
                DoublyRobust(TabularMeanModel()),
                new_policy,
                sharded,
                workers=2,
            )
        assert parallel.metrics.snapshot(
            deterministic=True
        ) == sequential.metrics.snapshot(deterministic=True)

    def test_ipc_bytes_recorded(self, sharded, new_policy):
        with obs.capture() as recorder:
            stream_estimate(IPS(), new_policy, sharded, workers=2)
        counters = recorder.metrics.snapshot().get("counters", {})
        assert counters.get("harness.pool.ipc.bytes", 0) > 0

    def test_env_variable_drives_estimate(
        self, sharded, new_policy, monkeypatch
    ):
        reference = stream_estimate(IPS(), new_policy, sharded)
        monkeypatch.setenv(STREAM_WORKERS_VAR, "2")
        via_env = IPS().estimate(new_policy, sharded)
        assert_same(reference, via_env)

    @pytest.mark.skipif(
        not Path("/dev/shm").is_dir(), reason="no /dev/shm on this platform"
    )
    def test_failed_stream_leaves_no_shared_memory_segments(
        self, sharded, new_policy
    ):
        before = set(Path("/dev/shm").glob("psm_*"))
        for _ in range(3):
            with pytest.raises(EstimatorError, match="scoring failed"):
                stream_estimate(
                    FailingPastFirstChunk(), new_policy, sharded, workers=2
                )
        assert set(Path("/dev/shm").glob("psm_*")) - before == set()

    def test_quarantining_reader_degrades_to_sequential(
        self, shard_dir, new_policy
    ):
        tolerant = ShardedTrace(
            shard_dir, chunk_records=CHUNK_SIZE, on_corruption="quarantine"
        )
        reference = stream_estimate(
            IPS(), new_policy, ShardedTrace(shard_dir, chunk_records=CHUNK_SIZE)
        )
        degraded = stream_estimate(IPS(), new_policy, tolerant, workers=2)
        assert_same(reference, degraded)


class TestValidation:
    def test_zero_workers_rejected(self, sharded, new_policy):
        with pytest.raises(EstimatorError, match="workers"):
            stream_estimate(IPS(), new_policy, sharded, workers=0)

    def test_bad_env_value_rejected(self, sharded, new_policy, monkeypatch):
        monkeypatch.setenv(STREAM_WORKERS_VAR, "many")
        with pytest.raises(EstimatorError, match=STREAM_WORKERS_VAR):
            stream_estimate(IPS(), new_policy, sharded)


def test_plan_chunks_mirrors_iter_chunks(sharded):
    planned = sharded.plan_chunks()
    iterated = [
        (chunk._shard_index, chunk._lo, chunk._hi)
        for chunk in sharded.iter_chunks()
    ]
    assert planned == iterated
    assert sum(hi - lo for _, lo, hi in planned) == len(sharded)
