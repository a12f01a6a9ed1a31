"""The fork pool: ``fork_blocks`` and the two sweeps that use it.

The caller runs the first block and forks one child per other block.
Every failure — a child's exception, a child killed mid-block, the
caller's own block raising — must surface typed, and must leave no
child behind: ``os.waitpid(-1, os.WNOHANG)`` then raises
``ChildProcessError``.  The next call must still equal the dense or
sequential result.
"""

from __future__ import annotations

import gc
import os
import pickle
import shutil
import signal

import numpy as np
import pytest

from repro import obs
from repro.core.estimators import IPS
from repro.errors import EstimatorError, ShardChecksumError, WorkerError
from repro.experiments.harness import run_repeated
from repro.runtime.pool import _fork_available, fork_blocks
from repro.store import ShardedTrace
from repro.store.streaming import stream_estimate
from repro.testing import SimulatedCrash
from repro.testing.faults import flip_shard_bit
from repro.workloads.synthetic import SyntheticWorkload

pytestmark = [
    pytest.mark.skipif(not _fork_available(), reason="fork start method unavailable"),
    pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs"),
]

RECORDS = 600
SHARD_SIZE = 130
CHUNK_SIZE = 60
RUNS = 6


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def squares(block):
    return pickle.dumps([value * value for value in block])


def collector_state(block):
    return pickle.dumps(gc.isenabled())


def raise_in_children(block):
    if block[0] > 0:
        raise EstimatorError(f"block starting at {block[0]} failed")
    return squares(block)


def raise_in_caller(block):
    if block[0] == 0:
        raise EstimatorError("the caller's block failed")
    return squares(block)


def kill_in_children(block):
    if block[0] > 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return squares(block)


class Unpicklable(Exception):
    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


def raise_unpicklable(block):
    if block[0] > 0:
        raise Unpicklable("cannot", "cross")
    return squares(block)


BLOCKS = [[0, 1], [2, 3], [4]]


class TestForkBlocks:
    def test_payloads_in_block_order(self):
        payloads = [pickle.loads(p) for p in fork_blocks(squares, BLOCKS)]
        assert payloads == [[0, 1], [4, 9], [16]]
        assert_no_children()

    def test_one_block_forks_nothing(self, monkeypatch):
        def refuse():
            raise AssertionError("forked for one block")

        monkeypatch.setattr(os, "fork", refuse)
        assert [pickle.loads(p) for p in fork_blocks(squares, [[3]])] == [[9]]

    def test_collector_paused_for_the_blocks_only(self):
        states = [pickle.loads(p) for p in fork_blocks(collector_state, BLOCKS)]
        assert states == [False, False, False]
        assert gc.isenabled()

    def test_ipc_bytes_count_child_payloads_only(self):
        with obs.capture() as recorder:
            payloads = list(fork_blocks(squares, BLOCKS))
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["harness.pool.ipc.bytes"] == sum(map(len, payloads[1:]))

    def test_child_exception_reraises_as_itself(self):
        with pytest.raises(EstimatorError, match="block starting at 2 failed"):
            list(fork_blocks(raise_in_children, BLOCKS))
        assert_no_children()

    def test_caller_failure_kills_the_children(self):
        with pytest.raises(EstimatorError, match="the caller's block failed"):
            list(fork_blocks(raise_in_caller, BLOCKS))
        assert_no_children()
        assert gc.isenabled()

    def test_killed_child_is_a_worker_error(self):
        with pytest.raises(WorkerError, match=r"block 1 died \(SIGKILL\)"):
            list(fork_blocks(kill_in_children, BLOCKS))
        assert_no_children()

    def test_unpicklable_exception_is_a_worker_error(self):
        with pytest.raises(WorkerError, match=r"block 1 died \(exit status 1\)"):
            list(fork_blocks(raise_unpicklable, BLOCKS))
        assert_no_children()


@pytest.fixture(scope="module")
def workload():
    return SyntheticWorkload()


@pytest.fixture(scope="module")
def new_policy(workload):
    return workload.logging_policy(epsilon=0.1, base_index=1)


@pytest.fixture(scope="module")
def shard_dir(workload, tmp_path_factory):
    trace = workload.generate_trace(
        workload.logging_policy(epsilon=0.3), RECORDS, np.random.default_rng(2017)
    )
    directory = tmp_path_factory.mktemp("fork-pool") / "shards"
    trace.to_shards(directory, shard_size=SHARD_SIZE)
    return directory


def sharded(directory):
    return ShardedTrace(directory, chunk_records=CHUNK_SIZE, on_corruption="raise")


class KilledInChild(IPS):
    """IPS whose scoring SIGKILLs every process but the one that built it."""

    def __init__(self):
        super().__init__()
        self._parent = os.getpid()

    def _stream_chunk(self, new_policy, chunk, propensities, offset):
        if os.getpid() != self._parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return super()._stream_chunk(new_policy, chunk, propensities, offset)


def assert_next_stream_is_dense(shard_dir, new_policy):
    assert_no_children()
    parallel = stream_estimate(IPS(), new_policy, sharded(shard_dir), workers=2)
    dense = IPS().estimate(new_policy, sharded(shard_dir).materialize())
    assert parallel.value == dense.value
    assert np.array_equal(parallel.contributions, dense.contributions)


class TestParallelStreamFaults:
    def test_killed_child_is_a_worker_error(self, shard_dir, new_policy):
        with pytest.raises(WorkerError, match=r"block 1 died \(SIGKILL\)"):
            stream_estimate(KilledInChild(), new_policy, sharded(shard_dir), workers=2)
        assert_next_stream_is_dense(shard_dir, new_policy)

    def test_child_checksum_error_matches_sequential(
        self, shard_dir, new_policy, tmp_path
    ):
        directory = tmp_path / "shards"
        shutil.copytree(shard_dir, directory)
        # The last shard lies in the child's block, past the caller's.
        last = len(list(directory.glob("shard-*"))) - 1
        flip_shard_bit(directory, last)
        with pytest.raises(ShardChecksumError) as sequential:
            stream_estimate(IPS(), new_policy, sharded(directory))
        with pytest.raises(ShardChecksumError) as parallel:
            stream_estimate(IPS(), new_policy, sharded(directory), workers=2)
        assert type(parallel.value) is type(sequential.value)
        assert str(parallel.value) == str(sequential.value)
        assert_next_stream_is_dense(shard_dir, new_policy)


def sweep(run, workers):
    return run_repeated("fork-pool", run, runs=RUNS, seed=2017, workers=workers)


def draw(rng):
    return {"ips": float(rng.uniform())}


def assert_next_sweep_is_sequential():
    assert_no_children()
    parallel, sequential = sweep(draw, 2), sweep(draw, 1)
    assert parallel.summaries == sequential.summaries
    assert parallel.render() == sequential.render()


class TestHarnessFaults:
    def test_killed_child_is_a_worker_error(self):
        parent = os.getpid()

        def run(rng):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return draw(rng)

        with pytest.raises(WorkerError, match=r"block 1 died \(SIGKILL\)"):
            sweep(run, 2)
        assert_next_sweep_is_sequential()

    def test_child_simulated_crash_reraises_as_itself(self):
        parent = os.getpid()

        def run(rng):
            if os.getpid() != parent:
                raise SimulatedCrash("killed in a child")
            return draw(rng)

        with pytest.raises(SimulatedCrash, match="killed in a child"):
            sweep(run, 2)
        assert_next_sweep_is_sequential()
