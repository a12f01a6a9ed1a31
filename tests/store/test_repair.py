"""`repro repair`: manifest excision and source re-derivation."""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.store import (
    ShardedTrace,
    repair_store,
    shard_filename,
    verify_store,
)
from repro.testing.faults import delete_shard, flip_shard_bit, truncate_shard

from .conftest import build_trace

RECORDS = 90
SHARD_SIZE = 30  # 3 shards


@pytest.fixture
def trace():
    return build_trace(n=RECORDS, with_states=True)


@pytest.fixture
def shard_dir(tmp_path, trace):
    directory = tmp_path / "shards"
    trace.to_shards(directory, shard_size=SHARD_SIZE)
    return directory


@pytest.fixture
def source(tmp_path, trace):
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    return path


class TestExcision:
    def test_corrupt_shard_dropped_without_source(self, shard_dir):
        flip_shard_bit(shard_dir, 1)
        report = repair_store(shard_dir)
        assert report.mode == "repair"
        assert report.kept == [shard_filename(0), shard_filename(2)]
        ((dropped_file, reason),) = report.dropped
        assert dropped_file == shard_filename(1)
        assert "sha256" in reason
        assert report.dropped_records == SHARD_SIZE
        assert "record(s) lost" in report.render()
        assert verify_store(shard_dir).ok
        assert len(ShardedTrace(shard_dir)) == RECORDS - SHARD_SIZE

    def test_repair_refuses_to_drop_every_shard(self, shard_dir):
        for index in range(3):
            truncate_shard(shard_dir, index)
        with pytest.raises(StoreError, match="every shard"):
            repair_store(shard_dir)

    def test_manifest_offsets_stay_contiguous_after_excision(self, shard_dir):
        delete_shard(shard_dir, 0)
        repair_store(shard_dir)
        trace = ShardedTrace(shard_dir)
        # The surviving 60 records are addressable 0..59, no holes.
        assert len(trace) == 60
        assert [record.reward for record in trace] == [
            record.reward
            for record in build_trace(n=RECORDS, with_states=True)[SHARD_SIZE:]
        ]


class TestRederivation:
    def test_corrupt_shard_rebuilt_bit_identically_from_source(
        self, shard_dir, source
    ):
        pristine = (shard_dir / shard_filename(1)).read_bytes()
        flip_shard_bit(shard_dir, 1)
        report = repair_store(shard_dir, source=source)
        assert report.rederived == [shard_filename(1)]
        assert report.dropped == []
        assert (shard_dir / shard_filename(1)).read_bytes() == pristine
        assert verify_store(shard_dir).ok
        assert len(ShardedTrace(shard_dir)) == RECORDS

    def test_multiple_corrupt_shards_rebuilt_in_one_source_pass(
        self, shard_dir, source
    ):
        flip_shard_bit(shard_dir, 0)
        delete_shard(shard_dir, 2)
        report = repair_store(shard_dir, source=source)
        assert sorted(report.rederived) == [shard_filename(0), shard_filename(2)]
        assert verify_store(shard_dir).ok

    def test_short_source_is_a_typed_error(self, shard_dir, tmp_path):
        short = tmp_path / "short.jsonl"
        build_trace(n=RECORDS // 2, with_states=True).to_jsonl(short)
        flip_shard_bit(shard_dir, 2)
        with pytest.raises(StoreError, match="source"):
            repair_store(shard_dir, source=short)


class TestNothingToRepair:
    def test_empty_directory(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(StoreError, match="nothing to repair"):
            repair_store(empty)
