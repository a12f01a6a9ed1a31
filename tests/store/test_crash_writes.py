"""Crash-consistent writes: a kill at any instant never yields garbage.

The protocol under test (DESIGN.md §11): shard bytes land via atomic
rename, a journal entry certifies each durable shard *after* its rename,
and the manifest commits atomically last.  So for a crash at any point:
either the directory loads (manifest present ⇒ complete), or it is
*detectably* partial — no manifest, and a journal `repro repair` can
promote.  Never a manifest pointing at garbage.
"""

from __future__ import annotations

import pytest

from repro.errors import StoreError
from repro.store import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    ShardWriter,
    ShardedTrace,
    load_manifest,
    repair_store,
    verify_store,
)
from repro.testing.faults import SimulatedCrash

from .conftest import build_trace

SHARD_SIZE = 25
RECORDS = 100  # 4 shards


def _write_with_crash(directory, crash):
    """Stream the standard trace into *directory*; *crash* decides when
    to raise SimulatedCrash, called as crash(record_index)."""
    trace = build_trace(n=RECORDS)
    with pytest.raises(SimulatedCrash):
        with ShardWriter(directory, shard_size=SHARD_SIZE) as writer:
            for index, record in enumerate(trace):
                crash(index)
                writer.append(record)
            crash(RECORDS)
            writer.close()


class TestCrashPoints:
    def test_crash_mid_stream_leaves_detectable_partial(self, tmp_path):
        directory = tmp_path / "s"

        def crash(index):
            if index == 60:  # two shards committed, third buffering
                raise SimulatedCrash()

        _write_with_crash(directory, crash)
        assert not (directory / MANIFEST_NAME).exists()
        assert (directory / JOURNAL_NAME).exists()
        with pytest.raises(StoreError, match="repro repair"):
            load_manifest(directory)
        report = repair_store(directory)
        assert report.mode == "journal"
        assert report.total_records == 50
        assert verify_store(directory).ok
        assert len(ShardedTrace(directory)) == 50

    def test_crash_before_any_shard_has_nothing_to_recover(self, tmp_path):
        directory = tmp_path / "s"

        def crash(index):
            if index == 10:  # nothing flushed yet
                raise SimulatedCrash()

        _write_with_crash(directory, crash)
        assert not (directory / MANIFEST_NAME).exists()
        assert not (directory / JOURNAL_NAME).exists()
        with pytest.raises(StoreError, match="nothing to repair"):
            repair_store(directory)

    def test_crash_inside_shard_write_never_leaves_a_torn_shard(
        self, tmp_path, monkeypatch
    ):
        # Crash *inside* the atomic write of shard 2 (before its rename):
        # the final name must not exist, shards 0-1 must be intact.
        from repro.store import format as format_module

        directory = tmp_path / "s"
        real_write = format_module.atomic_write_bytes
        calls = {"n": 0}

        def crashing_write(path, data, durable=True):
            calls["n"] += 1
            if calls["n"] == 3:
                raise SimulatedCrash()
            return real_write(path, data, durable=durable)

        monkeypatch.setattr(format_module, "atomic_write_bytes", crashing_write)
        trace = build_trace(n=RECORDS)
        with pytest.raises(SimulatedCrash):
            with ShardWriter(directory, shard_size=SHARD_SIZE) as writer:
                writer.extend(trace)
        assert not (directory / "shard-00002.npz").exists()
        assert not list(directory.glob("*.tmp"))  # tmp cleaned on the way out
        report = repair_store(directory)
        assert report.kept == ["shard-00000.npz", "shard-00001.npz"]
        assert verify_store(directory).ok

    def test_crash_between_rename_and_journal_orphans_the_shard(
        self, tmp_path, monkeypatch
    ):
        # The narrow window the protocol deliberately loses: bytes are
        # durable but no journal entry certifies them, so repair must
        # leave the file out of the manifest (conservative, detectable).
        directory = tmp_path / "s"
        real_append = ShardWriter._journal_append
        calls = {"n": 0}

        def crashing_append(self, payload):
            calls["n"] += 1
            if calls["n"] == 3:
                raise SimulatedCrash()
            return real_append(self, payload)

        monkeypatch.setattr(ShardWriter, "_journal_append", crashing_append)
        trace = build_trace(n=RECORDS)
        with pytest.raises(SimulatedCrash):
            with ShardWriter(directory, shard_size=SHARD_SIZE) as writer:
                writer.extend(trace)
        assert (directory / "shard-00002.npz").exists()
        report = repair_store(directory)
        assert report.kept == ["shard-00000.npz", "shard-00001.npz"]
        assert report.orphaned == ["shard-00002.npz"]
        assert verify_store(directory).ok
        assert len(ShardedTrace(directory)) == 50

    def test_crash_before_manifest_recovers_every_shard(self, tmp_path):
        directory = tmp_path / "s"

        def crash(index):
            if index == RECORDS:  # all records appended, close() next
                raise SimulatedCrash()

        _write_with_crash(directory, crash)
        report = repair_store(directory)
        assert report.total_records == RECORDS
        assert verify_store(directory).ok
        recovered = ShardedTrace(directory)
        original = build_trace(n=RECORDS)
        assert recovered.mean_reward() == original.mean_reward()

    def test_torn_journal_line_drops_only_the_uncertified_shard(self, tmp_path):
        directory = tmp_path / "s"

        def crash(index):
            if index == RECORDS:
                raise SimulatedCrash()

        _write_with_crash(directory, crash)
        journal = directory / JOURNAL_NAME
        text = journal.read_text()
        # Tear the final entry mid-line: a crash mid-append.
        journal.write_text(text[: text.rfind("{") + 20])
        report = repair_store(directory)
        assert report.total_records == RECORDS - SHARD_SIZE
        assert verify_store(directory).ok


class TestBatchFedCrash:
    def test_crash_between_batches_recovers_the_journaled_shards(self, tmp_path):
        # Live capture feeds columnar batches, not records: 10-record
        # batches against 25-record shards, killed after the sixth batch
        # (two shards committed, one straddling batch boundaries, and
        # ten records buffering).
        from repro.workloads.drift import LiveTrafficGenerator

        directory = tmp_path / "s"
        batches = list(
            LiveTrafficGenerator(scenario="diurnal", seed=5, chunk_records=10)
            .iter_batches(max_records=RECORDS)
        )
        with pytest.raises(SimulatedCrash):
            with ShardWriter(directory, shard_size=SHARD_SIZE) as writer:
                for index, batch in enumerate(batches):
                    if index == 6:
                        raise SimulatedCrash()
                    writer.extend(batch)
        assert not (directory / MANIFEST_NAME).exists()
        report = repair_store(directory)
        assert report.mode == "journal"
        assert report.kept == ["shard-00000.npz", "shard-00001.npz"]
        assert report.total_records == 2 * SHARD_SIZE
        assert verify_store(directory).ok
        recovered = ShardedTrace(directory)
        assert len(recovered) == 2 * SHARD_SIZE
        records = [record for batch in batches for record in batch.iter_records()]
        assert list(recovered.materialize()) == records[: 2 * SHARD_SIZE]


class TestCleanClose:
    def test_journal_removed_after_manifest_commits(self, tmp_path):
        directory = tmp_path / "s"
        build_trace(n=RECORDS).to_shards(directory, shard_size=SHARD_SIZE)
        assert not (directory / JOURNAL_NAME).exists()
        assert (directory / MANIFEST_NAME).exists()

    def test_repair_of_a_healthy_store_is_a_no_op(self, tmp_path):
        directory = tmp_path / "s"
        build_trace(n=RECORDS).to_shards(directory, shard_size=SHARD_SIZE)
        before = (directory / MANIFEST_NAME).read_text()
        report = repair_store(directory)
        assert not report.changed
        assert report.dropped == [] and report.rederived == []
        assert (directory / MANIFEST_NAME).read_text() == before


class TestKillResumeVerifyRoundTrip:
    def test_kill_repair_verify_estimate(self, tmp_path):
        """The CI chaos-smoke round trip, in-process: kill a writer,
        repair from its journal, verify clean, and get a quantitatively
        sane estimate from the survivors."""
        from repro.core import IPS, DecisionSpace, FunctionPolicy

        directory = tmp_path / "s"

        def crash(index):
            if index == 77:
                raise SimulatedCrash()

        _write_with_crash(directory, crash)
        report = repair_store(directory)
        assert report.mode == "journal"
        assert verify_store(directory).ok
        trace = ShardedTrace(directory)
        assert len(trace) == 75
        decisions = sorted(trace.decision_set(), key=repr)
        space = DecisionSpace(decisions)
        uniform = FunctionPolicy(
            space, lambda context: {d: 1.0 / len(decisions) for d in decisions}
        )
        result = IPS().estimate(uniform, trace)
        assert result.n == 75
