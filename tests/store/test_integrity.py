"""Shard integrity: checksums, classification, verify, degraded reads."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import (
    ShardChecksumError,
    ShardMissingError,
    ShardReadError,
    ShardTruncatedError,
    StoreError,
)
from repro.runtime import RetryPolicy
from repro.store import (
    FORMAT_VERSION,
    ShardedTrace,
    load_manifest,
    shard_filename,
    verify_store,
)
from repro.testing.faults import (
    EIOOnNthRead,
    SlowRead,
    delete_shard,
    flip_shard_bit,
    tear_manifest,
    truncate_shard,
)

from .conftest import build_trace

RECORDS = 90
SHARD_SIZE = 30  # 3 shards


@pytest.fixture
def shard_dir(tmp_path):
    trace = build_trace(n=RECORDS, with_states=True)
    directory = tmp_path / "shards"
    trace.to_shards(directory, shard_size=SHARD_SIZE)
    return directory


class TestManifestIntegrityFields:
    def test_v2_manifest_records_bytes_and_sha256_per_shard(self, shard_dir):
        manifest = load_manifest(shard_dir)
        assert manifest["version"] == FORMAT_VERSION
        assert manifest["checksum_algorithm"] == "sha256"
        for entry in manifest["shards"]:
            path = shard_dir / entry["file"]
            assert entry["bytes"] == path.stat().st_size
            assert isinstance(entry["sha256"], str)
            assert len(entry["sha256"]) == 64

    def test_missing_integrity_fields_refused(self, shard_dir):
        manifest_path = shard_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["shards"][0]["sha256"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="integrity fields"):
            load_manifest(shard_dir)


class TestVerifyDetectsEveryCorruption:
    def test_clean_store_verifies(self, shard_dir):
        report = verify_store(shard_dir)
        assert report.ok
        assert report.corrupt == ()
        assert "all shards verified" in report.render()

    def test_bit_flip_classifies_as_checksum_mismatch(self, shard_dir):
        flip_shard_bit(shard_dir, 1)
        report = verify_store(shard_dir)
        assert not report.ok
        (bad,) = report.corrupt
        assert bad.kind == "checksum-mismatch"
        assert bad.file == shard_filename(1)
        assert "repro repair" in report.render()

    def test_truncation_classifies_as_truncated(self, shard_dir):
        truncate_shard(shard_dir, 2)
        (bad,) = verify_store(shard_dir).corrupt
        assert bad.kind == "truncated"

    def test_deletion_classifies_as_missing(self, shard_dir):
        delete_shard(shard_dir, 0)
        (bad,) = verify_store(shard_dir).corrupt
        assert bad.kind == "missing"

    def test_torn_manifest_is_a_manifest_error_not_a_crash(self, shard_dir):
        tear_manifest(shard_dir)
        report = verify_store(shard_dir)
        assert not report.ok
        assert report.manifest_error is not None
        assert "CORRUPT" in report.render()

    def test_multiple_faults_all_reported(self, shard_dir):
        flip_shard_bit(shard_dir, 0)
        delete_shard(shard_dir, 2)
        report = verify_store(shard_dir)
        assert {shard.kind for shard in report.corrupt} == {
            "checksum-mismatch",
            "missing",
        }


class TestLazyVerificationOnDecode:
    def test_bit_flip_raises_typed_error_at_first_decode(self, shard_dir):
        flip_shard_bit(shard_dir, 1)
        trace = ShardedTrace(shard_dir)
        trace[0]  # shard 0 is fine
        with pytest.raises(ShardChecksumError):
            trace[SHARD_SIZE]  # first record of shard 1

    def test_truncated_shard_raises_typed_error(self, shard_dir):
        truncate_shard(shard_dir, 0)
        with pytest.raises(ShardTruncatedError):
            ShardedTrace(shard_dir)[0]

    def test_missing_shard_raises_at_open_in_strict_mode(self, shard_dir):
        delete_shard(shard_dir, 0)
        with pytest.raises(StoreError, match="missing shard file"):
            ShardedTrace(shard_dir)

    def test_failure_is_sticky_without_rereading(self, shard_dir):
        flip_shard_bit(shard_dir, 0)
        trace = ShardedTrace(shard_dir)
        with pytest.raises(ShardChecksumError):
            trace[0]
        # Second access re-raises the classified error even if the file
        # has been deleted since — no second read happens.
        delete_shard(shard_dir, 0)
        with pytest.raises(ShardChecksumError):
            trace[0]


class TestTransientFaultRetry:
    def test_transient_eio_recovers_within_policy(self, shard_dir):
        trace = ShardedTrace(shard_dir, retry=RetryPolicy(max_attempts=3))
        # Patch away real sleeping: route through the store's policy but
        # verify recovery, not wall-clock.
        with EIOOnNthRead(fail_on=[1, 2]):
            record = trace[0]
        assert record.reward == build_trace(n=RECORDS, with_states=True)[0].reward

    def test_exhausted_retries_classify_as_io_error(self, shard_dir):
        trace = ShardedTrace(shard_dir, retry=RetryPolicy(max_attempts=2))
        with EIOOnNthRead(fail_on=[1, 2, 3, 4]):
            with pytest.raises(ShardReadError, match="after 2 attempt"):
                trace[0]

    def test_single_attempt_without_policy(self, shard_dir):
        trace = ShardedTrace(shard_dir)
        with EIOOnNthRead(fail_on=[1]):
            with pytest.raises(ShardReadError, match="after 1 attempt"):
                trace[0]

    def test_missing_file_is_never_retried(self, shard_dir):
        delete_shard(shard_dir, 1)
        trace = ShardedTrace(
            shard_dir, on_corruption="quarantine", retry=RetryPolicy(max_attempts=5)
        )
        with EIOOnNthRead(fail_on=[]) as counter:
            with pytest.raises(ShardMissingError):
                trace[SHARD_SIZE]
        # One probe, not five: FileNotFoundError is permanent.
        assert counter.reads == 1

    def test_backoff_is_deterministic_per_shard(self, shard_dir):
        policy = RetryPolicy(max_attempts=3)
        from repro.store.integrity import read_shard_with_retry

        def delays():
            slept = []
            with EIOOnNthRead(fail_on=[1, 2]):
                read_shard_with_retry(
                    shard_dir / shard_filename(0),
                    retry=policy,
                    seed=0,
                    sleep=slept.append,
                )
            return slept

        assert delays() == delays()

    def test_slow_read_injector_counts_stalls(self, shard_dir):
        stalls = []
        with SlowRead(delay=7.5, sleep=stalls.append):
            ShardedTrace(shard_dir)[0]
        assert stalls == [7.5]


class TestQuarantineDegradation:
    def test_quarantine_skips_bad_shard_and_accounts_loss(self, shard_dir):
        flip_shard_bit(shard_dir, 1)
        trace = ShardedTrace(shard_dir, on_corruption="quarantine")
        seen = sum(len(chunk) for chunk in trace.iter_chunks())
        assert seen == RECORDS - SHARD_SIZE
        assert trace.quarantined_records() == SHARD_SIZE
        report = trace.quarantine_report()
        assert report.dropped_shards == 1
        assert report.dropped_records == SHARD_SIZE
        assert report.reason_counts == {"checksum-mismatch": 1}
        assert "dropped 1/3" in report.render()

    def test_missing_shard_quarantines_at_read_time(self, shard_dir):
        delete_shard(shard_dir, 2)
        trace = ShardedTrace(shard_dir, on_corruption="quarantine")
        seen = sum(len(chunk) for chunk in trace.iter_chunks())
        assert seen == RECORDS - SHARD_SIZE
        assert trace.quarantine_report().reason_counts == {"missing": 1}

    def test_random_access_still_raises_under_quarantine_policy(self, shard_dir):
        flip_shard_bit(shard_dir, 1)
        trace = ShardedTrace(shard_dir, on_corruption="quarantine")
        with pytest.raises(ShardChecksumError):
            trace[SHARD_SIZE]

    def test_bad_policy_name_refused(self, shard_dir):
        with pytest.raises(StoreError, match="on_corruption"):
            ShardedTrace(shard_dir, on_corruption="ignore")

    def test_quarantine_emits_obs_metrics(self, shard_dir):
        from repro import obs

        flip_shard_bit(shard_dir, 0)
        trace = ShardedTrace(shard_dir, on_corruption="quarantine")
        recorder = obs.enable()
        try:
            list(trace.iter_chunks())
        finally:
            obs.disable()
        metrics = recorder.metrics.snapshot()
        assert metrics["counters"]["ope.store.quarantine.shards"] == 1
        assert metrics["counters"]["ope.store.quarantine.records"] == SHARD_SIZE
