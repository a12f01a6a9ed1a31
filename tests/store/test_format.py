"""Tests for the on-disk shard format and writer (repro.store.format)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import core, obs
from repro.core.types import Trace
from repro.errors import StoreError, TraceError
from repro.store import (
    DEFAULT_SHARD_SIZE,
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    ShardedTrace,
    ShardWriter,
    iter_jsonl_records,
    load_manifest,
    schema_hash,
    shard_filename,
    write_shards,
)

from tests.store.conftest import build_trace


class TestSchemaHash:
    def test_deterministic_and_order_free(self):
        assert schema_hash(["a", "b"]) == schema_hash(["b", "a"])
        assert schema_hash(["a", "b"]) == schema_hash(["a", "b"])

    def test_sensitive_to_names(self):
        assert schema_hash(["a", "b"]) != schema_hash(["a", "c"])


class TestShardWriter:
    def test_round_trip_all_field_kinds(self, tmp_path):
        trace = build_trace(n=50, with_states=True)
        write_shards(iter(trace), tmp_path / "s", shard_size=13)
        back = ShardedTrace(tmp_path / "s").materialize()
        assert list(back) == list(trace)

    def test_value_types_round_trip_exactly(self, tmp_path):
        # bool vs int vs float feature values must decode to the same
        # type, not just an equal-hashing value (True == 1 == 1.0).
        records = [
            core.TraceRecord(
                context=core.ClientContext(flag=value),
                decision="a",
                reward=1.0,
                propensity=0.5,
            )
            for value in (True, 1, False, 0, 1.0)
        ]
        write_shards(iter(records), tmp_path / "s", shard_size=2)
        decoded = [
            record.context["flag"]
            for record in ShardedTrace(tmp_path / "s")
        ]
        assert [(type(v), v) for v in decoded] == [
            (bool, True), (int, 1), (bool, False), (int, 0), (float, 1.0)
        ]

    def test_shard_layout_and_manifest(self, tmp_path):
        trace = build_trace(n=50)
        write_shards(iter(trace), tmp_path / "s", shard_size=20)
        names = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert names == [
            MANIFEST_NAME,
            shard_filename(0),
            shard_filename(1),
            shard_filename(2),
        ]
        manifest = load_manifest(tmp_path / "s")
        assert manifest["format"] == FORMAT_NAME
        assert manifest["version"] == FORMAT_VERSION
        assert manifest["schema"]["features"] == ["count", "isp", "nat", "x"]
        assert manifest["schema_hash"] == schema_hash(["count", "isp", "nat", "x"])
        assert manifest["total_records"] == 50
        assert [shard["records"] for shard in manifest["shards"]] == [20, 20, 10]

    def test_manifest_summaries_match_columns(self, tmp_path):
        trace = build_trace(n=30)
        write_shards(iter(trace), tmp_path / "s", shard_size=30)
        (entry,) = load_manifest(tmp_path / "s")["shards"]
        rewards = trace.rewards()
        assert entry["rewards"]["count"] == 30
        assert entry["rewards"]["min"] == float(rewards.min())
        assert entry["rewards"]["max"] == float(rewards.max())
        assert entry["rewards"]["sum"] == float(rewards.sum())
        assert entry["propensities"]["count"] == 30

    def test_missing_propensity_summarised_as_nan_gap(self, tmp_path):
        trace = build_trace(n=10, with_propensities=False)
        write_shards(iter(trace), tmp_path / "s", shard_size=10)
        (entry,) = load_manifest(tmp_path / "s")["shards"]
        assert entry["propensities"]["count"] == 0

    def test_refuses_existing_manifest(self, tmp_path):
        write_shards(iter(build_trace(n=5)), tmp_path / "s")
        with pytest.raises(StoreError):
            ShardWriter(tmp_path / "s")

    def test_refuses_empty_close(self, tmp_path):
        writer = ShardWriter(tmp_path / "s")
        with pytest.raises(StoreError):
            writer.close()

    def test_refuses_schema_drift(self, tmp_path):
        writer = ShardWriter(tmp_path / "s")
        writer.append(build_trace(n=1)[0])
        with pytest.raises(TraceError):
            writer.append(
                core.TraceRecord(
                    context=core.ClientContext(other=1.0),
                    decision="a",
                    reward=0.0,
                    propensity=0.5,
                )
            )

    def test_refuses_bad_shard_size(self, tmp_path):
        with pytest.raises(StoreError):
            ShardWriter(tmp_path / "s", shard_size=0)

    def test_append_after_close_refused(self, tmp_path):
        writer = ShardWriter(tmp_path / "s")
        writer.append(build_trace(n=1)[0])
        writer.close()
        with pytest.raises(StoreError):
            writer.append(build_trace(n=1)[0])

    def test_torn_write_leaves_no_manifest(self, tmp_path):
        # The context manager only writes the manifest on clean exit, so
        # a crash mid-write leaves a directory the reader refuses.
        with pytest.raises(RuntimeError):
            with ShardWriter(tmp_path / "s", shard_size=2) as writer:
                writer.extend(iter(build_trace(n=5)))
                raise RuntimeError("simulated crash")
        assert not (tmp_path / "s" / MANIFEST_NAME).exists()
        with pytest.raises(StoreError):
            load_manifest(tmp_path / "s")

    def test_default_shard_size_used(self, tmp_path):
        write_shards(iter(build_trace(n=5)), tmp_path / "s")
        manifest = load_manifest(tmp_path / "s")
        assert manifest["requested_shard_size"] == DEFAULT_SHARD_SIZE

    def test_shard_bytes_metric_is_published(self, tmp_path):
        with obs.capture() as recorder:
            write_shards(iter(build_trace(n=30)), tmp_path / "s", shard_size=10)
        snapshot = recorder.metrics.snapshot()
        assert snapshot["histograms"]["store.shard.bytes"]["count"] == 3
        paths = [record.path for record in recorder.spans]
        assert any("store.write.shard" in path for path in paths)


class TestTraceToShards:
    def test_trace_method_returns_reader(self, tmp_path):
        trace = build_trace(n=12)
        sharded = trace.to_shards(tmp_path / "s", shard_size=5)
        assert isinstance(sharded, ShardedTrace)
        assert len(sharded) == 12
        assert list(sharded.materialize()) == list(trace)


class TestManifestInvalidation:
    def _written(self, tmp_path):
        write_shards(iter(build_trace(n=10)), tmp_path / "s", shard_size=4)
        return tmp_path / "s"

    def _rewrite(self, directory, mutate):
        path = directory / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        mutate(manifest)
        path.write_text(json.dumps(manifest))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(StoreError, match="no manifest.json"):
            load_manifest(tmp_path)

    def test_invalid_json(self, tmp_path):
        directory = self._written(tmp_path)
        (directory / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(StoreError, match="not valid JSON"):
            load_manifest(directory)

    def test_unknown_format_name(self, tmp_path):
        directory = self._written(tmp_path)
        self._rewrite(directory, lambda m: m.update(format="other"))
        with pytest.raises(StoreError, match="format"):
            load_manifest(directory)

    def test_version_mismatch(self, tmp_path):
        directory = self._written(tmp_path)
        for version in (FORMAT_VERSION + 1, 1):
            self._rewrite(directory, lambda m: m.update(version=version))
            with pytest.raises(StoreError, match="format version .* is not supported"):
                load_manifest(directory)

    def test_schema_hash_mismatch(self, tmp_path):
        directory = self._written(tmp_path)
        self._rewrite(
            directory, lambda m: m["schema"]["features"].append("smuggled")
        )
        with pytest.raises(StoreError, match="schema_hash"):
            load_manifest(directory)

    def test_total_records_mismatch(self, tmp_path):
        directory = self._written(tmp_path)
        self._rewrite(directory, lambda m: m.update(total_records=99))
        with pytest.raises(StoreError, match="total_records"):
            load_manifest(directory)

    def test_missing_shard_file(self, tmp_path):
        directory = self._written(tmp_path)
        (directory / shard_filename(1)).unlink()
        with pytest.raises(StoreError, match="missing shard file"):
            load_manifest(directory)

    def test_corrupt_shard_lengths_refused_at_load(self, tmp_path):
        directory = self._written(tmp_path)
        path = directory / shard_filename(0)
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["rewards"] = arrays["rewards"][:-1]
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(StoreError, match="corrupt"):
            ShardedTrace(directory)[0]


class TestIterJsonlRecords:
    def test_streams_a_jsonl_trace(self, tmp_path):
        trace = build_trace(n=8, with_states=True)
        trace.to_jsonl(str(tmp_path / "t.jsonl"))
        assert list(iter_jsonl_records(tmp_path / "t.jsonl")) == list(trace)

    def test_blank_lines_skipped(self, tmp_path):
        trace = build_trace(n=3)
        trace.to_jsonl(str(tmp_path / "t.jsonl"))
        text = (tmp_path / "t.jsonl").read_text()
        (tmp_path / "t.jsonl").write_text("\n" + text + "\n\n")
        assert list(iter_jsonl_records(tmp_path / "t.jsonl")) == list(trace)

    def test_invalid_json_names_the_line(self, tmp_path):
        (tmp_path / "t.jsonl").write_text('{"bad": \n')
        with pytest.raises(TraceError, match=":1"):
            list(iter_jsonl_records(tmp_path / "t.jsonl"))

    def test_jsonl_to_shards_round_trip(self, tmp_path):
        trace = build_trace(n=9)
        trace.to_jsonl(str(tmp_path / "t.jsonl"))
        write_shards(
            iter_jsonl_records(tmp_path / "t.jsonl"), tmp_path / "s", shard_size=4
        )
        assert list(ShardedTrace(tmp_path / "s").materialize()) == list(trace)


class TestDenseEquivalenceOfColumns:
    def test_shard_columns_match_dense_columns(self, tmp_path):
        trace = build_trace(n=25)
        sharded = trace.to_shards(tmp_path / "s", shard_size=10)
        dense = trace.columns()
        np.testing.assert_array_equal(sharded.rewards(), dense.rewards)
        np.testing.assert_array_equal(sharded.propensities(), dense.propensities)
        assert sharded.decisions() == list(dense.decisions)
        assert sharded.contexts() == list(dense.contexts)
        assert Trace(sharded.materialize()).columns().feature_names() == (
            dense.feature_names()
        )


def _batch(rewards=(0.5, 1.0), propensities=(0.5, 0.25), **overrides):
    """A two-record live batch over one context cell."""
    from repro.live.chunks import StreamBatch

    fields = dict(
        context_codes=np.zeros(len(rewards), dtype=np.intp),
        decision_codes=np.arange(len(rewards), dtype=np.intp) % 2,
        rewards=np.asarray(rewards, dtype=np.float64),
        propensities=np.asarray(propensities, dtype=np.float64),
        timestamps=np.arange(len(rewards), dtype=np.float64),
        contexts_vocabulary=(core.ClientContext(a="x"),),
        decisions_vocabulary=("d0", "d1"),
        feature_names=("a",),
    )
    fields.update(overrides)
    return StreamBatch(**fields)


class TestWriterBatchChecks:
    """A batch gets the checks its records would get from TraceRecord."""

    @pytest.mark.parametrize("reward", [np.inf, -np.inf, np.nan])
    def test_non_finite_reward_refused(self, tmp_path, reward):
        with pytest.raises(TraceError):
            ShardWriter(tmp_path / "s").extend(_batch(rewards=(0.5, reward)))

    @pytest.mark.parametrize("propensity", [0.0, -0.25, 1.0 + 1e-9, np.nan])
    def test_propensity_outside_unit_interval_refused(self, tmp_path, propensity):
        with pytest.raises(TraceError):
            ShardWriter(tmp_path / "s").extend(
                _batch(propensities=(0.5, propensity))
            )

    def test_propensity_tolerance_accepted(self, tmp_path):
        with ShardWriter(tmp_path / "s") as writer:
            writer.extend(_batch(propensities=(0.5, 1.0 + 1e-12)))
        assert len(ShardedTrace(tmp_path / "s")) == 2

    def test_used_context_with_other_schema_refused(self, tmp_path):
        cells = (core.ClientContext(a="x"), core.ClientContext(b="x"))
        batch = _batch(
            context_codes=np.array([0, 1], dtype=np.intp),
            contexts_vocabulary=cells,
        )
        with pytest.raises(TraceError, match="record 1 has"):
            ShardWriter(tmp_path / "s").extend(batch)

    def test_unused_context_with_other_schema_ignored(self, tmp_path):
        cells = (core.ClientContext(a="x"), core.ClientContext(b="x"))
        with ShardWriter(tmp_path / "s") as writer:
            writer.extend(_batch(contexts_vocabulary=cells))
        assert len(ShardedTrace(tmp_path / "s")) == 2

    def test_schema_change_from_record_to_batch_refused(self, tmp_path):
        writer = ShardWriter(tmp_path / "s")
        writer.append(build_trace(n=1)[0])
        with pytest.raises(TraceError):
            writer.extend(_batch())

    def test_nan_timestamps_written_as_records_write_them(self, tmp_path):
        # A record stores a nan timestamp as None; the batch's own nan
        # bits (here a negative nan) must not reach the shard.
        batch = _batch(timestamps=np.array([-np.nan, 1.0]))
        with ShardWriter(tmp_path / "batch") as writer:
            writer.extend(batch)
        write_shards(batch.iter_records(), tmp_path / "records")
        name = shard_filename(0)
        assert (tmp_path / "batch" / name).read_bytes() == (
            tmp_path / "records" / name
        ).read_bytes()

    def test_records_and_batches_share_a_shard(self, tmp_path):
        # Appended records and extended batches interleave inside one
        # shard, and shards end mid-batch: the bytes must still be those
        # of the same records written through write_shards.
        from repro.workloads.drift import LiveTrafficGenerator

        batches = list(
            LiveTrafficGenerator(
                scenario="diurnal", seed=3, chunk_records=7, arrivals_per_hour=10.0
            ).iter_batches(max_records=70)
        )
        with ShardWriter(tmp_path / "mixed", shard_size=16) as writer:
            for index, batch in enumerate(batches):
                if index % 2:
                    writer.extend(batch)
                else:
                    for record in batch.iter_records():
                        writer.append(record)
        records = [record for batch in batches for record in batch.iter_records()]
        write_shards(records, tmp_path / "records", shard_size=16)
        assert load_manifest(tmp_path / "mixed") == load_manifest(tmp_path / "records")
        for index in range(5):
            name = shard_filename(index)
            assert (tmp_path / "mixed" / name).read_bytes() == (
                tmp_path / "records" / name
            ).read_bytes()

    def test_equal_contexts_of_distinct_types_keep_their_bytes(self, tmp_path):
        # ClientContext(a=1) == ClientContext(a=True): interning contexts
        # by equality would write the second record's flag as 1.
        records = [
            core.TraceRecord(
                context=core.ClientContext(a=value),
                decision="d",
                reward=float(index),
                propensity=0.5,
            )
            for index, value in enumerate((1, True, 1, True))
        ]
        write_shards(iter(records), tmp_path / "s", shard_size=10)
        data = (tmp_path / "s" / shard_filename(0)).read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "f6b85730d70e0d3ee7dd42ac40ca1ec70dd6cedef2c5aba9c65dc66f1095f7b3"
        )
        flags = [record.context["a"] for record in ShardedTrace(tmp_path / "s")]
        assert [type(flag) for flag in flags] == [int, bool, int, bool]
