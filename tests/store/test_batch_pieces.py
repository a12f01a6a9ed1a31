"""A shard built from live-batch pieces equals one built from records.

``ShardWriter.extend`` keeps each ``StreamBatch`` piece's decision and
context codes with the vocabulary tuple they index; the flush offsets
each distinct tuple's codes into one joined sequence.  Records appended
one at a time are coded by object identity instead.  Whatever the mix,
the shards and manifest entries must equal, byte for byte, what
``write_shards`` writes from the same records, and a schema mismatch
must name the same record either way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import core
from repro.errors import TraceError
from repro.live.chunks import StreamBatch
from repro.store import ShardWriter, load_manifest, write_shards

def cells(*values):
    return tuple(core.ClientContext(a=a, b=b) for a, b in values)


def batch(contexts, codes, decisions=("d0", ("cdn", 1)), states=None, seed=0):
    n = len(codes)
    rng = np.random.default_rng(seed)
    timestamps = np.arange(n, dtype=np.float64) + seed
    timestamps[::4] = np.nan
    return StreamBatch(
        np.asarray(codes, dtype=np.intp),
        rng.integers(0, len(decisions), n).astype(np.intp),
        rng.normal(size=n),
        rng.uniform(0.1, 1.0, n),
        timestamps,
        contexts,
        decisions,
        tuple(sorted(contexts[0].keys())),
        states=states,
    )


def record(context, seed):
    return core.TraceRecord(
        context=context, decision="d0", reward=float(seed), propensity=0.5,
        timestamp=None, state="hot" if seed % 2 else None,
    )


def assert_same_as_records(tmp_path, pieces, shard_size):
    """Write *pieces* (batches and records) through one ShardWriter, and
    their records through ``write_shards``; the two must agree."""
    captured, written = tmp_path / "captured", tmp_path / "written"
    with ShardWriter(captured, shard_size=shard_size) as writer:
        for piece in pieces:
            if isinstance(piece, StreamBatch):
                writer.extend(piece)
            else:
                writer.append(piece)
    records = [
        item
        for piece in pieces
        for item in (
            piece.iter_records() if isinstance(piece, StreamBatch) else [piece]
        )
    ]
    write_shards(records, written, shard_size=shard_size)
    manifest, reference = load_manifest(captured), load_manifest(written)
    assert manifest["shards"] == reference["shards"]
    for entry in manifest["shards"]:
        assert (captured / entry["file"]).read_bytes() == (
            written / entry["file"]
        ).read_bytes()
    return manifest


def test_one_shard_mixes_two_vocabulary_tuples(tmp_path):
    first = cells((1.0, "x"), (2.0, "y"), (3.0, "z"))
    # Equal values, other objects and order: a second stream's tuple.
    second = cells((3.0, "z"), (1.0, "x"), (4.0, "w"))
    labels = np.asarray(["hot", None, "cold", "hot", None, "hot"], dtype=object)
    pieces = [
        batch(first, [2, 0, 0, 1, 2, 0], seed=1),
        batch(second, [1, 2, 2, 0, 1, 0], seed=2, states=labels),
        batch(first, [0, 0, 1, 2, 1], decisions=("d0", ("cdn", 1), "d2"), seed=3),
        batch(second, [2, 2, 0, 1], seed=4),
    ]
    manifest = assert_same_as_records(tmp_path, pieces, shard_size=100)
    assert [entry["records"] for entry in manifest["shards"]] == [21]


def test_batch_pieces_and_appended_records_share_shards(tmp_path):
    vocabulary = cells((1.0, "x"), (2.0, "y"))
    shared, fresh = vocabulary[1], core.ClientContext(a=2.0, b="y")
    pieces = [
        batch(vocabulary, [0, 1, 1, 0, 1], seed=5),
        record(shared, 1),
        record(fresh, 2),
        batch(vocabulary, [1, 1, 0], seed=6, states=np.full(3, "cold", dtype=object)),
        record(vocabulary[0], 3),
        batch(vocabulary, [0, 1, 0, 0, 1, 1], seed=7),
        record(fresh, 4),
    ]
    manifest = assert_same_as_records(tmp_path, pieces, shard_size=6)
    assert [entry["records"] for entry in manifest["shards"]] == [6, 6, 6]


def test_int_bool_and_float_contexts_stay_apart(tmp_path):
    one, true, real = cells((1, "x"), (True, "x"), (1.0, "x"))
    assert one == true == real
    # A tuple may also hold one object twice; it codes as one value.
    pieces = [
        batch((one, true, real, one), [0, 1, 2, 3, 1, 0], seed=8),
        batch((true, one), [0, 1, 1], seed=9),
    ]
    manifest = assert_same_as_records(tmp_path, pieces, shard_size=100)
    assert manifest["shards"][0]["feature_kinds"] == ["coded", "coded"]


class TestBatchSchemaMismatch:
    def test_later_batch_names_the_record(self, tmp_path):
        writer = ShardWriter(tmp_path / "s", shard_size=4)
        writer.extend(batch(cells((1.0, "x")), [0] * 6))
        other = cells((1.0, "x")) + (core.ClientContext(a=1.0),)
        with pytest.raises(TraceError) as error:
            writer.extend(batch(other, [0, 0, 1, 0, 1]))
        assert str(error.value) == (
            "sharded traces require one feature schema; record 8 has "
            "('a',), expected ('a', 'b')"
        )

    def test_batch_after_records_names_the_record(self, tmp_path):
        writer = ShardWriter(tmp_path / "s")
        writer.append(record(core.ClientContext(c=0), 0))
        with pytest.raises(TraceError) as error:
            writer.extend(batch(cells((1.0, "x")), [0, 0]))
        assert str(error.value) == (
            "sharded traces require one feature schema; record 1 has "
            "('a', 'b'), expected ('c',)"
        )

    def test_shared_vocabulary_entry_used_later_names_the_record(self, tmp_path):
        vocabulary = cells((1.0, "x")) + (core.ClientContext(a=1.0),)
        writer = ShardWriter(tmp_path / "s")
        writer.extend(batch(vocabulary, [0, 0, 0]))
        with pytest.raises(TraceError, match=r"record 4 has \('a',\)"):
            writer.extend(batch(vocabulary, [0, 1, 1]))

    def test_empty_batch_fixes_no_schema(self, tmp_path):
        vocabulary = cells((1.0, "x"))
        writer = ShardWriter(tmp_path / "s")
        writer.extend(batch(vocabulary, []))
        writer.append(record(core.ClientContext(c=0), 0))
        with pytest.raises(TraceError, match=r"record 1 has \('a', 'b'\)"):
            writer.extend(batch(vocabulary, [0]))
