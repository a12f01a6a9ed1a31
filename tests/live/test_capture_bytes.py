"""Captured shards pinned byte for byte.

``repro watch --capture`` writes every observed record to shards.  For
each drift scenario (``diurnal`` carries per-record states) the shards
a :class:`LiveWatch` captures must:

* hash to the literals below, recorded before capture encoded shards
  straight from the chunk columns (when it still materialised one
  ``TraceRecord`` per record); and
* equal, file for file and manifest entry for manifest entry, what
  ``write_shards`` writes from the same records materialised with
  ``StreamBatch.iter_records()``.

1,024-record chunks against 5,000-record shards make chunks straddle
shard boundaries.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.estimators import SelfNormalizedIPS
from repro.live import LiveWatch, require_verified
from repro.store import load_manifest, write_shards
from repro.workloads.drift import LiveTrafficGenerator

RECORDS = 12_288
CHUNK = 1_024
SHARD = 5_000

#: Per scenario: the sha256 of each captured shard file, then the
#: sha256 of the manifest's shard entries (canonical JSON).
PINNED = {
    "stationary": (
        [
            "ae7d8f29d01a10c407f8b28ad9c6c17cf30f31fbfb41538fac9642f62f467de6",
            "fa46fdf589f95eeea396ec2eaec5ee9cce69a9b11036dbae7cad849ab0324ca9",
            "c8d2dd42aa94f32b1ae35e5ff2664ac1681a1d17f5ce9a4806244e6ef1989599",
        ],
        "e4bfc752dd079d8867008c556518cfdeae2e0328ac850143dfa5d08b3eef1147",
    ),
    "diurnal": (
        [
            "ad45aea76708ef6799f19dea8de482f34cb9a62e3e6a4d225096d3bde3bad14c",
            "2d70838cf24dd08c54db8f72e942fadae762aae580de0f452650f30471adca93",
            "beb294bd1111f322d9765213bc2c3ef497c849474b8bbe0b90185132b39d4b2d",
        ],
        "069b56d35a116b02cd4814239b089a41dd72b77fb4ecea1409d7c415112971c4",
    ),
    "flash-crowd": (
        [
            "8e8f31d247fb21d390bed795cd1834be8abd36f67e14bd9a7c7e633f3199a914",
            "3d3ef4040561565123637174defff10c063a6a1a061b58e794f481a91b1b85b2",
            "c8d2dd42aa94f32b1ae35e5ff2664ac1681a1d17f5ce9a4806244e6ef1989599",
        ],
        "369842e76c3e1764e5fa0016c304ea60dc900e76d05f6a4fcbfd2cb43278d86b",
    ),
    "coupled": (
        [
            "f3c4aca1e0ff6700010f703781051ab4d7d0b70afffec778bb39478d674b634a",
            "2d0be14736c6da3a86374411139b52d7cdad572cad15af90ce5a242c15717c30",
            "70f3856c877ce5a5a359e0143d9e4e39cf1053fde5c6b12a754e10d2f9a81537",
        ],
        "c09aeccda5fd3578366248918a41cc3d10dfdaf43f936592622c34d39ba6e835",
    ),
}


def generator(scenario):
    # 500 arrivals an hour spread the prefix over ~24.6 simulated hours,
    # so the diurnal states cycle through every band.
    return LiveTrafficGenerator(
        scenario=scenario,
        seed=23,
        chunk_records=CHUNK,
        arrivals_per_hour=500.0,
        flash_start=3_000,
        flash_duration=4_000,
    )


def capture(scenario, directory):
    source = generator(scenario)
    watch = LiveWatch(
        SelfNormalizedIPS,
        source.candidate_policies(2),
        capture_directory=directory,
        capture_shard_size=SHARD,
    )
    for batch in source.iter_batches(max_records=RECORDS):
        watch.process(batch)
    watch.close_capture()
    require_verified(watch.verify_against_capture(directory))
    return load_manifest(directory)


def digests(directory, manifest):
    return [
        hashlib.sha256((directory / entry["file"]).read_bytes()).hexdigest()
        for entry in manifest["shards"]
    ]


def entries_digest(manifest):
    payload = json.dumps(manifest["shards"], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_capture_matches_pinned_bytes(scenario, tmp_path):
    directory = tmp_path / "capture"
    manifest = capture(scenario, directory)
    assert [entry["records"] for entry in manifest["shards"]] == [
        5_000,
        5_000,
        2_288,
    ]
    assert (digests(directory, manifest), entries_digest(manifest)) == (
        PINNED[scenario]
    )


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_capture_equals_records_written(scenario, tmp_path):
    captured = tmp_path / "capture"
    manifest = capture(scenario, captured)
    records = [
        record
        for batch in generator(scenario).iter_batches(max_records=RECORDS)
        for record in batch.iter_records()
    ]
    written = tmp_path / "written"
    write_shards(records, written, shard_size=SHARD)
    reference = load_manifest(written)
    assert manifest["shards"] == reference["shards"]
    for entry in manifest["shards"]:
        assert (captured / entry["file"]).read_bytes() == (
            written / entry["file"]
        ).read_bytes()
