"""On-disk sharded traces and streaming (out-of-core) evaluation.

The storage tier behind the ROADMAP's "heavy traffic from millions of
users": a trace too big for RAM lives as a directory of ``.npz`` shards
plus a JSON manifest (:mod:`repro.store.format`), is read lazily through
the Trace-compatible :class:`ShardedTrace` (:mod:`repro.store.sharded`),
and is evaluated chunk-by-chunk with results bit-identical to the dense
in-memory path (:mod:`repro.store.streaming`).

The tier is fault-tolerant end to end: every shard's size and sha256
checksum sit in the manifest and are verified on first decode or
eagerly via :func:`verify_store` (``repro verify``); reads degrade per policy
(retry transient faults, quarantine permanently-bad shards — see
:class:`ShardedTrace`'s ``on_corruption``); writes are crash-consistent
(atomic renames plus a write-ahead journal); and :func:`repair_store`
(``repro repair``) rebuilds a damaged directory from its journal, its
survivors, or the original source JSONL.

Typical flows::

    # Shard an existing in-memory trace.
    sharded = trace.to_shards("runs/trace-shards", shard_size=100_000)

    # Generate synthetic data straight to disk (never in RAM).
    workload.generate_to_shards(n, "runs/big-shards", rng)

    # Evaluate exactly as if it were dense.
    result = DoublyRobust(model).estimate(new_policy, sharded)

    # Check integrity eagerly; degrade instead of dying on bad disks.
    assert verify_store("runs/big-shards").ok
    tolerant = ShardedTrace("runs/big-shards", on_corruption="quarantine")

DESIGN.md §10 documents the format, its versioning/invalidation rules,
and the streaming-accumulator derivations; §11 the integrity fields,
degradation policy, and crash-consistency protocol.
"""

from repro.store.format import (
    DEFAULT_SHARD_SIZE,
    FORMAT_NAME,
    FORMAT_VERSION,
    JOURNAL_NAME,
    MANIFEST_NAME,
    ShardWriter,
    encode_shard,
    iter_jsonl_records,
    load_manifest,
    schema_hash,
    shard_filename,
    write_shards,
)
from repro.store.integrity import (
    QuarantinedShard,
    ShardCheckResult,
    ShardQuarantineReport,
    StoreVerifyReport,
    shard_checksum,
    verify_store,
)
from repro.store.naming import ResolvedTrace, TraceCatalog
from repro.store.repair import RepairReport, repair_store
from repro.store.sharded import (
    CORRUPTION_POLICIES,
    DEFAULT_CHUNK_RECORDS,
    ShardedTrace,
    is_streaming_trace,
)
from repro.store.streaming import stream_estimate

__all__ = [
    "CORRUPTION_POLICIES",
    "DEFAULT_CHUNK_RECORDS",
    "DEFAULT_SHARD_SIZE",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "JOURNAL_NAME",
    "MANIFEST_NAME",
    "QuarantinedShard",
    "RepairReport",
    "ResolvedTrace",
    "ShardCheckResult",
    "ShardQuarantineReport",
    "ShardWriter",
    "ShardedTrace",
    "StoreVerifyReport",
    "TraceCatalog",
    "encode_shard",
    "is_streaming_trace",
    "iter_jsonl_records",
    "load_manifest",
    "repair_store",
    "schema_hash",
    "shard_checksum",
    "shard_filename",
    "stream_estimate",
    "verify_store",
    "write_shards",
]
