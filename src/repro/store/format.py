"""The on-disk sharded trace format: shard files plus a JSON manifest.

A **sharded trace** is a directory of ``shard-NNNNN.npz`` files plus one
``manifest.json``.  Each shard holds the same struct-of-arrays layout as
:class:`~repro.core.types.TraceColumns` — one array per record field —
so readers can hand whole columns to the batched estimator paths without
ever materialising per-record Python objects for the full trace:

* ``rewards`` / ``propensities`` / ``timestamps`` — ``float64`` columns
  (``nan`` encodes a missing propensity/timestamp, which
  :class:`~repro.core.types.TraceRecord` stores as ``None``);
* ``decision_codes`` + ``decision_vocab`` — decisions as integer codes
  into a per-shard first-seen vocabulary (vocabulary entries are
  JSON-encoded with the same tuple tagging as ``Trace.to_jsonl``, so
  composite decisions like ``("cdn-1", 720)`` round-trip exactly);
* ``state_codes`` + ``state_vocab`` — system-state labels, code ``-1``
  encoding ``None``;
* one column per context feature, named ``feature_<i>`` in sorted
  feature-name order.  A feature column is stored as raw ``float64`` /
  ``int64`` when every value in the shard is a plain Python float/int,
  and falls back to the coded (codes + JSON vocabulary) encoding for
  everything else — both are exact round-trips.

The manifest records the format version, the feature schema and its
hash, per-shard record counts and integrity fields (byte size and
sha256 content checksum, format v2), and per-shard reward/propensity
summaries.  **Invalidation rules** (enforced by the reader, documented
in DESIGN.md §10–11): a manifest whose ``version`` is not
:data:`FORMAT_VERSION` is refused; a manifest whose ``schema_hash`` does not
match the hash recomputed from its own schema is refused; a shard whose
size, checksum, or array lengths disagree with the manifest is refused
at decode time with a classified
:class:`~repro.errors.ShardCorruptionError`.

**Crash consistency** (DESIGN.md §11): every shard and the manifest are
written via tmp-file + fsync + ``os.replace`` (:mod:`repro.ioutil`),
and each committed shard is journaled to a write-ahead
``journal.jsonl`` *after* its rename — so a crash at any instant leaves
either a fully loadable directory or a cleanly detectable partial one
(no manifest, journal listing exactly the durable shards, which
``repro repair`` can promote into a manifest).  A manifest can never
point at garbage.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.types import (
    ClientContext,
    Trace,
    TraceRecord,
    _decode_value,
    _encode_value,
)
from repro.errors import JsonlRecordError, StoreError, TraceError
from repro.ioutil import atomic_write_bytes, atomic_write_text, fsync_directory
from repro.obs.spans import observe, recording, span
from repro.store.integrity import shard_checksum

#: Identifies a repro shard directory; readers refuse anything else.
FORMAT_NAME = "repro-sharded-trace"

#: Bump on any incompatible layout change; readers refuse versions they
#: do not speak.  v2 added per-shard integrity fields (``bytes``,
#: ``sha256``) and the write-ahead journal.
FORMAT_VERSION = 2

#: Manifest filename inside a shard directory.
MANIFEST_NAME = "manifest.json"

#: Write-ahead journal filename inside a shard directory.  Present only
#: while a write is in flight (or after a crash); removed once the
#: manifest commits.
JOURNAL_NAME = "journal.jsonl"

#: Format tag on the journal's header line.
JOURNAL_KIND = "repro-shard-journal"

#: Default records per shard for writers that are not told otherwise.
DEFAULT_SHARD_SIZE = 100_000

#: Raw (non-coded) feature column encodings.
_RAW_KINDS = ("f8", "i8")


def schema_hash(feature_names: Sequence[str]) -> str:
    """Deterministic hash of a trace's feature schema.

    Covers the format version and the sorted feature names — the two
    things that decide whether a reader can interpret the columns at
    all.  Stored in the manifest and recomputed by the reader; a
    mismatch means the manifest was hand-edited or corrupted.
    """
    payload = json.dumps(
        {"version": FORMAT_VERSION, "features": sorted(feature_names)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def shard_filename(index: int) -> str:
    """Canonical filename of the *index*-th shard."""
    return f"shard-{index:05d}.npz"


def _canonical(value: Any) -> Any:
    """Normalise numpy scalars to plain Python so JSON vocabularies and
    equality against freshly-decoded values both behave."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _encode_object_column(values: List[Any]) -> Tuple[np.ndarray, str]:
    """Code *values* into a first-seen vocabulary.

    Returns the ``intp`` code array and the JSON-encoded vocabulary
    (tuple-tagged, exactly like ``Trace.to_jsonl``).
    """
    codes = np.empty(len(values), dtype=np.intp)
    vocabulary: List[Any] = []
    positions: Dict[Any, int] = {}
    for index, value in enumerate(values):
        # Keyed by (type, value): Python hashes True == 1 == 1.0, which
        # would otherwise conflate vocabulary entries that must decode
        # back to distinct objects.
        key = (value.__class__, value)
        code = positions.get(key)
        if code is None:
            code = len(vocabulary)
            positions[key] = code
            vocabulary.append(value)
        codes[index] = code
    encoded = json.dumps([_encode_value(entry) for entry in vocabulary])
    return codes, encoded


def _decode_object_column(codes: np.ndarray, vocabulary_json: str) -> List[Any]:
    """Inverse of :func:`_encode_object_column`."""
    vocabulary = [_decode_value(entry) for entry in json.loads(vocabulary_json)]
    return [vocabulary[int(code)] for code in codes]


def _encode_feature_column(values: List[Any]) -> Tuple[str, np.ndarray, Optional[str]]:
    """Pick the tightest exact encoding for one feature column.

    ``("f8", array, None)`` when every value is a plain float,
    ``("i8", array, None)`` when every value is a plain int that fits
    ``int64``, else ``("coded", codes, vocab_json)``.  ``bool`` is an
    ``int`` subclass but must round-trip as ``bool``, so it always takes
    the coded path.
    """
    if values and all(type(value) is float for value in values):
        return "f8", np.asarray(values, dtype=np.float64), None
    if values and all(
        type(value) is int and -(2**63) <= value < 2**63 for value in values
    ):
        return "i8", np.asarray(values, dtype=np.int64), None
    codes, vocabulary = _encode_object_column(values)
    return "coded", codes, vocabulary


def _decode_feature_column(
    kind: str, array: np.ndarray, vocabulary_json: Optional[str]
) -> List[Any]:
    """Inverse of :func:`_encode_feature_column`."""
    if kind in _RAW_KINDS:
        return array.tolist()
    return _decode_object_column(array, vocabulary_json)


def _summary(values: np.ndarray) -> Dict[str, float]:
    """Min/max/sum summary of one finite-or-nan float column."""
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return {"count": 0, "min": None, "max": None, "sum": 0.0}
    return {
        "count": int(finite.size),
        "min": float(finite.min()),
        "max": float(finite.max()),
        "sum": float(finite.sum()),
    }


def encode_shard(
    records: Sequence[TraceRecord],
    feature_names: Sequence[str],
) -> Tuple[bytes, Dict[str, Any]]:
    """Encode one shard's records into npz bytes plus its manifest entry.

    Deterministic: the same records in the same order always produce the
    same bytes, the same checksum, and the same entry (minus ``file``,
    which the caller assigns) — which is what lets ``repro repair``
    re-derive a corrupted shard bit-identically from the source records.
    """
    count = len(records)
    arrays: Dict[str, np.ndarray] = {}
    rewards = np.empty(count, dtype=np.float64)
    propensities = np.empty(count, dtype=np.float64)
    timestamps = np.empty(count, dtype=np.float64)
    decisions: List[Any] = []
    states: List[Any] = []
    for position, record in enumerate(records):
        rewards[position] = record.reward
        propensities[position] = (
            np.nan if record.propensity is None else record.propensity
        )
        timestamps[position] = (
            np.nan if record.timestamp is None else record.timestamp
        )
        decisions.append(_canonical(record.decision))
        states.append(_canonical(record.state))
    arrays["rewards"] = rewards
    arrays["propensities"] = propensities
    arrays["timestamps"] = timestamps
    decision_codes, decision_vocab = _encode_object_column(decisions)
    arrays["decision_codes"] = decision_codes
    arrays["decision_vocab"] = np.asarray(decision_vocab)
    state_values = [state for state in states if state is not None]
    state_codes, state_vocab = _encode_object_column(state_values)
    padded = np.full(count, -1, dtype=np.intp)
    padded[[i for i, state in enumerate(states) if state is not None]] = (
        state_codes
    )
    arrays["state_codes"] = padded
    arrays["state_vocab"] = np.asarray(state_vocab)
    feature_kinds: List[str] = []
    for feature_index, name in enumerate(feature_names):
        column = [_canonical(record.context[name]) for record in records]
        kind, array, vocabulary = _encode_feature_column(column)
        feature_kinds.append(kind)
        arrays[f"feature_{feature_index}"] = array
        if vocabulary is not None:
            arrays[f"feature_{feature_index}_vocab"] = np.asarray(vocabulary)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    data = buffer.getvalue()
    entry = {
        "records": count,
        "bytes": len(data),
        "sha256": shard_checksum(data),
        "feature_kinds": feature_kinds,
        "rewards": _summary(rewards),
        "propensities": _summary(propensities),
    }
    return data, entry


class ShardWriter:
    """Stream records into a shard directory, one shard per ``shard_size``.

    Usage::

        with ShardWriter(directory, shard_size=100_000) as writer:
            for record in records:
                writer.append(record)
        sharded = ShardedTrace(directory)

    The writer buffers at most one shard of records at a time, so a
    10M-record trace can be written with O(shard_size) memory.  The first
    record fixes the feature schema; later records with a different
    schema raise :class:`~repro.errors.TraceError` (the format stores
    one column per feature, so a sharded trace is schema-consistent by
    construction).

    Crash-consistency protocol (DESIGN.md §11), per shard:

    1. the shard is encoded fully in memory and its sha256 computed;
    2. the bytes land via tmp-file + fsync + ``os.replace`` — the final
       name only ever points at a complete shard;
    3. a journal entry (filename, record count, size, checksum,
       summaries) is appended to ``journal.jsonl`` and fsynced — the
       durable record that this shard committed.

    The manifest is written by :meth:`close`, after the final shard,
    with the same atomic recipe, and the journal is removed once it
    lands.  A crash at any instant therefore leaves either a loadable
    directory (manifest present ⇒ every shard it names committed) or a
    cleanly detectable partial one (no manifest; the journal names
    exactly the shards that made it to disk, which ``repro repair`` can
    promote into a manifest).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        shard_size: int = DEFAULT_SHARD_SIZE,
    ):
        if shard_size <= 0:
            raise StoreError(f"shard_size must be positive, got {shard_size}")
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        if (self._directory / MANIFEST_NAME).exists():
            raise StoreError(
                f"{self._directory} already holds a sharded trace; "
                "refusing to overwrite it"
            )
        self._shard_size = int(shard_size)
        self._feature_names: Optional[Tuple[str, ...]] = None
        self._buffer: List[TraceRecord] = []
        self._shards: List[Dict[str, Any]] = []
        self._total = 0
        self._closed = False
        self._journal = None

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif self._journal is not None:
            # Crashing out: close the handle but leave journal.jsonl on
            # disk — it is the recovery record `repro repair` reads.
            self._journal.close()
            self._journal = None

    @property
    def directory(self) -> Path:
        """The shard directory being written."""
        return self._directory

    def append(self, record: TraceRecord) -> None:
        """Buffer one record, flushing a full shard to disk."""
        if self._closed:
            raise StoreError("ShardWriter is closed")
        names = record.context.keys()
        if self._feature_names is None:
            self._feature_names = names
        elif names != self._feature_names:
            raise TraceError(
                "sharded traces require one feature schema; record "
                f"{self._total + len(self._buffer)} has {names}, expected "
                f"{self._feature_names}"
            )
        self._buffer.append(record)
        if len(self._buffer) >= self._shard_size:
            self._flush_shard()

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Append every record of *records* in order."""
        for record in records:
            self.append(record)

    def _journal_append(self, payload: Dict[str, Any]) -> None:
        """Append one fsynced line to the write-ahead journal."""
        if self._journal is None:
            self._journal = open(
                self._directory / JOURNAL_NAME, "w", encoding="utf-8"
            )
            header = {
                "kind": JOURNAL_KIND,
                "version": 1,
                "format_version": FORMAT_VERSION,
                "schema": {"features": sorted(self._feature_names or ())},
                "requested_shard_size": self._shard_size,
            }
            self._journal.write(json.dumps(header, sort_keys=True) + "\n")
        self._journal.write(json.dumps(payload, sort_keys=True) + "\n")
        self._journal.flush()
        os.fsync(self._journal.fileno())

    def _flush_shard(self) -> None:
        records = self._buffer
        self._buffer = []
        index = len(self._shards)
        path = self._directory / shard_filename(index)
        with span("store.write.shard", shard=index):
            data, entry = encode_shard(records, self._feature_names or ())
            atomic_write_bytes(path, data)
        if recording():
            observe("store.shard.bytes", float(len(data)))
        entry = {"file": path.name, **entry}
        # Journal *after* the rename: an entry certifies a durable shard.
        self._journal_append(entry)
        self._shards.append(entry)
        self._total += len(records)

    def close(self) -> Path:
        """Flush the final partial shard and atomically write the manifest.

        Returns the manifest path.  Closing a writer that saw no records
        raises :class:`~repro.errors.StoreError` — an empty sharded
        trace cannot be evaluated and is almost certainly a bug at the
        call site.
        """
        if self._closed:
            return self._directory / MANIFEST_NAME
        if self._buffer:
            self._flush_shard()
        if self._total == 0:
            raise StoreError(
                f"{self._directory}: refusing to write an empty sharded trace"
            )
        features = sorted(self._feature_names or ())
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "checksum_algorithm": "sha256",
            "schema": {"features": features},
            "schema_hash": schema_hash(features),
            "total_records": self._total,
            "requested_shard_size": self._shard_size,
            "shards": self._shards,
        }
        path = self._directory / MANIFEST_NAME
        atomic_write_text(
            path, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        if self._journal is not None:
            self._journal.close()
            self._journal = None
            # The manifest is durable; the journal's job is done.
            (self._directory / JOURNAL_NAME).unlink(missing_ok=True)
            fsync_directory(self._directory)
        self._closed = True
        return path


def write_shards(
    records: Iterable[TraceRecord],
    directory: Union[str, Path],
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> Path:
    """Write *records* (any iterable, consumed once) as a sharded trace.

    Returns the manifest path.  Memory stays O(shard_size) however large
    the iterable is, which is the point: pair it with a generator (e.g.
    :meth:`repro.workloads.SyntheticWorkload.iter_records` or
    :func:`iter_jsonl_records`) and a 10M-record trace never exists in
    RAM.
    """
    with span("store.write", directory=str(directory)):
        with ShardWriter(directory, shard_size=shard_size) as writer:
            writer.extend(records)
        return writer.close()


def _parse_jsonl_line(path, line: str, line_number: int) -> Optional[TraceRecord]:
    """Decode one JSONL line (None for blank), with classified errors."""
    from repro.core.types import _record_from_json

    line = line.strip()
    if not line:
        return None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise JsonlRecordError(
            f"{path}:{line_number}: invalid JSON ({exc.msg})",
            path=str(path),
            line_number=line_number,
        ) from exc
    try:
        return _record_from_json(payload, where=f"{path}:{line_number}")
    except JsonlRecordError:
        raise
    except TraceError as exc:
        raise JsonlRecordError(
            f"{path}:{line_number}: malformed trace record ({exc})",
            path=str(path),
            line_number=line_number,
        ) from exc


def iter_jsonl_records(
    path: Union[str, Path],
    follow: bool = False,
    poll_interval: float = 0.05,
    idle_timeout: Optional[float] = None,
    stop: Optional[Any] = None,
) -> Iterable[TraceRecord]:
    """Stream :class:`TraceRecord` objects from a ``Trace.to_jsonl`` file.

    One line is decoded at a time, so converting a large JSONL trace to
    shards (``repro shard``) never holds the full trace in memory.

    **Follow mode** (``follow=True``) tails a *live* file the way the
    live tier needs (DESIGN.md §13): only complete, newline-terminated
    lines are decoded; a **torn trailing line** (a writer caught
    mid-record) is buffered and re-polled until its newline arrives —
    never silently dropped, and never misread as end-of-stream.  File
    **rotation** (the path replaced with a new inode, or truncated) is
    detected on each idle poll: any complete trailing line of the
    rotated-away file is flushed first (a finished file may legitimately
    lack a trailing newline), then the new file is followed from its
    start.  Transient ``OSError`` reads are retried on the next poll.
    Reads go through the same fault-injection choke point as shard I/O
    (:data:`repro.store.integrity._read_fault_hook`), so the chaos
    harness covers tailing too.

    Follow mode ends when *stop* (a zero-argument callable) returns
    true, or after *idle_timeout* seconds without new data (``None`` =
    follow forever).  If the buffer still holds a torn line at that
    point, a final decode is attempted; an undecodable torn tail raises
    :class:`~repro.errors.JsonlRecordError` rather than vanishing.

    Raises
    ------
    JsonlRecordError
        On malformed JSON or a JSON payload that is not a valid trace
        record; the exception carries ``path`` and ``line_number`` as
        structured attributes (and names both in its message) — a bare
        ``json.JSONDecodeError`` never escapes this iterator.
    """
    if follow:
        yield from _follow_jsonl_records(
            Path(path),
            poll_interval=poll_interval,
            idle_timeout=idle_timeout,
            stop=stop,
        )
        return
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            record = _parse_jsonl_line(path, line, line_number)
            if record is not None:
                yield record


def _follow_jsonl_records(
    path: Path,
    poll_interval: float,
    idle_timeout: Optional[float],
    stop: Optional[Any],
) -> Iterable[TraceRecord]:
    """The tailing engine behind ``iter_jsonl_records(follow=True)``.

    Reads in binary and decodes only complete lines, so a torn multibyte
    character at the tail is as safe as a torn record.  State per file
    generation: the open handle, its inode (rotation detection), and the
    undecoded tail ``buffer``.
    """
    import time as _time

    from repro.store import integrity

    if poll_interval <= 0:
        raise StoreError(f"poll_interval must be positive, got {poll_interval}")
    handle = None
    inode: Optional[int] = None
    buffer = b""
    line_number = 0
    idle = 0.0

    def _fault_hook() -> None:
        hook = integrity._read_fault_hook
        if hook is not None:
            hook(str(path))

    def _flush_tail() -> Optional[TraceRecord]:
        # A finished (rotated-away or stopped) file may legitimately end
        # without a trailing newline; decode whatever is buffered as its
        # final line.  An undecodable fragment raises — the torn record
        # must never be silently dropped.
        nonlocal buffer, line_number
        if not buffer.strip():
            buffer = b""
            return None
        line_number += 1
        line = buffer.decode("utf-8", errors="replace")
        buffer = b""
        return _parse_jsonl_line(path, line, line_number)

    try:
        while True:
            if stop is not None and stop():
                break
            if handle is None:
                try:
                    _fault_hook()
                    handle = open(path, "rb")
                    inode = os.fstat(handle.fileno()).st_ino
                except OSError:
                    # Not created yet (or rotating right now): poll.
                    _time.sleep(poll_interval)
                    idle += poll_interval
                    if idle_timeout is not None and idle >= idle_timeout:
                        break
                    continue
            try:
                _fault_hook()
                data = handle.read()
            except OSError:
                # Transient read fault: retry on the next poll.
                _time.sleep(poll_interval)
                idle += poll_interval
                if idle_timeout is not None and idle >= idle_timeout:
                    break
                continue
            if data:
                idle = 0.0
                buffer += data
                while True:
                    newline = buffer.find(b"\n")
                    if newline < 0:
                        break
                    line_number += 1
                    line = buffer[:newline].decode("utf-8", errors="replace")
                    buffer = buffer[newline + 1 :]
                    record = _parse_jsonl_line(path, line, line_number)
                    if record is not None:
                        yield record
                continue
            # At EOF: has the file rotated or been truncated under us?
            rotated = False
            try:
                status = os.stat(path)
                if status.st_ino != inode or status.st_size < handle.tell():
                    rotated = True
            except OSError:
                rotated = True
            if rotated:
                record = _flush_tail()
                if record is not None:
                    yield record
                handle.close()
                handle = None
                line_number = 0
                continue
            _time.sleep(poll_interval)
            idle += poll_interval
            if idle_timeout is not None and idle >= idle_timeout:
                break
        record = _flush_tail()
        if record is not None:
            yield record
    finally:
        if handle is not None:
            handle.close()


def load_manifest(
    directory: Union[str, Path], check_files: bool = True
) -> Dict[str, Any]:
    """Read and validate a shard directory's manifest.

    Applies the invalidation rules: unknown format name, unsupported
    version, schema-hash mismatch, record-count inconsistencies, and
    missing per-shard integrity fields all raise
    :class:`~repro.errors.StoreError`.

    ``check_files=False`` skips the shard-file existence scan — used by
    ``repro repair``, whose whole job is a directory where some shards
    may be gone.
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    if not path.exists():
        journal = directory / JOURNAL_NAME
        hint = (
            "a write-ahead journal is present — the writer was "
            "interrupted; `repro repair` can recover the committed shards"
            if journal.exists()
            else "was the writer interrupted before close()?"
        )
        raise StoreError(
            f"{directory} is not a sharded trace (no {MANIFEST_NAME}); {hint}"
        )
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise StoreError(f"{path}: manifest is not valid JSON") from exc
    if manifest.get("format") != FORMAT_NAME:
        raise StoreError(
            f"{path}: format {manifest.get('format')!r} is not {FORMAT_NAME!r}"
        )
    version = manifest.get("version")
    if version != FORMAT_VERSION:
        raise StoreError(
            f"{path}: format version {version!r} is not supported (reader "
            f"speaks version {FORMAT_VERSION}); regenerate the shards "
            "with this library version"
        )
    features = manifest.get("schema", {}).get("features")
    if not isinstance(features, list):
        raise StoreError(f"{path}: manifest schema carries no feature list")
    if manifest.get("schema_hash") != schema_hash(features):
        raise StoreError(
            f"{path}: schema_hash does not match the manifest's own schema; "
            "the manifest was edited or corrupted"
        )
    shards = manifest.get("shards")
    if not isinstance(shards, list) or not shards:
        raise StoreError(f"{path}: manifest lists no shards")
    counts = [shard.get("records") for shard in shards]
    if any(not isinstance(count, int) or count <= 0 for count in counts):
        raise StoreError(f"{path}: manifest shard record counts are malformed")
    if sum(counts) != manifest.get("total_records"):
        raise StoreError(
            f"{path}: total_records={manifest.get('total_records')} but the "
            f"shards sum to {sum(counts)}"
        )
    for shard in shards:
        if not isinstance(shard.get("sha256"), str) or not isinstance(
            shard.get("bytes"), int
        ):
            raise StoreError(
                f"{path}: manifest entry for {shard.get('file')!r} lacks its "
                "sha256/bytes integrity fields; the manifest was edited or "
                "corrupted"
            )
    if check_files:
        for shard in shards:
            if not (directory / shard["file"]).exists():
                raise StoreError(
                    f"{directory}: missing shard file {shard['file']}"
                )
    return manifest


def trace_to_shards(
    trace: Trace,
    directory: Union[str, Path],
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> Path:
    """Write an in-memory :class:`Trace` as a sharded trace directory."""
    return write_shards(iter(trace), directory, shard_size=shard_size)


def _decoded_context_builder(feature_names: Sequence[str]):
    """A fast per-record context factory for one shard's fixed schema.

    The public :class:`ClientContext` constructor re-validates and
    re-sorts the feature mapping per record; shard columns are already
    schema-checked and stored in sorted order, so records decode through
    the trusted constructor instead.
    """
    names = tuple(sorted(feature_names))

    def build(values: Sequence[Any]) -> ClientContext:
        return ClientContext._from_sorted_items(tuple(zip(names, values)))

    return build


def trusted_record(
    context: ClientContext,
    decision: Any,
    reward: float,
    propensity: Optional[float],
    timestamp: Optional[float],
    state: Any,
) -> TraceRecord:
    """Build a :class:`TraceRecord` without re-running field validation.

    Shard data was validated when the records were first constructed and
    written; re-validating on every decode would (a) double the read
    cost and (b) make corrupt-on-disk records (the fault-injection and
    quarantine test paths) impossible to *read* — the contracts layer,
    not the decoder, is where corruption must surface.
    """
    record = object.__new__(TraceRecord)
    object.__setattr__(record, "context", context)
    object.__setattr__(record, "decision", decision)
    object.__setattr__(record, "reward", reward)
    object.__setattr__(record, "propensity", propensity)
    object.__setattr__(record, "timestamp", timestamp)
    object.__setattr__(record, "state", state)
    return record


def _none_if_nan(value: float) -> Optional[float]:
    """Decode the column encoding of an optional float field."""
    return None if math.isnan(value) else value
