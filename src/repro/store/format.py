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
import operator
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import kernels
from repro.core.types import TraceRecord, _encode_value, trusted_record
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


def _distinct(objects: Sequence[Any]) -> Tuple[np.ndarray, List[Any]]:
    """An object column as (codes, distinct objects), coded by identity,
    never ``==``: ``ClientContext(a=1) == ClientContext(a=True)``, yet the
    two must write different values."""
    ids = np.fromiter(map(id, objects), dtype=np.intp, count=len(objects))
    codes, firsts = kernels.first_seen_codes(ids)
    return codes, [objects[index] for index in firsts.tolist()]


def _first_seen(column: Tuple) -> Tuple[np.ndarray, List[Any]]:
    """A (codes, objects) column recoded in first-seen order: the codes,
    and the objects they name in code order."""
    codes, objects = column
    dense, firsts = kernels.first_seen_codes(codes)
    return dense, [objects[code] for code in codes[firsts].tolist()]


def _code_entries(
    values: List[Any], codes: np.ndarray, skip_none: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Code a column's distinct *values* (see :func:`_distinct`) into a
    first-seen vocabulary: the records' ``intp`` codes (``-1`` for
    ``None`` under *skip_none*) and the JSON-encoded vocabulary
    (tuple-tagged, exactly like ``Trace.to_jsonl``)."""
    remap = np.empty(len(values), dtype=np.intp)
    vocabulary: List[Any] = []
    positions: Dict[Any, int] = {(type(None), None): -1} if skip_none else {}
    for entry, value in enumerate(values):
        # Keyed by (type, value): Python hashes True == 1 == 1.0, which
        # would otherwise conflate vocabulary entries that must decode
        # back to distinct objects.  Floats add their sign: -0.0 == 0.0.
        key = (value.__class__, value)
        if value.__class__ is float:
            key += (math.copysign(1.0, value),)
        code = positions.get(key)
        if code is None:
            code = len(vocabulary)
            positions[key] = code
            vocabulary.append(value)
        remap[entry] = code
    encoded = json.dumps([_encode_value(entry) for entry in vocabulary])
    return remap[codes], np.asarray(encoded)


def _encode_feature_column(
    values: List[Any], codes: np.ndarray
) -> Tuple[str, np.ndarray, Optional[np.ndarray]]:
    """Pick the tightest exact encoding for one feature column.

    Decided over the distinct *values*: ``("f8", array, None)`` when
    every value is a plain float, ``("i8", array, None)`` when every
    value is a plain int that fits ``int64``, else ``("coded", codes,
    vocab_json)``.  ``bool`` is an ``int`` subclass but must round-trip
    as ``bool``, so it always takes the coded path.
    """
    if values and all(type(value) is float for value in values):
        return "f8", np.asarray(values, dtype=np.float64)[codes], None
    if values and all(
        type(value) is int and -(2**63) <= value < 2**63 for value in values
    ):
        return "i8", np.asarray(values, dtype=np.int64)[codes], None
    return ("coded", *_code_entries(values, codes))


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


#: A shard's columns as :func:`encode_shard` takes them: ``float64`` arrays,
#: then ``(codes, objects)`` pairs (record *i* holds ``objects[codes[i]]``).
SHARD_COLUMNS = (
    "rewards", "propensities", "timestamps", "decisions", "contexts", "states"
)
_RECORD_FIELDS = ("reward", "propensity", "timestamp", "decision", "context", "state")


def encode_shard(
    columns: Dict[str, np.ndarray],
    feature_names: Sequence[str],
) -> Tuple[bytes, Dict[str, Any]]:
    """Encode one shard's :data:`SHARD_COLUMNS` into npz bytes plus its
    manifest entry.  Object columns are recoded in first-seen order, each
    code's object encoded once, then spread over the records with numpy.

    Deterministic: the same records in the same order always produce the
    same bytes, the same checksum, and the same entry (minus ``file``,
    which the caller assigns) — which is what lets ``repro repair``
    re-derive a corrupted shard bit-identically from the source records.
    """
    arrays = {n: np.asarray(columns[n], dtype=np.float64) for n in SHARD_COLUMNS[:3]}
    for name, prefix in (("decisions", "decision"), ("states", "state")):
        codes, values = _first_seen(columns[name])
        arrays[f"{prefix}_codes"], arrays[f"{prefix}_vocab"] = _code_entries(
            [_canonical(value) for value in values], codes, name == "states"
        )
    codes, contexts = _first_seen(columns["contexts"])
    feature_kinds: List[str] = []
    for feature_index, name in enumerate(feature_names):
        column = [_canonical(context[name]) for context in contexts]
        kind, array, vocabulary = _encode_feature_column(column, codes)
        feature_kinds.append(kind)
        arrays[f"feature_{feature_index}"] = array
        if vocabulary is not None:
            arrays[f"feature_{feature_index}_vocab"] = vocabulary
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    data = buffer.getvalue()
    entry = {
        "records": len(arrays["rewards"]),
        "bytes": len(data),
        "sha256": shard_checksum(data),
        "feature_kinds": feature_kinds,
        "rewards": _summary(arrays["rewards"]),
        "propensities": _summary(arrays["propensities"]),
    }
    return data, entry


def records_columns(records: Sequence[TraceRecord]) -> Dict[str, Any]:
    """The :data:`SHARD_COLUMNS` of *records*: the one conversion every
    record writer goes through.  A missing propensity or timestamp
    becomes ``nan``, as the shard stores it."""
    fields = (list(map(operator.attrgetter(f), records)) for f in _RECORD_FIELDS)
    return {
        name: np.array(values, dtype=np.float64) if index < 3 else _distinct(values)
        for index, (name, values) in enumerate(zip(SHARD_COLUMNS, fields))
    }


def batch_columns(batch) -> Dict[str, Any]:
    """The :data:`SHARD_COLUMNS` of a live ``StreamBatch``, its codes with
    their shared vocabularies, after :class:`TraceRecord`'s checks on whole
    columns (``nan`` fails both).  A ``nan`` timestamp, which a record
    stores as ``None``, is written as the canonical ``nan``."""
    if not np.isfinite(batch.rewards).all():
        raise TraceError("batch rewards must be finite")
    if not ((batch.propensities > 0.0) & (batch.propensities <= 1.0 + 1e-12)).all():
        raise TraceError("batch propensities must lie in (0, 1]")
    return {
        "rewards": batch.rewards,
        "propensities": batch.propensities,
        "timestamps": np.where(np.isnan(batch.timestamps), np.nan, batch.timestamps),
        "decisions": (batch.decision_codes, batch.decisions_vocabulary),
        "contexts": (batch.context_codes, batch.contexts_vocabulary),
        "states": (np.zeros(len(batch), dtype=np.intp), (None,))
        if batch.states is None
        else _distinct(batch.states),
    }


def _joined(pairs: List[Tuple]) -> Tuple[np.ndarray, List[Any]]:
    """Pieces' ``(codes, objects)`` pairs as one: each objects sequence
    once (by identity), every piece's codes offset to its sequence's start."""
    offsets: Dict[int, int] = {}
    objects: List[Any] = []
    for _, sequence in pairs:
        if id(sequence) not in offsets:
            offsets[id(sequence)] = len(objects)
            objects.extend(sequence)
    return np.concatenate([codes + offsets[id(seq)] for codes, seq in pairs]), objects


class ShardWriter:
    """Stream records into a shard directory, one shard per ``shard_size``.

    Usage::

        with ShardWriter(directory, shard_size=100_000) as writer:
            writer.extend(records)  # or live batches, or append(record)
        sharded = ShardedTrace(directory)

    The writer buffers at most one shard (O(shard_size) memory): live
    batches as columns (:func:`batch_columns`, no per-record objects),
    records as they come, converted once at flush.  The first record
    fixes the feature schema; a later one with another schema raises
    :class:`~repro.errors.TraceError` (the format stores one column per
    feature, so a sharded trace is schema-consistent by construction).

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
        self._vetted: Tuple[Any, Any] = (None, None)  # contexts, mismatch mask
        self._pieces: List[Any] = []  # batch columns, or runs of records
        self._buffered = 0
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
        if record.context.keys() != self._feature_names:
            self._check_schema((record.context,), [0])
        if not self._pieces or not isinstance(self._pieces[-1], list):
            self._pieces.append([])
        self._pieces[-1].append(record)
        self._buffered += 1
        if self._buffered >= self._shard_size:
            self._flush_shard()

    def extend(self, source: Iterable[TraceRecord]) -> None:
        """Append a live ``StreamBatch`` (as its columns), a ``Trace`` chunk
        or any record iterable, in order.  Records are converted to columns
        once, by :func:`records_columns`, when their shard flushes."""
        from repro.live.chunks import StreamBatch

        if not isinstance(source, StreamBatch):
            for record in source:
                self.append(record)
            return
        if self._closed:
            raise StoreError("ShardWriter is closed")
        columns = batch_columns(source)
        self._check_schema(source.contexts_vocabulary, source.context_codes)
        start, size = 0, len(source)
        while start < size:
            stop = min(size, start + self._shard_size - self._buffered)
            piece = {n: columns[n][start:stop] for n in SHARD_COLUMNS[:3]}
            for n in SHARD_COLUMNS[3:]:
                piece[n] = (columns[n][0][start:stop], columns[n][1])
            self._pieces.append(piece)
            self._buffered += stop - start
            start = stop
            if self._buffered >= self._shard_size:
                self._flush_shard()

    def _check_schema(self, contexts: Sequence[Any], codes: Sequence[int]) -> None:
        """The first record fixes the schema; every later one must match.
        Record *i*'s context is ``contexts[codes[i]]``; a vocabulary that
        batches share is vetted once."""
        if not len(codes):
            return
        if self._feature_names is None:
            self._feature_names = contexts[codes[0]].keys()
        schema = self._feature_names
        if self._vetted[0] is not contexts:
            self._vetted = (contexts, np.array([c.keys() != schema for c in contexts]))
        wrong = self._vetted[1][codes]
        if wrong.any():
            index = int(wrong.argmax())
            raise TraceError(
                "sharded traces require one feature schema; record "
                f"{self._total + self._buffered + index} has "
                f"{contexts[codes[index]].keys()}, expected {schema}"
            )

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
        pieces, self._pieces, self._buffered = self._pieces, [], 0
        pieces = [records_columns(p) if isinstance(p, list) else p for p in pieces]
        columns = {n: np.concatenate([p[n] for p in pieces]) for n in SHARD_COLUMNS[:3]}
        columns.update((n, _joined([p[n] for p in pieces])) for n in SHARD_COLUMNS[3:])
        index = len(self._shards)
        path = self._directory / shard_filename(index)
        with span("store.write.shard", shard=index):
            data, entry = encode_shard(columns, self._feature_names or ())
            atomic_write_bytes(path, data)
        if recording():
            observe("store.shard.bytes", float(len(data)))
        entry = {"file": path.name, **entry}
        # Journal *after* the rename: an entry certifies a durable shard.
        self._journal_append(entry)
        self._shards.append(entry)
        self._total += entry["records"]

    def close(self) -> Path:
        """Flush the final partial shard and atomically write the manifest.

        Returns the manifest path.  Closing a writer that saw no records
        raises :class:`~repro.errors.StoreError` — an empty sharded
        trace cannot be evaluated and is almost certainly a bug at the
        call site.
        """
        if self._closed:
            return self._directory / MANIFEST_NAME
        if self._pieces:
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
