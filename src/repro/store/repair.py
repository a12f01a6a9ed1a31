"""``repro repair`` — rebuild a damaged sharded-trace directory.

Two recovery modes, applied automatically by :func:`repair_store`:

* **Journal promotion** — the writer crashed before its manifest landed
  (no ``manifest.json``, a write-ahead ``journal.jsonl`` present).  The
  journal names exactly the shards that committed durably; each is
  re-verified against its journaled size/sha256 and the survivors are
  promoted into a fresh v2 manifest.  This is the recovery path the
  crash-consistency protocol (DESIGN.md §11) was designed around.
* **Quarantine excision** — the manifest is fine but some shards are
  corrupt (``repro verify`` found them).  Each bad shard is either
  **re-derived** bit-identically from the original source JSONL (when
  ``source=`` is given — :func:`~repro.store.format.encode_shard` is
  deterministic, so the rebuilt shard matches the original checksum) or
  **dropped**, with the manifest rewritten around the survivors and the
  record loss reported.

All manifest writes go through the same atomic tmp+fsync+``os.replace``
recipe as the writer; a crash mid-repair leaves the directory no worse
than it was.  Stray ``*.tmp`` files from interrupted atomic writes are
swept.  A repair that would produce an *empty* store refuses instead —
an estimate over zero records is not a recovery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ShardCorruptionError, StoreError
from repro.ioutil import atomic_write_bytes, atomic_write_text, fsync_directory
from repro.obs.spans import span
from repro.store.integrity import check_shard_bytes, read_shard_with_retry
from repro.store.sharded import decode_shard

#: Fields a journal entry / manifest shard entry must carry to be usable.
_ENTRY_FIELDS = ("file", "records", "bytes", "sha256", "feature_kinds")


@dataclass
class RepairReport:
    """What :func:`repair_store` did to one directory.

    ``dropped`` lists ``(file, reason)`` pairs for shards excised from
    the manifest; ``rederived`` the shards rebuilt from source;
    ``kept`` the shards that verified clean and were carried over.
    """

    directory: str
    mode: str  # "journal" or "repair"
    kept: List[str] = field(default_factory=list)
    rederived: List[str] = field(default_factory=list)
    dropped: List[Tuple[str, str]] = field(default_factory=list)
    orphaned: List[str] = field(default_factory=list)
    removed_temp: int = 0
    total_records: int = 0
    dropped_records: int = 0

    @property
    def changed(self) -> bool:
        """Whether the manifest was (re)written."""
        return bool(self.mode == "journal" or self.rederived or self.dropped)

    def render(self) -> str:
        """Human-readable multi-line summary (what ``repro repair`` prints)."""
        lines = [f"repair {self.directory} [{self.mode}]"]
        for name in self.kept:
            lines.append(f"  {name}: ok")
        for name in self.rederived:
            lines.append(f"  {name}: re-derived from source")
        for name, reason in self.dropped:
            lines.append(f"  {name}: DROPPED ({reason})")
        for name in self.orphaned:
            lines.append(f"  {name}: orphaned (on disk, never journaled)")
        if self.removed_temp:
            lines.append(f"  swept {self.removed_temp} stray .tmp file(s)")
        lines.append(
            f"  RESULT: {len(self.kept) + len(self.rederived)} shard(s), "
            f"{self.total_records} record(s)"
            + (
                f" ({self.dropped_records} record(s) lost)"
                if self.dropped_records
                else ""
            )
        )
        return "\n".join(lines)


def repair_store(
    directory: Union[str, Path],
    source: Optional[Union[str, Path]] = None,
    retry=None,
) -> RepairReport:
    """Rebuild *directory* into a loadable, verifiable sharded trace.

    Picks the recovery mode from the directory's state (see the module
    docstring).  *source* is the original JSONL trace the shards were
    written from; when given, corrupt shards are re-derived from it
    instead of dropped (record offsets come from the manifest's
    per-shard counts, and :func:`~repro.store.format.encode_shard` is
    deterministic, so the rebuilt shard is bit-identical to what the
    original writer produced).

    Raises
    ------
    StoreError
        When there is nothing to recover from (no manifest *and* no
        journal), when the journal itself is unusable, or when the
        repair would leave zero shards.
    """
    from repro.store.format import (
        FORMAT_NAME,
        FORMAT_VERSION,
        JOURNAL_KIND,
        JOURNAL_NAME,
        MANIFEST_NAME,
        load_manifest,
        schema_hash,
    )

    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    journal_path = directory / JOURNAL_NAME
    with span("store.repair", directory=str(directory)):
        if manifest_path.exists():
            report = _repair_from_manifest(
                directory, load_manifest, source=source, retry=retry
            )
        elif journal_path.exists():
            report = _recover_from_journal(
                directory, journal_path, JOURNAL_KIND, retry=retry
            )
        else:
            raise StoreError(
                f"{directory}: nothing to repair — no {MANIFEST_NAME} and "
                f"no {JOURNAL_NAME}; this is not (the remains of) a "
                "sharded trace"
            )
        report.removed_temp = _sweep_temp_files(directory)
        if report.changed:
            features = report._features  # set by the mode handlers
            manifest = {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "checksum_algorithm": "sha256",
                "schema": {"features": features},
                "schema_hash": schema_hash(features),
                "total_records": report.total_records,
                "requested_shard_size": report._shard_size,
                "shards": report._entries,
            }
            atomic_write_text(
                manifest_path,
                json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            )
            journal_path.unlink(missing_ok=True)
            fsync_directory(directory)
        return report


def _verify_entry(
    directory: Path,
    index: int,
    entry: Dict[str, Any],
    feature_names: Tuple[str, ...],
    retry,
) -> Optional[ShardCorruptionError]:
    """Fully verify one shard against its entry; ``None`` when clean."""
    path = directory / entry["file"]
    try:
        data = read_shard_with_retry(path, retry=retry, seed=index)
        check_shard_bytes(path, data, entry)
        decode_shard(path, data, entry, feature_names)
    except ShardCorruptionError as exc:
        return exc
    return None


def _repair_from_manifest(
    directory: Path, load_manifest, source, retry
) -> RepairReport:
    """Excise or re-derive the corrupt shards a manifest lists."""
    from repro.store.format import encode_shard, records_columns

    manifest = load_manifest(directory, check_files=False)
    features = list(manifest["schema"]["features"])
    shard_size = int(manifest.get("requested_shard_size", 0)) or None
    feature_names = tuple(sorted(features))
    report = RepairReport(directory=str(directory), mode="repair")
    entries: List[Dict[str, Any]] = []
    offset = 0
    source_reader = _SourceReader(source, feature_names) if source else None
    for index, entry in enumerate(manifest["shards"]):
        count = int(entry["records"])
        failure = _verify_entry(directory, index, entry, feature_names, retry)
        if failure is None:
            entries.append(entry)
            report.kept.append(str(entry["file"]))
        elif source_reader is not None:
            records = source_reader.slice(offset, count)
            data, fresh = encode_shard(records_columns(records), feature_names)
            path = directory / entry["file"]
            atomic_write_bytes(path, data)
            entries.append({"file": path.name, **fresh})
            report.rederived.append(str(entry["file"]))
        else:
            report.dropped.append((str(entry["file"]), str(failure)))
            report.dropped_records += count
        offset += count
    if not entries:
        raise StoreError(
            f"{directory}: every shard is corrupt and no source was given; "
            "refusing to write an empty store"
        )
    report.total_records = sum(int(entry["records"]) for entry in entries)
    report._features = features
    report._shard_size = shard_size or max(
        int(entry["records"]) for entry in entries
    )
    report._entries = entries
    return report


def _recover_from_journal(
    directory: Path, journal_path: Path, journal_kind: str, retry
) -> RepairReport:
    """Promote a crashed writer's journal into a manifest."""
    lines = journal_path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise StoreError(f"{journal_path}: journal is empty; nothing committed")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise StoreError(f"{journal_path}: journal header is torn") from exc
    if header.get("kind") != journal_kind:
        raise StoreError(
            f"{journal_path}: not a shard journal (kind={header.get('kind')!r})"
        )
    features = list(header.get("schema", {}).get("features", []))
    feature_names = tuple(sorted(features))
    shard_size = int(header.get("requested_shard_size", 0)) or None
    report = RepairReport(directory=str(directory), mode="journal")
    entries: List[Dict[str, Any]] = []
    for line in lines[1:]:
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            # A torn final line is the expected signature of a crash
            # mid-append: that shard never durably committed. Stop here;
            # nothing after a torn line can be trusted.
            break
        if not all(key in entry for key in _ENTRY_FIELDS):
            break
        index = len(entries)
        failure = _verify_entry(directory, index, entry, feature_names, retry)
        if failure is None:
            entries.append(entry)
            report.kept.append(str(entry["file"]))
        else:
            report.dropped.append((str(entry["file"]), str(failure)))
            report.dropped_records += int(entry["records"])
    if not entries:
        raise StoreError(
            f"{directory}: the journal names no intact shards; nothing "
            "recoverable"
        )
    journaled = {entry["file"] for entry in entries} | {
        name for name, _ in report.dropped
    }
    for path in sorted(directory.glob("shard-*.npz")):
        if path.name not in journaled:
            # Renamed into place but never journaled (crash in the gap):
            # its durability is unknown, so it stays out of the manifest
            # but on disk for a human to inspect.
            report.orphaned.append(path.name)
    report.total_records = sum(int(entry["records"]) for entry in entries)
    report._features = features
    report._shard_size = shard_size or max(
        int(entry["records"]) for entry in entries
    )
    report._entries = entries
    return report


def _sweep_temp_files(directory: Path) -> int:
    """Remove stray ``*.tmp`` files from interrupted atomic writes."""
    removed = 0
    for path in directory.glob("*.tmp"):
        try:
            path.unlink()
            removed += 1
        except OSError:  # noqa: REP006 - sweeping debris is best-effort
            pass
    return removed


class _SourceReader:
    """Sequential slicing over a source JSONL trace, for re-derivation.

    Shards are re-derived in manifest order, so offsets are monotonic:
    one forward pass over the file suffices, however many shards need
    rebuilding.
    """

    def __init__(self, path: Union[str, Path], feature_names):
        from repro.store.format import iter_jsonl_records

        self._iterator = iter(iter_jsonl_records(path))
        self._position = 0
        self._path = str(path)
        self._feature_names = feature_names

    def slice(self, offset: int, count: int) -> List[Any]:
        if offset < self._position:
            raise StoreError(
                f"{self._path}: source records requested out of order "
                f"(offset {offset} after {self._position})"
            )
        for _ in range(offset - self._position):
            next(self._iterator, None)
        self._position = offset
        records = []
        for _ in range(count):
            record = next(self._iterator, None)
            if record is None:
                raise StoreError(
                    f"{self._path}: source trace ended at record "
                    f"{self._position + len(records)} but the manifest "
                    f"needs records up to {offset + count}; wrong source?"
                )
            records.append(record)
        self._position = offset + count
        for record in records:
            if record.context.keys() != self._feature_names:
                raise StoreError(
                    f"{self._path}: source record schema "
                    f"{record.context.keys()} does not match the "
                    f"manifest's {self._feature_names}; wrong source?"
                )
        return records
