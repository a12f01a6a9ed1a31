"""Shard integrity: checksums, corruption classification, verification.

The paper's argument is that conclusions inherit the trustworthiness of
the data pipeline beneath them; this module is where the storage tier
earns that trust.  Every byte-level failure mode of a shard directory is
**classified** into the :class:`~repro.errors.ShardCorruptionError`
taxonomy instead of surfacing as a raw ``zipfile``/``numpy``/``OSError``
— so a degradation policy can decide per *kind*, ``repro verify`` can
report per kind, and no fault is ever mistaken for a smaller trace.

Three layers:

* **Byte checks** — :func:`read_shard_bytes` (the single choke point
  every shard read goes through, which is also where the chaos harness
  injects I/O faults) and :func:`check_shard_bytes`, which classifies a
  shard's raw bytes against its manifest entry: wrong size ⇒
  :class:`~repro.errors.ShardTruncatedError` (torn write), right size
  but wrong sha256 ⇒ :class:`~repro.errors.ShardChecksumError` (silent
  bit corruption).
* **Retried reads** — :func:`read_shard_with_retry` drives transient
  ``OSError`` faults through a :class:`~repro.runtime.retry.RetryPolicy`
  with the same deterministic backoff schedule the experiment harness
  uses (seeded by shard index, so a replayed run sleeps identically);
  exhaustion classifies as :class:`~repro.errors.ShardReadError`.
* **Whole-store verification** — :func:`verify_store` eagerly checks
  every shard (existence, size, checksum, and optionally a full decode)
  and returns a :class:`StoreVerifyReport`; this is the engine behind
  ``repro verify <dir>``.

Quarantine accounting for degraded reads lives here too
(:class:`QuarantinedShard` / :class:`ShardQuarantineReport`), mirroring
the record-level ``check_trace(quarantine=True)`` report one level down
the stack.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.errors import (
    ShardChecksumError,
    ShardCorruptionError,
    ShardDecodeError,
    ShardMissingError,
    ShardReadError,
    ShardTruncatedError,
    StoreError,
)

#: Hash algorithm recorded in v2 manifests.  Named so the manifest is
#: self-describing; only sha256 is accepted today.
CHECKSUM_ALGORITHM = "sha256"

#: Test-only injection point: when set (by
#: :mod:`repro.testing.faults`), called with the path before every
#: shard-bytes read; may raise ``OSError`` (transient fault) or sleep
#: (slow read).  Never set in production code.
_read_fault_hook: Optional[Callable[[str], None]] = None


def shard_checksum(data: bytes) -> str:
    """Hex sha256 of one shard's bytes — the manifest's ``sha256`` field."""
    return hashlib.sha256(data).hexdigest()


def read_shard_bytes(path: Union[str, Path]) -> bytes:
    """Read one shard file fully into memory.

    The single choke point for shard I/O: verification hashes these
    bytes, the decoder parses them (via ``BytesIO``, so checksum and
    decode share one read), and the chaos harness injects faults here.

    Raises
    ------
    ShardMissingError
        When the file does not exist (never retryable).
    OSError
        On any other I/O failure — the *retryable* class, handled by
        :func:`read_shard_with_retry`.
    """
    hook = _read_fault_hook
    if hook is not None:
        hook(str(path))
    try:
        return Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise ShardMissingError(
            f"{path}: shard file is missing", shard=str(path)
        ) from exc


def read_shard_with_retry(
    path: Union[str, Path],
    retry=None,
    seed: int = 0,
    sleep: Callable[[float], None] = time.sleep,
) -> bytes:
    """:func:`read_shard_bytes` with transient faults retried.

    *retry* is a :class:`~repro.runtime.retry.RetryPolicy` (or ``None``
    for a single attempt).  Only ``OSError`` is transient; a missing
    file is permanent and raises immediately.  Backoff is the policy's
    deterministic schedule seeded by *seed* (callers pass the shard
    index), so a resumed or replayed run sleeps the exact same delays.

    Raises
    ------
    ShardReadError
        When every attempt failed with a transient ``OSError``; chains
        the last failure and records how many attempts were made.
    """
    attempts = 1 if retry is None else retry.max_attempts
    attempt = 0
    while True:
        attempt += 1
        try:
            return read_shard_bytes(path)
        except ShardMissingError:
            raise
        except OSError as exc:
            if attempt >= attempts:
                raise ShardReadError(
                    f"{path}: read failed after {attempt} attempt(s): {exc}",
                    shard=str(path),
                ) from exc
            sleep(retry.backoff_delay(seed, attempt))


def check_shard_bytes(
    path: Union[str, Path],
    data: bytes,
    entry: Dict[str, object],
) -> None:
    """Classify *data* against the manifest *entry*'s integrity fields.

    Every manifest entry records ``bytes`` (file size) and ``sha256``;
    a size mismatch is a torn write (:class:`ShardTruncatedError` —
    named for the common case, though padding is caught too), an equal
    size with a different hash is silent bit corruption
    (:class:`ShardChecksumError`).
    """
    expected_bytes = entry["bytes"]
    if len(data) != expected_bytes:
        raise ShardTruncatedError(
            f"{path}: shard is {len(data)} bytes but the manifest recorded "
            f"{expected_bytes}; the file was truncated or padded",
            shard=str(path),
        )
    expected_hash = entry["sha256"]
    actual = shard_checksum(data)
    if actual != expected_hash:
        raise ShardChecksumError(
            f"{path}: shard sha256 {actual[:12]}… does not match the "
            f"manifest's {expected_hash[:12]}…; the shard's bytes were "
            "corrupted after it was written",
            shard=str(path),
        )


def classify_decode_failure(
    path: Union[str, Path], exc: BaseException
) -> ShardCorruptionError:
    """Wrap a raw npz decode failure as a classified corruption error.

    Reached only when the byte-level checks passed yet ``numpy`` could
    not parse the payload — still never a raw
    ``zipfile``/``numpy`` exception at the call site.
    """
    return ShardDecodeError(
        f"{path}: shard payload would not decode "
        f"({type(exc).__name__}: {exc})",
        shard=str(path),
    )


# -- whole-store verification (repro verify) ---------------------------------


@dataclass(frozen=True)
class ShardCheckResult:
    """Outcome of verifying one shard.

    ``kind`` is ``None`` for a clean shard, else the
    :class:`~repro.errors.ShardCorruptionError` classification tag.
    """

    index: int
    file: str
    records: int
    kind: Optional[str]
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Whether this shard passed every check."""
        return self.kind is None


@dataclass(frozen=True)
class StoreVerifyReport:
    """Outcome of :func:`verify_store` over one shard directory.

    ``manifest_error`` is set (and ``shards`` empty) when the manifest
    itself was unusable — missing, torn, or failing its own invariants —
    in which case per-shard checks were impossible.
    """

    directory: str
    version: Optional[int]
    shards: Tuple[ShardCheckResult, ...]
    manifest_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the manifest and every shard verified clean."""
        return self.manifest_error is None and all(s.ok for s in self.shards)

    @property
    def corrupt(self) -> Tuple[ShardCheckResult, ...]:
        """The failing shards only."""
        return tuple(s for s in self.shards if not s.ok)

    def render(self) -> str:
        """Human-readable multi-line report (what ``repro verify`` prints)."""
        lines = [f"verify {self.directory}"]
        if self.manifest_error is not None:
            lines.append(f"  manifest: CORRUPT ({self.manifest_error})")
            return "\n".join(lines)
        lines.append(
            f"  manifest: ok (format v{self.version}, "
            f"{len(self.shards)} shard(s))"
        )
        for shard in self.shards:
            if shard.ok:
                lines.append(f"  {shard.file}: ok ({shard.records} records)")
            else:
                lines.append(
                    f"  {shard.file}: {shard.kind.upper()} — {shard.detail}"
                )
        bad = self.corrupt
        if bad:
            lost = sum(shard.records for shard in bad)
            lines.append(
                f"  RESULT: {len(bad)} corrupt shard(s), {lost} record(s) "
                "at risk — run `repro repair` to rebuild around them"
            )
        else:
            lines.append("  RESULT: all shards verified")
        return "\n".join(lines)


def verify_store(
    directory: Union[str, Path],
    decode: bool = True,
    retry=None,
) -> StoreVerifyReport:
    """Eagerly verify every shard of a sharded-trace directory.

    Checks, per shard: the file exists, its size and sha256 match the
    manifest, and — with ``decode=True`` — that the reader's own
    decoder (:func:`~repro.store.sharded.decode_shard`) accepts it.
    Nothing raises for corruption; every finding lands in the
    returned :class:`StoreVerifyReport` so one bad shard never hides
    the state of the others.
    """
    from repro.store.format import load_manifest
    from repro.store.sharded import decode_shard

    directory = Path(directory)
    try:
        # check_files=False: a missing shard must classify per shard
        # (MISSING), not condemn the manifest itself.
        manifest = load_manifest(directory, check_files=False)
    except StoreError as exc:
        return StoreVerifyReport(
            directory=str(directory),
            version=None,
            shards=(),
            manifest_error=str(exc),
        )
    feature_names = tuple(sorted(manifest["schema"]["features"]))
    results = []
    for index, entry in enumerate(manifest["shards"]):
        path = directory / entry["file"]
        kind: Optional[str] = None
        detail = ""
        try:
            data = read_shard_with_retry(path, retry=retry, seed=index)
            check_shard_bytes(path, data, entry)
            if decode:
                decode_shard(path, data, entry, feature_names)
        except ShardCorruptionError as exc:
            kind, detail = exc.kind, str(exc)
        results.append(
            ShardCheckResult(
                index=index,
                file=str(entry["file"]),
                records=int(entry["records"]),
                kind=kind,
                detail=detail,
            )
        )
    return StoreVerifyReport(
        directory=str(directory),
        version=int(manifest["version"]),
        shards=tuple(results),
    )


# -- quarantine accounting for degraded reads --------------------------------


@dataclass(frozen=True)
class QuarantinedShard:
    """One shard split out by a degraded read.

    Attributes
    ----------
    index:
        The shard's position in the manifest.
    file:
        Its filename inside the directory.
    records:
        How many records the manifest attributed to it — the sample
        loss this quarantine cost.
    reason:
        The :class:`~repro.errors.ShardCorruptionError` kind tag.
    detail:
        The classified error message, kept for post-mortems.
    """

    index: int
    file: str
    records: int
    reason: str
    detail: str = ""


@dataclass(frozen=True)
class ShardQuarantineReport:
    """Shard-level twin of the record-level ``QuarantineReport``.

    Produced by degraded (``on_corruption="quarantine"``) reads of a
    :class:`~repro.store.ShardedTrace`: each permanently-bad shard is
    listed with its classified reason and record count, so the caller
    knows exactly how much sample the surviving estimate lost — the
    loss is *reported*, never silent.
    """

    shards: Tuple[QuarantinedShard, ...]
    total_shards: int
    total_records: int

    @property
    def dropped_shards(self) -> int:
        """How many shards were quarantined."""
        return len(self.shards)

    @property
    def dropped_records(self) -> int:
        """How many records the quarantined shards held."""
        return sum(shard.records for shard in self.shards)

    @property
    def reason_counts(self) -> Dict[str, int]:
        """``{reason: shard count}`` over the quarantined shards."""
        counts: Dict[str, int] = {}
        for shard in self.shards:
            counts[shard.reason] = counts.get(shard.reason, 0) + 1
        return counts

    def to_json(self) -> Dict[str, object]:
        """JSON-serialisable summary (diagnostics / artifacts)."""
        return {
            "dropped_shards": self.dropped_shards,
            "dropped_records": self.dropped_records,
            "total_shards": self.total_shards,
            "total_records": self.total_records,
            "reasons": self.reason_counts,
            "shards": [
                {
                    "index": shard.index,
                    "file": shard.file,
                    "records": shard.records,
                    "reason": shard.reason,
                }
                for shard in self.shards
            ],
        }

    def render(self) -> str:
        """One-line human-readable summary."""
        if not self.shards:
            return f"store quarantine: all {self.total_shards} shards clean"
        reasons = ", ".join(
            f"{reason} x{count}" for reason, count in self.reason_counts.items()
        )
        return (
            f"store quarantine: dropped {self.dropped_shards}/"
            f"{self.total_shards} shard(s), {self.dropped_records}/"
            f"{self.total_records} record(s) ({reasons})"
        )
