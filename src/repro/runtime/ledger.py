"""The JSONL run ledger: checkpoint/resume for repeated-run sweeps.

Format (one JSON object per line):

* line 1 — header::

      {"kind": "repro-run-ledger", "version": 1, "experiment": "fig7a",
       "root_seed": 2017, "runs": 50, "retry": {...} | null}

* every further line — one completed :class:`~repro.runtime.records.RunRecord`
  (successful *or* failed), appended and flushed as soon as the seed
  finishes, so a killed process loses at most the seed in flight.

Resume reads the ledger, validates the header against the sweep being
resumed (experiment name and root seed must match — a ledger from a
different sweep is an error, not a silent wrong answer), tolerates one
trailing partially-written line (the crash case) by truncating it, and
replays the journaled records instead of re-running their seeds.
Because ``json`` serialises floats via ``repr`` (shortest exact
round-trip), replayed errors are bit-identical to freshly computed
ones, which is what makes a resumed sweep's summaries byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.core import schema
from repro.errors import LedgerError
from repro.runtime.records import RunRecord

LEDGER_KIND = "repro-run-ledger"
LEDGER_VERSION = 1

_HEADER_FIELDS = (
    schema.Field("kind", schema.one_of(LEDGER_KIND)),
    schema.Field("version", schema.one_of(LEDGER_VERSION)),
    schema.Field("experiment", schema.text),
    schema.Field("root_seed", schema.integer),
    schema.Field("runs", schema.count),
    schema.Field("retry", schema.mapping, None),
)


@dataclass(frozen=True)
class LedgerHeader:
    """The first line of a run ledger: which sweep this journal belongs to."""

    experiment: str
    root_seed: int
    runs: int
    retry: Optional[Dict[str, Any]] = None

    def to_json(self) -> Dict[str, Any]:
        """JSON-serialisable representation including format tags."""
        return {
            "kind": LEDGER_KIND,
            "version": LEDGER_VERSION,
            "experiment": self.experiment,
            "root_seed": self.root_seed,
            "runs": self.runs,
            "retry": self.retry,
        }

    @classmethod
    def from_json(cls, payload: Any, where: str) -> "LedgerHeader":
        """Parse and validate a header line."""
        values = schema.read(
            payload, _HEADER_FIELDS, f"{where}: not a run ledger header", LedgerError
        )
        del values["kind"], values["version"]
        return cls(**values)


class RunLedger:
    """Append-only JSONL journal of completed per-seed runs."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._handle = None

    # -- reading ------------------------------------------------------------

    def read(self) -> Tuple[LedgerHeader, Dict[int, RunRecord], int]:
        """Parse the ledger.

        Returns ``(header, records_by_index, clean_byte_length)`` where
        *clean_byte_length* is the file length up to the last complete
        line — a process killed mid-append leaves a partial trailing
        line, which resume truncates rather than trips over.  A corrupt
        line anywhere *before* the end is a real error.
        """
        try:
            raw = self.path.read_bytes()
        except OSError as exc:
            raise LedgerError(f"cannot read ledger {self.path}: {exc}") from exc
        if not raw:
            raise LedgerError(f"{self.path}: ledger is empty")

        lines = raw.split(b"\n")
        # A well-formed ledger ends in a newline, so the final split
        # element is empty; anything else is a partial trailing write.
        complete, partial = lines[:-1], lines[-1]
        clean_length = len(raw) - len(partial)

        header: Optional[LedgerHeader] = None
        records: Dict[int, RunRecord] = {}
        for line_number, line in enumerate(complete, start=1):
            where = f"{self.path}:{line_number}"
            if not line.strip():
                continue
            try:
                payload = json.loads(line.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                if line_number == len(complete):
                    # Torn final line without a trailing newline elsewhere
                    # in the file; treat like a partial write.
                    clean_length -= len(line) + 1
                    break
                if line_number == 1:
                    raise LedgerError(
                        f"{where}: corrupt ledger header line"
                    ) from exc
                # Mid-file corruption is unrecoverable by truncation:
                # everything after this line may be fine, but replaying
                # past a damaged record would silently drop it from the
                # resumed sweep. Name the record so a human can triage.
                record_index = line_number - 2  # line 1 is the header
                raise LedgerError(
                    f"{where}: corrupt ledger line (record #{record_index} of "
                    f"{len(complete) - 1}); the damage is mid-file, so resume "
                    "refuses rather than replaying past it — inspect or "
                    "truncate the ledger by hand"
                ) from exc
            if line_number == 1:
                header = LedgerHeader.from_json(payload, where)
                continue
            record = RunRecord.from_json(payload, where)
            if record.index in records:
                raise LedgerError(
                    f"{where}: duplicate record for run index {record.index}"
                )
            records[record.index] = record
        if header is None:
            raise LedgerError(f"{self.path}: ledger has no header line")
        return header, records, clean_length

    def load_for_resume(
        self, experiment: str, root_seed: int
    ) -> Dict[int, RunRecord]:
        """Validate the ledger against the sweep being resumed and
        return its completed records, truncating any torn final line."""
        header, records, clean_length = self.read()
        if header.experiment != experiment:
            raise LedgerError(
                f"{self.path}: ledger belongs to experiment "
                f"{header.experiment!r}, cannot resume {experiment!r}"
            )
        if header.root_seed != root_seed:
            raise LedgerError(
                f"{self.path}: ledger was recorded with root seed "
                f"{header.root_seed}, cannot resume with seed {root_seed}"
            )
        size = self.path.stat().st_size
        if clean_length < size:
            with open(self.path, "r+b") as handle:
                handle.truncate(clean_length)
        return records

    # -- writing ------------------------------------------------------------

    def start(self, header: LedgerHeader) -> None:
        """Begin a fresh ledger (truncating any previous file)."""
        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._write_line(header.to_json())

    def reopen(self) -> None:
        """Open an existing ledger for appending (the resume path)."""
        self.close()
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, record: RunRecord) -> None:
        """Journal one completed run, flushed to the OS immediately."""
        if self._handle is None:
            raise LedgerError(
                f"{self.path}: ledger is not open for writing; call start() "
                "or reopen() first"
            )
        self._write_line(record.to_json())

    def _write_line(self, payload: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(payload) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the write handle (safe to call repeatedly)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
