"""Schema checker for JSONL telemetry files.

CI runs ``python -m repro.obs.validate PATH`` after the fig7a telemetry
smoke: exit 0 when the file matches the format documented in
:mod:`repro.obs.sinks`, exit 1 (with a per-line message) when it does
not.  :func:`validate_telemetry_file` is the importable form the tests
use.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.core import schema
from repro.errors import TelemetryError
from repro.obs.sinks import HEADER_FIELDS, RUN_FIELDS, SUMMARY_FIELDS

_LINE_FIELDS = {"run": RUN_FIELDS, "summary": SUMMARY_FIELDS}


def validate_telemetry_file(path: Union[str, Path]) -> Mapping[str, Any]:
    """Validate one telemetry file; returns its parsed header.

    Raises :class:`~repro.errors.TelemetryError` (with the offending
    line number) on any schema violation.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise TelemetryError(f"cannot read telemetry file {path}: {exc}") from exc
    if not lines:
        raise TelemetryError(f"{path}: telemetry file is empty")

    header: Optional[Dict[str, Any]] = None
    run_indices: List[int] = []
    saw_summary = False
    for line_number, line in enumerate(lines, start=1):
        where = f"{path}:{line_number}"
        if not line.strip():
            raise TelemetryError(f"{where}: blank line")
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"{where}: not valid JSON: {exc}") from exc
        if line_number == 1:
            header = schema.read(payload, HEADER_FIELDS, f"{where}: header", TelemetryError)
            continue
        if saw_summary:
            raise TelemetryError(f"{where}: content after the summary line")
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if kind not in _LINE_FIELDS:
            raise TelemetryError(
                f"{where}: every line after the header must be a JSON object "
                f"of kind 'run' or 'summary', got kind {kind!r}"
            )
        values = schema.read(payload, _LINE_FIELDS[kind], f"{where}: {kind} line", TelemetryError)
        if kind == "run":
            run_indices.append(values["index"])
        saw_summary = kind == "summary"

    if header is None:
        raise TelemetryError(f"{path}: telemetry file has no header")
    if not saw_summary:
        raise TelemetryError(f"{path}: telemetry file has no summary line")
    if run_indices != list(range(len(run_indices))):
        raise TelemetryError(f"{path}: run lines are not in dense index order")
    if len(run_indices) != header["runs"]:
        raise TelemetryError(
            f"{path}: header promises {header['runs']} runs, "
            f"found {len(run_indices)} run lines"
        )
    return header


def _describe(header: Mapping[str, Any]) -> str:
    return (
        f"experiment={header['experiment']} runs={header['runs']} "
        f"root_seed={header['root_seed']}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: validate each path argument, report, exit 0/1."""
    return schema.validate_paths(
        argv,
        "python -m repro.obs.validate TELEMETRY_FILE [...]",
        validate_telemetry_file,
        _describe,
        TelemetryError,
    )


if __name__ == "__main__":
    sys.exit(main())
