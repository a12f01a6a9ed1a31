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
from typing import Any, List, Mapping, Optional, Union

from repro.errors import TelemetryError
from repro.obs.metrics import SNAPSHOT_SECTIONS
from repro.obs.sinks import TELEMETRY_KIND, TELEMETRY_VERSION

_GAUGE_KEYS = {"last", "updates"}
_HISTOGRAM_KEYS = {"count", "total", "min", "max"}


def _fail(where: str, message: str) -> None:
    raise TelemetryError(f"{where}: {message}")


def _check_number(where: str, what: str, value: Any) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        _fail(where, f"{what} must be a number, got {type(value).__name__}")


def _check_count(where: str, what: str, value: Any) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        _fail(where, f"{what} must be a non-negative integer, got {value!r}")


def _check_metrics(where: str, metrics: Any) -> None:
    if not isinstance(metrics, dict):
        _fail(where, "telemetry metrics must be an object")
    unknown = set(metrics) - set(SNAPSHOT_SECTIONS)
    if unknown:
        _fail(where, f"unknown metric sections {sorted(unknown)}")
    for section in SNAPSHOT_SECTIONS:
        if not isinstance(metrics.get(section, {}), dict):
            _fail(where, f"metric section {section!r} must be an object")
    for name, value in metrics.get("counters", {}).items():
        _check_number(where, f"counter {name!r}", value)
    for name, entry in metrics.get("gauges", {}).items():
        if not isinstance(entry, dict) or set(entry) != _GAUGE_KEYS:
            _fail(where, f"gauge {name!r} must have keys {sorted(_GAUGE_KEYS)}")
        for key in _GAUGE_KEYS:
            _check_number(where, f"gauge {name!r}.{key}", entry[key])
    for name, entry in metrics.get("histograms", {}).items():
        if not isinstance(entry, dict) or set(entry) != _HISTOGRAM_KEYS:
            _fail(where, f"histogram {name!r} must have keys {sorted(_HISTOGRAM_KEYS)}")
        for key in _HISTOGRAM_KEYS:
            _check_number(where, f"histogram {name!r}.{key}", entry[key])


def _check_telemetry(where: str, telemetry: Any) -> None:
    if telemetry is None:
        return
    if not isinstance(telemetry, dict):
        _fail(where, "telemetry payload must be an object or null")
    unknown = set(telemetry) - {"metrics", "spans"}
    if unknown:
        _fail(where, f"unknown telemetry keys {sorted(unknown)}")
    if "metrics" in telemetry:
        _check_metrics(where, telemetry["metrics"])
    if "spans" in telemetry:
        spans = telemetry["spans"]
        if not isinstance(spans, dict):
            _fail(where, "telemetry spans must be an object")
        for path, count in spans.items():
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                _fail(where, f"span count for {path!r} must be a positive integer")


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

    header: Optional[Mapping[str, Any]] = None
    run_indices: List[int] = []
    saw_summary = False
    for line_number, line in enumerate(lines, start=1):
        where = f"{path}:{line_number}"
        if not line.strip():
            _fail(where, "blank line")
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"{where}: not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            _fail(where, "every line must be a JSON object")
        if line_number == 1:
            if payload.get("kind") != TELEMETRY_KIND:
                _fail(where, f"header kind must be {TELEMETRY_KIND!r}")
            if payload.get("version") != TELEMETRY_VERSION:
                _fail(where, f"unsupported telemetry version {payload.get('version')!r}")
            for key in ("experiment", "root_seed", "runs"):
                if key not in payload:
                    _fail(where, f"header missing {key!r}")
            _check_count(where, "header 'runs'", payload["runs"])
            header = payload
            continue
        if saw_summary:
            _fail(where, "content after the summary line")
        kind = payload.get("kind")
        if kind == "run":
            for key in ("index", "seed", "status", "duration", "telemetry"):
                if key not in payload:
                    _fail(where, f"run line missing {key!r}")
            if payload["duration"] != 0.0:
                _fail(where, "run duration must be canonicalised to 0.0")
            _check_count(where, "run 'index'", payload["index"])
            _check_telemetry(where, payload["telemetry"])
            run_indices.append(payload["index"])
        elif kind == "summary":
            if "telemetry" not in payload:
                _fail(where, "summary line missing 'telemetry'")
            _check_telemetry(where, payload["telemetry"])
            saw_summary = True
        else:
            _fail(where, f"unknown line kind {kind!r}")

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


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: validate each path argument, report, exit 0/1."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: python -m repro.obs.validate TELEMETRY_FILE [...]", file=sys.stderr)
        return 1
    status = 0
    for raw in argv:
        try:
            header = validate_telemetry_file(raw)
        except TelemetryError as exc:
            print(f"INVALID {exc}", file=sys.stderr)
            status = 1
        else:
            print(
                f"OK {raw}: experiment={header['experiment']} "
                f"runs={header['runs']} root_seed={header['root_seed']}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main())
