"""Schema checker for served response payloads.

``python -m repro.serve.validate PAYLOAD.json [...]`` exits 0 when each
file holds a valid ``/v1/evaluate`` / ``/v1/compare`` response (or a
valid error body), 1 with a message otherwise — the serving analogue of
``python -m repro.obs.validate``.  The importable forms are
:func:`validate_response_payload` (full envelope) and
:func:`validate_report_payload` (just the ``report`` section), both
raising :class:`~repro.errors.ServeError` naming the offending field.

"Valid" is checked structurally *and* semantically where cheap: the
``report`` section must round-trip through
:meth:`~repro.core.reporting.EvaluationReport.from_json_dict` — the
strongest schema check available, since it rebuilds every dataclass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core import schema
from repro.core.reporting import EvaluationReport
from repro.errors import ServeError, TraceError
from repro.serve.app import (
    CACHE_FIELDS,
    ERROR_FIELDS,
    ERROR_KIND,
    FINGERPRINT_FIELDS,
    RESPONSE_FIELDS,
    TRACE_FIELDS,
)


def validate_report_payload(
    payload: Any, where: str = "report"
) -> EvaluationReport:
    """Validate a serialised :class:`EvaluationReport`; returns it rebuilt.

    Delegates to :meth:`EvaluationReport.from_json_dict`, which enforces
    kind/version and reconstructs every section — structural problems
    surface as :class:`~repro.errors.ServeError`.
    """
    try:
        return EvaluationReport.from_json_dict(payload)
    except TraceError as error:
        raise ServeError(f"{where}: {error}") from None


def validate_response_payload(payload: Any, where: str = "response") -> None:
    """Validate one full response envelope (or error body).

    Raises :class:`~repro.errors.ServeError` naming the first offending
    field; returns ``None`` on success.
    """
    if isinstance(payload, dict) and payload.get("kind") == ERROR_KIND:
        schema.read(payload, ERROR_FIELDS, where, ServeError)
        return
    envelope = schema.read(payload, RESPONSE_FIELDS, where, ServeError)
    for name, section_fields in (
        ("trace", TRACE_FIELDS),
        ("fingerprints", FINGERPRINT_FIELDS[envelope["endpoint"]]),
        ("cache", CACHE_FIELDS),
    ):
        schema.read(envelope[name], section_fields, f"{where}.{name}", ServeError)
    validate_report_payload(envelope["report"], where=f"{where}.report")


def validate_response_file(path: Union[str, Path]) -> Dict[str, Any]:
    """Validate one JSON response file; returns the parsed payload."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ServeError(f"cannot read {path}: {error}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ServeError(f"{path}: not valid JSON: {error}") from None
    validate_response_payload(payload, where=str(path))
    return payload


def _describe(payload: Dict[str, Any]) -> str:
    if payload["kind"] == ERROR_KIND:
        return f"error status={payload['status']}"
    return f"{payload['endpoint']} trace={payload['trace']['name']}"


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: validate each path argument, report, exit 0/1."""
    return schema.validate_paths(
        argv,
        "python -m repro.serve.validate RESPONSE_PAYLOAD.json [...]",
        validate_response_file,
        _describe,
        ServeError,
    )


if __name__ == "__main__":
    sys.exit(main())
