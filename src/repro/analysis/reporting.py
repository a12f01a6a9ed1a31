"""Render :class:`~repro.analysis.linter.LintReport` for humans and CI.

Three formats:

* **text** — one ``path:line: RULE message`` line per finding plus a
  summary footer (the historical format, now with warning/cache
  counters when relevant).
* **json** — the report's stable JSON document, for tooling.
* **sarif** — SARIF 2.1.0, the interchange format GitHub code scanning
  and most editors ingest; error findings map to level ``error``,
  warning findings to level ``warning``.

Exit-code policy (:func:`exit_code_for`): ``0`` for a clean run (warnings
alone never fail), ``1`` when error-severity violations remain after
noqa filtering, ``2`` for usage errors (unknown rule ids,
unreadable paths — raised as :class:`~repro.errors.AnalysisError` and
mapped by the CLI).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.analysis.linter import LintReport, Violation, rule_class_for
from repro.errors import AnalysisError

#: The SARIF version and schema this renderer targets.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

TOOL_NAME = "repro-lint"


def render_text(report: LintReport) -> str:
    """Human-readable report: findings first, summary footer last."""
    lines: List[str] = []
    for violation in report.violations:
        lines.append(f"{violation.location}: {violation.rule_id} {violation.message}")
    for warning in report.warnings:
        lines.append(
            f"{warning.location}: {warning.rule_id} [warning] {warning.message}"
        )
    lines.append(_summary_line(report))
    extras = _extras_line(report)
    if extras:
        lines.append(extras)
    return "\n".join(lines)


def _summary_line(report: LintReport) -> str:
    rules = len(report.rule_ids)
    if report.ok:
        return f"ok: {report.checked_files} file(s) clean under {rules} rule(s)"
    files_hit = len({violation.path for violation in report.violations})
    return (
        f"{len(report.violations)} violation(s) in {files_hit} file(s) "
        f"({report.checked_files} checked)"
    )


def _extras_line(report: LintReport) -> Optional[str]:
    parts: List[str] = []
    if report.warnings:
        parts.append(f"{len(report.warnings)} warning(s)")
    if report.cached_files:
        parts.append(
            f"cache: {report.cached_files} hit(s), "
            f"{report.analyzed_files} analyzed"
        )
    return "; ".join(parts) if parts else None


def render_json(report: LintReport) -> str:
    """Machine-readable report; round-trips through ``json.loads``."""
    return json.dumps(report.to_json(), indent=2, sort_keys=True)


def _sarif_rule(rule_id: str) -> Dict[str, object]:
    try:
        description = rule_class_for(rule_id).description
    except AnalysisError:
        # Hand-built reports may carry ids outside the registry; the
        # SARIF rule metadata then falls back to the bare id.
        description = rule_id
    return {
        "id": rule_id,
        "name": rule_id,
        "shortDescription": {"text": description},
        "defaultConfiguration": {"level": "error"},
    }


def _sarif_result(
    violation: Violation, rule_index: Dict[str, int]
) -> Dict[str, object]:
    level = "warning" if violation.severity == "warning" else "error"
    result: Dict[str, object] = {
        "ruleId": violation.rule_id,
        "level": level,
        "message": {"text": violation.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": violation.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {"startLine": max(violation.line, 1)},
                }
            }
        ],
    }
    if violation.rule_id in rule_index:
        result["ruleIndex"] = rule_index[violation.rule_id]
    return result


def render_sarif(report: LintReport) -> str:
    """The report as a SARIF 2.1.0 document (errors + warnings)."""
    rules = [_sarif_rule(rule_id) for rule_id in report.rule_ids]
    rule_index = {rule_id: i for i, rule_id in enumerate(report.rule_ids)}
    results = [
        _sarif_result(violation, rule_index)
        for violation in (*report.violations, *report.warnings)
    ]
    document = {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


_RENDERERS = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}


def render(report: LintReport, fmt: str) -> str:
    """Dispatch on format name (``text``/``json``/``sarif``)."""
    try:
        renderer = _RENDERERS[fmt]
    except KeyError:
        raise AnalysisError(
            f"unknown format {fmt!r}; choose from {', '.join(sorted(_RENDERERS))}"
        )
    return renderer(report)


def exit_code_for(report: LintReport) -> int:
    """``0`` clean (warnings never fail), ``1`` violations remain; usage
    errors surface as exit ``2`` via AnalysisError in the CLI."""
    return 0 if report.ok else 1
