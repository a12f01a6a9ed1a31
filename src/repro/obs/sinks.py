"""Telemetry sinks: the JSONL telemetry file and the human renders.

The per-seed telemetry payload (what :func:`run_telemetry` builds from a
:class:`~repro.obs.spans.Recorder`, what the run ledger journals on each
:class:`~repro.runtime.records.RunRecord`, and what the telemetry file
repeats) is the **deterministic** view of a run::

    {"metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
     "spans": {"estimate[estimator=dr]": 1, ...}}

``metrics`` is a deterministic :meth:`MetricsRegistry.snapshot` (timing
metrics dropped, exactly as ledger durations are canonicalised to 0.0)
and ``spans`` maps span *paths* to completed counts.  Both are pure
functions of the seeded run, so sequential, parallel, and resumed sweeps
journal byte-identical telemetry.  Real timings travel separately as the
non-journaled flat profile (:meth:`Recorder.flat_profile`).

Telemetry file format (one JSON object per line, like the run ledger):

* line 1 — header::

      {"kind": "repro-telemetry", "version": 1, "experiment": "fig7a",
       "root_seed": 2017, "runs": 50}

* one ``{"kind": "run", ...}`` line per seed, in run-index order, with
  the canonicalised duration (0.0) and the per-seed telemetry payload;
* final line — ``{"kind": "summary", "telemetry": <merged payload>}``
  where the merge was performed in run-index order.

The three line shapes are declared once, as :data:`HEADER_FIELDS`,
:data:`RUN_FIELDS` and :data:`SUMMARY_FIELDS`: the writer builds each
line from them and ``python -m repro.obs.validate FILE`` (run in CI)
checks against them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.core import schema
from repro.core.schema import Field
from repro.obs.metrics import SNAPSHOT_SECTIONS, merge_snapshot, snapshot_is_empty
from repro.obs.spans import PATH_SEPARATOR, Recorder, SpanRecord

TELEMETRY_KIND = "repro-telemetry"
TELEMETRY_VERSION = 1

#: Canonical duration journaled for telemetry lines (telemetry is
#: deterministic; real timings live in the non-journaled profile).
CANONICAL_DURATION = 0.0

#: The entries of the keyed metric sections, as the snapshot writes them.
_ENTRY_FIELDS = {
    "gauges": tuple(Field(key, schema.number) for key in ("last", "updates")),
    "histograms": tuple(
        Field(key, schema.number) for key in ("count", "total", "min", "max")
    ),
}


def _check_metrics(metrics: Any) -> None:
    if not isinstance(metrics, dict) or not metrics.keys() <= set(SNAPSHOT_SECTIONS):
        raise ValueError(f"metrics must be an object with sections {SNAPSHOT_SECTIONS}")
    for section in SNAPSHOT_SECTIONS:
        if not isinstance(metrics.get(section, {}), dict):
            raise ValueError(f"metric section {section!r} must be an object")
    for name, value in metrics.get("counters", {}).items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"counter {name!r} must be a number, got {value!r}")
    for section, entry_fields in _ENTRY_FIELDS.items():
        for name, entry in metrics.get(section, {}).items():
            schema.read(entry, entry_fields, f"{section[:-1]} {name!r}", ValueError)


def _check_telemetry(telemetry: Any) -> Any:
    """The check of a line's ``telemetry``: null or the payload above."""
    if telemetry is None:
        return None
    if not isinstance(telemetry, dict) or not telemetry.keys() <= {"metrics", "spans"}:
        raise ValueError("must be null or an object with keys metrics and spans")
    if "metrics" in telemetry:
        _check_metrics(telemetry["metrics"])
    spans = telemetry.get("spans", {})
    if not isinstance(spans, dict) or not all(
        type(count) is int and count >= 1 for count in spans.values()
    ):
        raise ValueError("spans must map span paths to positive integers")
    return telemetry


HEADER_FIELDS = (
    Field("kind", schema.one_of(TELEMETRY_KIND)),
    Field("version", schema.one_of(TELEMETRY_VERSION)),
    Field("experiment", schema.text),
    Field("root_seed", schema.integer),
    Field("runs", schema.count),
)
RUN_FIELDS = (
    Field("kind", schema.one_of("run")),
    Field("index", schema.count),
    Field("seed", schema.integer),
    Field("status", schema.text),
    Field("duration", schema.one_of(CANONICAL_DURATION)),
    Field("telemetry", _check_telemetry),
)
SUMMARY_FIELDS = (
    Field("kind", schema.one_of("summary")),
    Field("telemetry", _check_telemetry),
)


def run_telemetry(recorder: Recorder) -> Optional[Dict[str, Any]]:
    """The deterministic per-seed telemetry payload of *recorder*.

    Returns ``None`` when the run produced no telemetry at all, so run
    records without instrumented work journal exactly as before.
    """
    payload: Dict[str, Any] = {}
    metrics = recorder.metrics.snapshot(deterministic=True)
    if not snapshot_is_empty(metrics):
        payload["metrics"] = metrics
    spans = recorder.span_counts()
    if spans:
        payload["spans"] = spans
    return payload or None


def merge_telemetry(
    target: Dict[str, Any], other: Optional[Mapping[str, Any]]
) -> Dict[str, Any]:
    """Merge per-seed telemetry *other* into *target* in place.

    Must be called in run-index order (see :func:`merge_snapshot`) so
    the merged payload is identical however the sweep was executed.
    """
    if not other:
        return target
    other_metrics = other.get("metrics")
    if other_metrics:
        merged = merge_snapshot(target.setdefault("metrics", {}), other_metrics)
        if snapshot_is_empty(merged):
            del target["metrics"]
    other_spans = other.get("spans")
    if other_spans:
        spans = target.setdefault("spans", {})
        for path, count in other_spans.items():
            spans[path] = spans.get(path, 0) + count
    return target


def merge_profile(
    target: Dict[str, Dict[str, float]],
    other: Optional[Mapping[str, Mapping[str, float]]],
) -> Dict[str, Dict[str, float]]:
    """Merge a flat profile *other* into *target* in place.

    Profiles carry real timings and are never journaled, so merge order
    only affects float noise nobody asserts on.
    """
    if not other:
        return target
    for path, entry in other.items():
        merged = target.get(path)
        if merged is None:
            target[path] = dict(entry)
        else:
            merged["count"] += entry["count"]
            merged["wall"] += entry["wall"]
            merged["cpu"] += entry["cpu"]
    return target


def write_telemetry_file(
    path: Union[str, Path],
    experiment: str,
    root_seed: int,
    runs: int,
    records: Iterable[Any],
    summary: Optional[Mapping[str, Any]],
) -> Path:
    """Write the JSONL telemetry file for one completed sweep.

    *records* are the sweep's :class:`~repro.runtime.records.RunRecord`
    objects in run-index order; *summary* is the index-order-merged
    telemetry payload.  Written once at the end of a sweep (the run
    ledger remains the crash checkpoint), so the file is byte-identical
    across sequential/parallel/resumed executions.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines: List[str] = [
        json.dumps(
            schema.build(
                HEADER_FIELDS,
                kind=TELEMETRY_KIND,
                version=TELEMETRY_VERSION,
                experiment=experiment,
                root_seed=root_seed,
                runs=runs,
            )
        )
    ]
    for record in records:
        lines.append(
            json.dumps(
                schema.build(
                    RUN_FIELDS,
                    kind="run",
                    index=record.index,
                    seed=record.seed,
                    status=record.status,
                    duration=CANONICAL_DURATION,
                    telemetry=record.telemetry,
                )
            )
        )
    summary = dict(summary) if summary else None
    lines.append(json.dumps(schema.build(SUMMARY_FIELDS, kind="summary", telemetry=summary)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _format_value(value: float) -> str:
    """Deterministic compact number formatting for renders."""
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return format(number, ".6g")


def render_telemetry(
    telemetry: Optional[Mapping[str, Any]], indent: str = "  "
) -> List[str]:
    """Human lines for a merged telemetry payload (deterministic)."""
    lines: List[str] = []
    if not telemetry:
        return lines
    metrics = telemetry.get("metrics") or {}
    for section in SNAPSHOT_SECTIONS:
        entries = metrics.get(section)
        if not entries:
            continue
        lines.append(f"{indent}{section}:")
        for name in sorted(entries):
            entry = entries[name]
            if section == "counters":
                detail = _format_value(entry)
            elif section == "gauges":
                detail = (
                    f"{_format_value(entry['last'])} "
                    f"({_format_value(entry['updates'])} updates)"
                )
            else:
                mean = entry["total"] / entry["count"] if entry["count"] else 0.0
                detail = (
                    f"n={_format_value(entry['count'])} "
                    f"mean={_format_value(mean)} "
                    f"min={_format_value(entry['min'])} "
                    f"max={_format_value(entry['max'])}"
                )
            lines.append(f"{indent}{indent}{name}: {detail}")
    spans = telemetry.get("spans")
    if spans:
        lines.append(f"{indent}spans:")
        for span_path in sorted(spans):
            lines.append(f"{indent}{indent}{span_path}: {_format_value(spans[span_path])}")
    return lines


def render_flat_profile(
    profile: Mapping[str, Mapping[str, float]], limit: Optional[int] = None
) -> List[str]:
    """Human lines for a flat profile, hottest (by wall time) first."""
    if not profile:
        return ["(no spans recorded)"]
    ordered = sorted(profile.items(), key=lambda item: (-item[1]["wall"], item[0]))
    if limit is not None:
        ordered = ordered[:limit]
    width = max(len(path) for path, _ in ordered)
    width = max(width, len("span"))
    lines = [f"{'span'.ljust(width)}  {'count':>7}  {'wall s':>10}  {'cpu s':>10}"]
    for path, entry in ordered:
        lines.append(
            f"{path.ljust(width)}  {int(entry['count']):>7}  "
            f"{entry['wall']:>10.4f}  {entry['cpu']:>10.4f}"
        )
    return lines


def render_span_tree(spans: Sequence[SpanRecord]) -> List[str]:
    """Human tree render of recorded spans (for ``repro trace``).

    Aggregates repeated spans by path, indents by nesting depth, and
    orders siblings by first completion so the tree reads in execution
    order.
    """
    if not spans:
        return ["(no spans recorded)"]
    order: List[str] = []
    totals: Dict[str, Dict[str, float]] = {}
    for record in spans:
        entry = totals.get(record.path)
        if entry is None:
            order.append(record.path)
            totals[record.path] = {
                "count": 1,
                "wall": record.wall_seconds,
                "cpu": record.cpu_seconds,
                "depth": record.depth,
            }
        else:
            entry["count"] += 1
            entry["wall"] += record.wall_seconds
            entry["cpu"] += record.cpu_seconds
    # Children complete before their parents, so sort paths
    # lexicographically on their segment tuples to restore tree order
    # while keeping sibling groups together.
    order.sort(key=lambda path: path.split(PATH_SEPARATOR))
    lines: List[str] = []
    for path in order:
        entry = totals[path]
        label = path.rsplit(PATH_SEPARATOR, 1)[-1]
        indent = "  " * int(entry["depth"])
        lines.append(
            f"{indent}{label}  x{int(entry['count'])}  "
            f"wall={entry['wall']:.4f}s cpu={entry['cpu']:.4f}s"
        )
    return lines
