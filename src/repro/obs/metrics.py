"""Metric primitives for the observability layer.

Three metric kinds, chosen so every one of them can be **merged** across
per-seed snapshots (and therefore across worker processes) without
keeping raw samples around:

* **counter** — a monotonically accumulating number (``ope.fallback.hops``,
  ``ope.quarantine.records``);
* **gauge** — a last-write-wins value plus an update count;
* **histogram** — running ``(count, total, min, max)`` moments
  (``ope.weights.ess``, ``harness.seed.duration``), enough for the
  mean/min/max summaries the paper-style reports need.

Determinism contract: a metric whose final dotted segment names a time
quantity (see :data:`TIMING_SUFFIXES`) is a **timing metric**.  Timing
metrics are excluded from :meth:`MetricsRegistry.snapshot` in
deterministic mode, exactly as the run ledger canonicalises
:class:`~repro.runtime.records.RunRecord` durations to ``0.0`` — so
sequential, parallel, and resumed sweeps journal byte-identical
telemetry.  Everything else (weight mass, hop counts, record counts) is
a pure function of the seeded experiment and is journaled verbatim.

Merging is performed in run-index order by the harness, so float
accumulation (histogram totals) follows the same addition sequence
however the sweep was executed.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.errors import TelemetryError

#: Final name segments that mark a metric as timing-valued (excluded
#: from deterministic snapshots, like canonicalised ledger durations).
TIMING_SUFFIXES = ("duration", "seconds", "wall", "cpu")

#: Dotted-name prefixes of **environment metrics**: *how* the run
#: executed (pool pipe bytes, why a parallel stream ran in one process,
#: HTTP transport counts), not *what* the seeded experiment computed.
#: Like timing metrics they are excluded from deterministic snapshots:
#: the same sweep must journal byte-identical telemetry whether it ran
#: in one process or a pool.
ENVIRONMENT_PREFIXES = (
    "harness.pool.ipc",
    "ope.stream.sequential",
    "serve.http",
    "live.ingest.rate",
)

#: Snapshot dictionary sections, in render order.
SNAPSHOT_SECTIONS = ("counters", "gauges", "histograms")


def is_timing_metric(name: str) -> bool:
    """Whether *name* is a timing metric (nondeterministic by nature)."""
    return name.rsplit(".", 1)[-1] in TIMING_SUFFIXES


def is_environment_metric(name: str) -> bool:
    """Whether *name* records execution environment rather than results."""
    return any(
        name == prefix or name.startswith(prefix + ".")
        for prefix in ENVIRONMENT_PREFIXES
    )


def _is_nondeterministic(name: str) -> bool:
    return is_timing_metric(name) or is_environment_metric(name)


def _check_name(name: str) -> str:
    if not name or any(ch.isspace() for ch in name):
        raise TelemetryError(f"metric name must be non-empty and space-free, got {name!r}")
    return name


class MetricsRegistry:
    """Thread-safe container for one recorder's counters/gauges/histograms.

    All mutation goes through :meth:`increment` / :meth:`set_gauge` /
    :meth:`observe`; :meth:`snapshot` produces the plain-dict JSON form
    that ledgers, telemetry sinks, and renders consume.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, Dict[str, float]] = {}
        self._histograms: Dict[str, Dict[str, float]] = {}

    def increment(self, name: str, value: float = 1) -> None:
        """Add *value* to counter *name* (creating it at zero)."""
        _check_name(name)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* (last write wins, updates counted)."""
        _check_name(name)
        with self._lock:
            entry = self._gauges.setdefault(name, {"last": 0.0, "updates": 0})
            entry["last"] = float(value)
            entry["updates"] += 1

    def observe(self, name: str, value: float) -> None:
        """Record one sample of *value* into histogram *name*."""
        _check_name(name)
        value = float(value)
        with self._lock:
            entry = self._histograms.get(name)
            if entry is None:
                self._histograms[name] = {
                    "count": 1,
                    "total": value,
                    "min": value,
                    "max": value,
                }
            else:
                entry["count"] += 1
                entry["total"] += value
                entry["min"] = min(entry["min"], value)
                entry["max"] = max(entry["max"], value)

    def snapshot(self, deterministic: bool = False) -> Dict[str, Any]:
        """Plain-dict view of every metric, empty sections omitted.

        With ``deterministic=True`` timing metrics and environment
        metrics are dropped (they are the telemetry analogue of ledger
        durations: real but journaled as side-channel-only), making the
        snapshot a pure function of the seeded run.
        """
        with self._lock:
            payload: Dict[str, Any] = {}
            counters = {
                name: value
                for name, value in self._counters.items()
                if not (deterministic and _is_nondeterministic(name))
            }
            gauges = {
                name: dict(entry)
                for name, entry in self._gauges.items()
                if not (deterministic and _is_nondeterministic(name))
            }
            histograms = {
                name: dict(entry)
                for name, entry in self._histograms.items()
                if not (deterministic and _is_nondeterministic(name))
            }
        if counters:
            payload["counters"] = counters
        if gauges:
            payload["gauges"] = gauges
        if histograms:
            payload["histograms"] = histograms
        return payload


def merge_snapshot(target: Dict[str, Any], other: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge snapshot *other* into *target* in place and return *target*.

    Counters add, gauge ``last`` takes the later write (``updates`` add),
    histogram moments combine.  Callers must merge in run-index order so
    gauge last-writes and float totals are reproducible however the
    sweep was executed.
    """
    if not other:
        return target
    counters = target.setdefault("counters", {})
    for name, value in other.get("counters", {}).items():
        counters[name] = counters.get(name, 0) + value
    if not counters:
        del target["counters"]
    gauges = target.setdefault("gauges", {})
    for name, entry in other.get("gauges", {}).items():
        merged = gauges.setdefault(name, {"last": 0.0, "updates": 0})
        merged["last"] = entry["last"]
        merged["updates"] += entry["updates"]
    if not gauges:
        del target["gauges"]
    histograms = target.setdefault("histograms", {})
    for name, entry in other.get("histograms", {}).items():
        merged = histograms.get(name)
        if merged is None:
            histograms[name] = dict(entry)
        else:
            merged["count"] += entry["count"]
            merged["total"] += entry["total"]
            merged["min"] = min(merged["min"], entry["min"])
            merged["max"] = max(merged["max"], entry["max"])
    if not histograms:
        del target["histograms"]
    return target


def snapshot_is_empty(snapshot: Optional[Dict[str, Any]]) -> bool:
    """Whether *snapshot* carries no metrics at all."""
    if not snapshot:
        return True
    return not any(snapshot.get(section) for section in SNAPSHOT_SECTIONS)
