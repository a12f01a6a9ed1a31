"""The live OPE monitor behind ``repro watch``.

:class:`LiveWatch` glues the live tier together: per-policy
:class:`~repro.live.incremental.IncrementalEstimator` state, anytime
:class:`~repro.live.confidence.ConfidenceSequence` intervals, one
:class:`~repro.live.changepoint.OnlineChangePointDetector` over the
stream's chunk reward means, optional shard capture of everything
observed, and live observability gauges.  Feed it chunks — from
:class:`~repro.workloads.drift.LiveTrafficGenerator`,
:func:`~repro.live.tailing.follow_trace_chunks`, or any object honouring
the streaming chunk contract — and read a :class:`WatchReport` whenever
you like; anytime validity is the confidence sequences' job.

Confidence-sequence terms are derived from the estimator's own gathered
stream columns (DESIGN.md §13):

* ``{weights, rewards}`` → per-record ``w·r`` terms; self-normalised
  estimators (``snips``) instead get a
  :class:`~repro.live.confidence.RatioConfidenceSequence` over
  ``(w·r, w)``.
* ``{dm_terms, weights, residuals}`` → ``dm + w·resid`` (for ``sndr``
  this brackets the unnormalised DR surrogate — the documented caveat).
* ``{matched, rewards}`` → ratio sequence over ``(matched·r, matched)``.
* ``{contributions}`` (plus extras) → the contributions themselves.

Metrics (all under the ``live.`` namespace, recorded when an
``repro.obs`` recorder is active): ``live.ingest.records`` counter,
``live.ingest.rate`` gauge (environment-dependent, excluded from
deterministic telemetry), ``live.segments`` and ``live.cs.width.<name>``
gauges, ``live.update.seconds`` timing histogram.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from repro.core.estimators.base import EstimateResult, OffPolicyEstimator
from repro.core.policy import Policy
from repro.errors import EstimatorError, ReproError
from repro.live.changepoint import OnlineChangePointDetector
from repro.live.confidence import (
    DEFAULT_ALPHA,
    ConfidenceSequence,
    RatioConfidenceSequence,
)
from repro.live.incremental import IncrementalEstimator
from repro.obs.spans import increment, observe, recording, set_gauge
from repro.store.format import ShardWriter

#: Estimators whose ``{weights, rewards}`` columns feed a ratio CS.
SELF_NORMALIZED_NAMES = frozenset({"snips"})


class PolicyMonitor:
    """One policy's live state: incremental estimator + confidence sequence.

    The CS attaches lazily on the first chunk (term shape depends on the
    estimator's gathered column set, unknown until ``_stream_chunk`` has
    run once).
    """

    def __init__(
        self,
        name: str,
        estimator: OffPolicyEstimator,
        policy: Policy,
        old_policy: Optional[Policy] = None,
        alpha: float = DEFAULT_ALPHA,
    ):
        self.name = name
        self.policy = policy
        self.alpha = float(alpha)
        self.incremental = IncrementalEstimator(
            estimator, policy, old_policy=old_policy
        )
        self._sequence: Optional[
            Union[ConfidenceSequence, RatioConfidenceSequence]
        ] = None

    def _make_sequence(
        self, columns: frozenset
    ) -> Union[ConfidenceSequence, RatioConfidenceSequence]:
        name = self.incremental.estimator.name
        if columns >= {"weights", "rewards"}:
            if name in SELF_NORMALIZED_NAMES:
                return RatioConfidenceSequence(self.alpha)
            return ConfidenceSequence(self.alpha)
        if columns >= {"dm_terms", "weights", "residuals"}:
            return ConfidenceSequence(self.alpha)
        if columns >= {"matched", "rewards"}:
            return RatioConfidenceSequence(self.alpha)
        if "contributions" in columns:
            return ConfidenceSequence(self.alpha)
        raise EstimatorError(
            f"no confidence-sequence mapping for {name} columns "
            f"{sorted(columns)}"
        )

    def _chunk_terms(self, before: int, after: int):
        """The CS update terms for the records ``[before, after)``."""
        inc = self.incremental
        columns = frozenset(inc.column_names())
        sl = slice(before, after)
        if columns >= {"weights", "rewards"}:
            weights = inc.column_prefix("weights")[sl]
            rewards = inc.column_prefix("rewards")[sl]
            if isinstance(self._sequence, RatioConfidenceSequence):
                return (weights * rewards, weights)
            return (weights * rewards,)
        if columns >= {"dm_terms", "weights", "residuals"}:
            dm = inc.column_prefix("dm_terms")[sl]
            weights = inc.column_prefix("weights")[sl]
            residuals = inc.column_prefix("residuals")[sl]
            return (dm + weights * residuals,)
        if columns >= {"matched", "rewards"}:
            matched = inc.column_prefix("matched")[sl]
            rewards = inc.column_prefix("rewards")[sl]
            return (matched * rewards, matched)
        return (inc.column_prefix("contributions")[sl],)

    def observe(self, chunk) -> None:
        """Fold one chunk into the estimator and confidence sequence."""
        before = self.incremental.n
        after = self.incremental.observe_chunk(chunk)
        if after == before:
            return
        if self._sequence is None:
            self._sequence = self._make_sequence(
                frozenset(self.incremental.column_names())
            )
        self._sequence.update(*self._chunk_terms(before, after))

    @property
    def n(self) -> int:
        """Records observed so far."""
        return self.incremental.n

    def result(
        self, extra_diagnostics: Optional[Dict[str, Any]] = None
    ) -> EstimateResult:
        """The exact estimate over everything observed (offline-identical)."""
        return self.incremental.result(extra_diagnostics=extra_diagnostics)

    def interval(self):
        """The current anytime-valid ``(lower, upper)`` interval."""
        if self._sequence is None:
            return (float("-inf"), float("inf"))
        return self._sequence.interval()

    def width(self) -> float:
        """Full width of the current interval (inf before data)."""
        if self._sequence is None:
            return float("inf")
        return self._sequence.width()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready per-policy summary for the watch report."""
        result = self.result()
        lower, upper = self.interval()
        return {
            "estimator": self.incremental.estimator.name,
            "n": self.n,
            "chunks": self.incremental.chunks,
            "value": result.value,
            "std_error": result.std_error,
            "cs_alpha": self.alpha,
            "cs_lower": lower,
            "cs_upper": upper,
            "cs_width": self.width(),
        }


class WatchReport:
    """A point-in-time snapshot of a :class:`LiveWatch`."""

    def __init__(self, payload: Dict[str, Any]):
        self.payload = payload

    def to_json(self) -> Dict[str, Any]:
        """The JSON-ready report payload."""
        return self.payload

    def write(self, path: Union[str, Path]) -> Path:
        """Write the report as pretty-printed JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.payload, indent=2, sort_keys=True) + "\n")
        return path

    def render(self) -> str:
        """Human-readable multi-line report for terminal output."""
        lines: List[str] = []
        lines.append(
            f"records={self.payload['records']:,}  "
            f"chunks={self.payload['chunks']}  "
            f"ingest={self.payload['ingest_records_per_second']:,.0f} rec/s"
        )
        for name in sorted(self.payload["policies"]):
            entry = self.payload["policies"][name]
            lines.append(
                f"  {name:<16} {entry['estimator']:<11} "
                f"value={entry['value']:+.6f}  "
                f"CS=[{entry['cs_lower']:+.4f}, {entry['cs_upper']:+.4f}]  "
                f"width={entry['cs_width']:.4f}"
            )
        detector = self.payload["detector"]
        states = ", ".join(detector["states"])
        lines.append(
            f"  segments={len(detector['segments'])}  states=[{states}]"
        )
        return "\n".join(lines)


class LiveWatch:
    """Maintain live per-policy estimates over an unbounded chunk stream.

    Parameters
    ----------
    estimator_factory:
        Zero-argument callable producing a fresh estimator per policy
        (streaming hooks keep per-stream setup state, so monitors must
        not share one instance).
    policies:
        Named candidate policies to value live.
    old_policy:
        Optional explicit logging policy; omitted → logged per-record
        propensities (the usual live configuration, and the one the
        offline-verification path reproduces exactly).
    alpha:
        Anytime error rate for every policy's confidence sequence.
    detector:
        Change-point detector; a default-configured one when omitted.
    capture_directory / capture_shard_size:
        When set, every observed record is also appended to a
        crash-consistent shard directory (``ShardWriter``), giving the
        frozen prefix that :func:`verify_against_capture` replays.
    """

    def __init__(
        self,
        estimator_factory: Callable[[], OffPolicyEstimator],
        policies: Dict[str, Policy],
        old_policy: Optional[Policy] = None,
        alpha: float = DEFAULT_ALPHA,
        detector: Optional[OnlineChangePointDetector] = None,
        capture_directory: Optional[Union[str, Path]] = None,
        capture_shard_size: int = 100_000,
    ):
        if not policies:
            raise EstimatorError("LiveWatch needs at least one policy")
        self._factory = estimator_factory
        self._old_policy = old_policy
        self.monitors: Dict[str, PolicyMonitor] = {
            name: PolicyMonitor(
                name, estimator_factory(), policy, old_policy=old_policy, alpha=alpha
            )
            for name, policy in policies.items()
        }
        self.detector = (
            detector if detector is not None else OnlineChangePointDetector()
        )
        self._writer: Optional[ShardWriter] = None
        if capture_directory is not None:
            self._writer = ShardWriter(
                capture_directory, shard_size=capture_shard_size
            )
        self._records = 0
        self._chunks = 0
        self._started = time.perf_counter()
        self._busy_seconds = 0.0

    @property
    def records(self) -> int:
        """Records ingested so far."""
        return self._records

    @property
    def chunks(self) -> int:
        """Chunks ingested so far."""
        return self._chunks

    def process(self, chunk) -> int:
        """Ingest one chunk: estimators, CS, detector, capture, metrics.

        Returns the total record count after the chunk.
        """
        size = len(chunk)
        if size == 0:
            return self._records
        update_started = time.perf_counter()
        for monitor in self.monitors.values():
            monitor.observe(chunk)
        rewards = chunk.columns().rewards
        self.detector.update(float(np.mean(rewards)), size)
        if self._writer is not None:
            self._writer.extend(chunk)
        self._records += size
        self._chunks += 1
        elapsed = time.perf_counter() - update_started
        self._busy_seconds += elapsed
        if recording():
            increment("live.ingest.records", size)
            observe("live.update.seconds", elapsed)
            set_gauge("live.segments", len(self.detector.segments))
            set_gauge("live.ingest.rate", self.ingest_rate())
            for name, monitor in self.monitors.items():
                width = monitor.width()
                if np.isfinite(width):
                    set_gauge(f"live.cs.width.{name}", width)
        return self._records

    def run(
        self,
        chunks: Iterable,
        max_records: Optional[int] = None,
        max_seconds: Optional[float] = None,
        on_refresh: Optional[Callable[["WatchReport"], None]] = None,
        refresh_seconds: float = 0.0,
    ) -> "WatchReport":
        """Drive the watch over a chunk iterable until a bound is hit.

        Stops when *chunks* is exhausted, *max_records* records have been
        ingested, or *max_seconds* of wall clock have passed.  When
        *on_refresh* is given it is called with an interim report at most
        every *refresh_seconds* (0 → after every chunk).
        """
        deadline = (
            None if max_seconds is None else time.perf_counter() + max_seconds
        )
        last_refresh = time.perf_counter()
        for chunk in chunks:
            self.process(chunk)
            now = time.perf_counter()
            if on_refresh is not None and (
                refresh_seconds <= 0 or now - last_refresh >= refresh_seconds
            ):
                on_refresh(self.report())
                last_refresh = now
            if max_records is not None and self._records >= max_records:
                break
            if deadline is not None and now >= deadline:
                break
        return self.report()

    def ingest_rate(self) -> float:
        """Records per second of *update* time (generation excluded)."""
        if self._busy_seconds <= 0:
            return 0.0
        return self._records / self._busy_seconds

    def close_capture(self) -> Optional[Path]:
        """Finalise the capture shard directory (writes its manifest)."""
        if self._writer is None:
            return None
        path = self._writer.close()
        self._writer = None
        return path

    def report(self) -> WatchReport:
        """A JSON-ready snapshot of everything the watch knows."""
        wall = time.perf_counter() - self._started
        return WatchReport(
            {
                "records": self._records,
                "chunks": self._chunks,
                "wall_seconds": wall,
                "update_seconds": self._busy_seconds,
                "ingest_records_per_second": self.ingest_rate(),
                "policies": {
                    name: monitor.snapshot()
                    for name, monitor in self.monitors.items()
                },
                "detector": self.detector.to_json(),
            }
        )

    def verify_against_capture(
        self, directory: Union[str, Path]
    ) -> Dict[str, Dict[str, Any]]:
        """Replay the captured prefix offline and check bit-identity.

        For every policy, a *fresh* estimator instance evaluates the
        captured shard directory through the ordinary offline path
        (``estimator.estimate`` → ``stream_estimate``) and the result is
        compared against :meth:`PolicyMonitor.result` — value, standard
        error, and the full contributions vector must be **equal**, not
        approximately equal.  Returns a per-policy verdict dict; any
        ``match: False`` entry means the live path diverged.
        """
        from repro.store.sharded import ShardedTrace

        trace = ShardedTrace(directory)
        verdicts: Dict[str, Dict[str, Any]] = {}
        for name, monitor in self.monitors.items():
            live = monitor.result()
            offline = self._factory().estimate(
                monitor.policy, trace, old_policy=self._old_policy
            )
            match = (
                live.value == offline.value
                and _same_float(live.std_error, offline.std_error)
                and np.array_equal(live.contributions, offline.contributions)
                and live.n == offline.n
            )
            verdicts[name] = {
                "match": bool(match),
                "live_value": live.value,
                "offline_value": offline.value,
                "n": live.n,
            }
        return verdicts


def _same_float(a: float, b: float) -> bool:
    """Exact float equality that treats NaN as equal to NaN."""
    if np.isnan(a) and np.isnan(b):
        return True
    return a == b


def require_verified(verdicts: Dict[str, Dict[str, Any]]) -> None:
    """Raise unless every policy's live estimate matched offline."""
    failed = sorted(name for name, v in verdicts.items() if not v["match"])
    if failed:
        detail = "; ".join(
            f"{name}: live={verdicts[name]['live_value']!r} "
            f"offline={verdicts[name]['offline_value']!r}"
            for name in failed
        )
        raise ReproError(
            f"live estimates diverged from offline replay for "
            f"{len(failed)} policies ({detail})"
        )
