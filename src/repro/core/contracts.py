"""Runtime contracts for the off-policy-evaluation hot paths.

The paper's estimators fail exactly at their input boundaries: IPS blows
up when ``mu_old(d_k|c_k)`` is tiny (§4.1 "Coverage and randomness"), DR
is only doubly robust when its propensities lie strictly in (0, 1] and
its importance weights are finite, and every estimator silently computes
nonsense on a trace whose records disagree about their feature schema.
Farajtabar et al. (*More Robust Doubly Robust OPE*) and Jiang & Li
(*Doubly Robust Off-policy Value Evaluation for RL*) both locate the
fragility of these estimators at this input-contract boundary.

This module centralises those checks so every estimator enforces the
same contracts with the same exceptions:

* :func:`check_propensities` — strictly in (0, 1], finite; an opt-in
  ``floor`` clips tiny-but-positive values and reports how many were
  raised (the variance guard of §4.1).
* :func:`check_weights` — importance weights finite and non-negative,
  with the Kish effective sample size reported for diagnostics.
* :func:`check_trace` — schema validation: consistent features across
  records, and optionally required propensities / timestamps / states.
  Its ``quarantine=True`` mode splits offending records into a
  :class:`QuarantineReport` (per-reason counts, never silent) instead of
  hard-failing on the first bad record — the systems-layer analogue of
  DR's graceful degradation.
* :func:`reconcile_shortfall` — a chunked read that streamed fewer
  records than ``len(trace)`` is accepted only when the reader's
  quarantine accounting covers the gap exactly.

All failures raise :mod:`repro.errors` exceptions (never bare
``assert``, which vanishes under ``python -O``); the static linter in
:mod:`repro.analysis` enforces that discipline across the codebase.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.types import Trace, TraceColumns, TraceRecord
from repro.errors import EstimatorError, PropensityError, StoreError, TraceError
from repro.obs.spans import increment

#: Tolerance for propensities marginally above 1.0 due to float rounding
#: (mirrors the slack :class:`repro.core.types.TraceRecord` allows).
PROPENSITY_UPPER_SLACK = 1e-9


@dataclass(frozen=True)
class PropensityCheck:
    """Outcome of :func:`check_propensities`.

    Attributes
    ----------
    values:
        The validated (and possibly floor-clipped) propensities.
    clipped:
        How many values were below the floor and got raised to it
        (always 0 when no floor was requested).
    min_value:
        Smallest propensity *before* clipping — the denominator the
        paper warns about ("term in the denominator ... will be very
        small", §4.1).
    """

    values: np.ndarray
    clipped: int
    min_value: float


@dataclass(frozen=True)
class WeightCheck:
    """Outcome of :func:`check_weights`.

    Attributes
    ----------
    values:
        The validated importance weights.
    ess:
        Kish effective sample size ``(Σw)² / Σw²``; far below ``n``
        signals the coverage collapse of §2.2.2.
    max_weight:
        Largest weight — the tail indicator behind clipping/SWITCH.
    """

    values: np.ndarray
    ess: float
    max_weight: float


def check_propensities(
    values,
    floor: Optional[float] = None,
    where: str = "propensities",
) -> PropensityCheck:
    """Validate logging propensities for use as IPS/DR denominators.

    Every value must be finite and lie strictly in ``(0, 1]``.  With a
    *floor* in ``(0, 1)``, values in ``(0, floor)`` are clipped up to the
    floor (a bias-for-variance trade) and the clip count is reported;
    zero and negative values are *always* an error — a logged decision
    the old policy could never take indicates corrupt data, not thin
    exploration.

    Raises
    ------
    PropensityError
        (a subclass of :class:`~repro.errors.EstimatorError`) on any
        violation, naming *where* and the offending value.
    """
    array = np.asarray(values, dtype=float)
    if array.ndim == 0:
        array = array.reshape(1)
    if array.size == 0:
        raise PropensityError(f"{where}: no propensities to check")
    if not np.all(np.isfinite(array)):
        bad = int(np.flatnonzero(~np.isfinite(array))[0])
        raise PropensityError(
            f"{where}: propensity at index {bad} is {array[bad]}; "
            "propensities must be finite"
        )
    minimum = float(array.min())
    if minimum <= 0.0:
        bad = int(np.flatnonzero(array <= 0.0)[0])
        raise PropensityError(
            f"{where}: propensity at index {bad} is {array[bad]}; "
            "propensities must be strictly positive — the logged decision "
            "must have been possible under the old policy"
        )
    maximum = float(array.max())
    if maximum > 1.0 + PROPENSITY_UPPER_SLACK:
        bad = int(np.flatnonzero(array > 1.0 + PROPENSITY_UPPER_SLACK)[0])
        raise PropensityError(
            f"{where}: propensity at index {bad} is {array[bad]}; "
            "propensities are probabilities and must not exceed 1"
        )
    clipped = 0
    if floor is not None:
        if not 0.0 < floor < 1.0:
            raise PropensityError(
                f"{where}: propensity floor must lie in (0, 1), got {floor}"
            )
        below = array < floor
        clipped = int(below.sum())
        if clipped:
            array = np.where(below, floor, array)
    return PropensityCheck(values=array, clipped=clipped, min_value=minimum)


def check_propensity(
    value: Union[float, np.floating],
    floor: Optional[float] = None,
    where: str = "propensity",
) -> float:
    """Scalar convenience wrapper around :func:`check_propensities`."""
    return float(check_propensities([value], floor=floor, where=where).values[0])


def check_weights(weights, where: str = "importance weights") -> WeightCheck:
    """Validate importance weights before they touch an estimate.

    Weights must be finite (a ``nan``/``inf`` weight means a propensity
    contract was bypassed upstream) and non-negative (a negative weight
    means a policy emitted a negative probability).  Zero weights are
    legal — they are how IPS discards records the new policy would never
    produce.

    Raises
    ------
    EstimatorError
        on any violation, naming *where* and the offending index.
    """
    array = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(array)):
        bad = int(np.flatnonzero(~np.isfinite(array))[0])
        raise EstimatorError(
            f"{where}: weight at index {bad} is {array[bad]}; importance "
            "weights must be finite (check the propensity contract upstream)"
        )
    if array.size and float(array.min()) < 0.0:
        bad = int(np.flatnonzero(array < 0.0)[0])
        raise EstimatorError(
            f"{where}: weight at index {bad} is {array[bad]}; importance "
            "weights must be non-negative"
        )
    square_total = float((array**2).sum())
    ess = float(array.sum()) ** 2 / square_total if square_total > 0 else 0.0
    return WeightCheck(
        values=array,
        ess=ess,
        max_weight=float(array.max(initial=0.0)),
    )


@dataclass(frozen=True)
class QuarantinedRecord:
    """One record split out by quarantine-mode :func:`check_trace`.

    Attributes
    ----------
    index:
        The record's position in the original trace.
    reason:
        Machine-readable quarantine reason (e.g. ``"bad-propensity"``).
    record:
        The offending record itself, kept for post-mortems.
    """

    index: int
    reason: str
    record: TraceRecord


@dataclass(frozen=True)
class QuarantineReport:
    """Outcome of ``check_trace(..., quarantine=True)``.

    Splits a trace into the records that satisfy every schema contract
    and the ones that do not, with per-reason counts — so one malformed
    record degrades a sweep's sample size instead of killing the sweep,
    and the degradation is *reported*, never hidden.

    Attributes
    ----------
    clean:
        The surviving records, in original trace order.
    quarantined:
        The split-out records, in original trace order (deterministic:
        the scan order is the trace order and each record is tagged with
        its first failing check).
    reason_counts:
        ``{reason: count}`` over :attr:`quarantined`.
    """

    clean: Trace
    quarantined: Tuple[QuarantinedRecord, ...]
    reason_counts: Dict[str, int]

    @property
    def dropped(self) -> int:
        """How many records were quarantined."""
        return len(self.quarantined)

    def render(self) -> str:
        """One-line human-readable summary."""
        if not self.quarantined:
            return f"quarantine: all {len(self.clean)} records clean"
        reasons = ", ".join(
            f"{reason} x{count}" for reason, count in self.reason_counts.items()
        )
        return (
            f"quarantine: kept {len(self.clean)}, dropped {self.dropped} "
            f"({reasons})"
        )


def _reference_schema(trace: Trace) -> Tuple[str, ...]:
    """The majority feature schema of *trace* (ties: first seen wins)."""
    counts: Counter = Counter()
    first_seen: Dict[Tuple[str, ...], int] = {}
    for index, record in enumerate(trace):
        keys = record.context.keys()
        counts[keys] += 1
        first_seen.setdefault(keys, index)
    return max(counts, key=lambda keys: (counts[keys], -first_seen[keys]))


def _quarantine_reason(
    record: TraceRecord,
    schema: Tuple[str, ...],
    require_propensities: bool,
    require_timestamps: bool,
    require_states: bool,
) -> Optional[str]:
    """First failing contract for *record*, or ``None`` when clean.

    The check order is fixed so quarantine tagging is deterministic.
    """
    if not np.isfinite(record.reward):
        return "non-finite-reward"
    if record.context.keys() != schema:
        return "schema-mismatch"
    if record.propensity is not None and not (
        np.isfinite(record.propensity)
        and 0.0 < record.propensity <= 1.0 + PROPENSITY_UPPER_SLACK
    ):
        return "bad-propensity"
    if require_propensities and record.propensity is None:
        return "missing-propensity"
    if require_timestamps and record.timestamp is None:
        return "missing-timestamp"
    if require_states and record.state is None:
        return "missing-state"
    return None


def check_trace(
    trace: Trace,
    require_propensities: bool = False,
    require_timestamps: bool = False,
    require_states: bool = False,
    where: str = "trace",
    quarantine: bool = False,
) -> Union[Trace, QuarantineReport]:
    """Validate a trace's schema before estimation.

    Checks that the trace is non-empty, that every record shares one
    feature schema, that any logged propensities lie in (0, 1], and —
    opt-in — that every record carries the metadata a particular
    estimator needs (propensities for IPS/DR without an old policy,
    timestamps for non-stationary replay, states for the §4.3
    state-aware estimators).

    In strict mode (the default) the first violation raises and the
    trace is returned unchanged so call sites can chain on it.  With
    ``quarantine=True`` the trace is instead *split*: records violating
    any contract (including non-finite rewards smuggled past record
    validation by corrupt serialised data) are separated into a
    :class:`QuarantineReport` with per-reason counts, and the reference
    feature schema is the majority schema (ties broken toward the
    earliest record) so a single corrupt leading record cannot condemn
    the whole trace.

    Raises
    ------
    TraceError
        In strict mode, on any schema violation.  In quarantine mode,
        only when the trace is empty or *every* record is quarantined —
        an all-corrupt trace must never silently become an empty one.
    """
    if len(trace) == 0:
        raise TraceError(f"{where}: trace is empty")
    if quarantine:
        schema = _reference_schema(trace)
        clean: list = []
        quarantined: list = []
        reason_counts: Dict[str, int] = {}
        for index, record in enumerate(trace):
            reason = _quarantine_reason(
                record,
                schema,
                require_propensities,
                require_timestamps,
                require_states,
            )
            if reason is None:
                clean.append(record)
            else:
                quarantined.append(QuarantinedRecord(index, reason, record))
                reason_counts[reason] = reason_counts.get(reason, 0) + 1
        if not clean:
            reasons = ", ".join(
                f"{reason} x{count}" for reason, count in reason_counts.items()
            )
            raise TraceError(
                f"{where}: every one of the {len(trace)} records was "
                f"quarantined ({reasons}); refusing to return an empty trace"
            )
        if quarantined:
            # Telemetry side channel: dropped-record volume per run.
            increment("ope.quarantine.records", len(quarantined))
        return QuarantineReport(
            clean=Trace(clean),
            quarantined=tuple(quarantined),
            reason_counts=reason_counts,
        )
    # feature_names() raises TraceError on inconsistent record schemas.
    trace.feature_names()
    for index, record in enumerate(trace):
        # Record validation refuses non-finite rewards, but corrupt
        # serialised data can smuggle them past it.
        if not np.isfinite(record.reward):
            raise TraceError(
                f"{where}: record {index} has non-finite reward {record.reward}"
            )
        if record.propensity is not None and not (
            0.0 < record.propensity <= 1.0 + PROPENSITY_UPPER_SLACK
        ):
            raise TraceError(
                f"{where}: record {index} has logged propensity "
                f"{record.propensity}, outside (0, 1]"
            )
        if require_propensities and record.propensity is None:
            raise TraceError(
                f"{where}: record {index} carries no logged propensity"
            )
        if require_timestamps and record.timestamp is None:
            raise TraceError(
                f"{where}: record {index} carries no timestamp"
            )
        if require_states and record.state is None:
            raise TraceError(
                f"{where}: record {index} carries no system-state label"
            )
    return trace


def check_trace_columns(
    columns: TraceColumns,
    where: str = "trace",
    offset: int = 0,
) -> TraceColumns:
    """Strict-mode :func:`check_trace` over a columnar chunk, vectorized.

    The streaming engine (:mod:`repro.store.streaming`) validates every
    chunk it scores; iterating records would cost more than the
    estimator arithmetic it guards, so this variant checks the columns
    directly — rewards finite, logged propensities (``nan`` = missing,
    which is what the shard format stores for ``None``) inside
    ``(0, 1]`` — and raises the same :class:`TraceError` messages as the
    per-record scan, with *offset* added so reported indices are
    absolute trace positions.  Schema consistency comes from
    ``columns.feature_names()``, which the shard reader pre-validates
    from the manifest.  Unlike the record scan, all rewards are checked
    before any propensity, so on a multi-fault chunk the *reward* error
    surfaces first.
    """
    if len(columns) == 0:
        raise TraceError(f"{where}: trace is empty")
    columns.feature_names()
    rewards = columns.rewards
    finite = np.isfinite(rewards)
    if not finite.all():
        index = int(np.flatnonzero(~finite)[0])
        raise TraceError(
            f"{where}: record {index + offset} has non-finite reward "
            f"{rewards[index]}"
        )
    propensities = columns.propensities
    with np.errstate(invalid="ignore"):
        bad = ~np.isnan(propensities) & ~(
            (propensities > 0.0)
            & (propensities <= 1.0 + PROPENSITY_UPPER_SLACK)
        )
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise TraceError(
            f"{where}: record {index + offset} has logged propensity "
            f"{propensities[index]}, outside (0, 1]"
        )
    return columns


def reconcile_shortfall(trace, streamed: int) -> int:
    """Reconcile a chunked read of *streamed* records against ``len(trace)``.

    A reader opened with ``on_corruption="quarantine"`` skips shards it
    classified as corrupt, so its stream may be shorter than the trace.
    That shortfall is legitimate only when the reader's own accounting
    (``quarantined_records()``) covers it exactly.  Returns the number of
    quarantined records skipped (0 for a complete read).

    Raises
    ------
    StoreError
        If the shortfall is unaccounted — a corrupt or racing shard
        directory — or when quarantine left no records at all.
    """
    n = len(trace)
    if streamed == n:
        return 0
    counter = getattr(trace, "quarantined_records", None)
    skipped = int(counter()) if callable(counter) else 0
    if streamed + skipped != n:
        raise StoreError(
            f"streaming read {streamed} records from a trace reporting "
            f"len() == {n}"
            + (f" ({skipped} quarantined)" if skipped else "")
            + "; the shard directory is corrupt or was rewritten mid-read"
        )
    if streamed == 0:
        raise StoreError(
            f"every record of the trace ({skipped} in quarantined shards) was "
            "lost to corruption; nothing to estimate — run `repro repair`"
        )
    return skipped
