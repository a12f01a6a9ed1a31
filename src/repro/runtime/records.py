"""Structured per-seed run records and run-function outcomes.

The experiment harness used to reduce every failure to a bare
``failed_runs: int`` — losing *which* seed failed, *why*, and after how
many attempts.  :class:`RunRecord` preserves all of that, is JSON
round-trippable (so the run ledger can journal it), and replaces the
counter on :class:`~repro.experiments.harness.ExperimentResult` behind a
backward-compatible property.

:class:`RunOutcome` is the optional rich return type for per-seed run
functions: plain ``{estimator: error}`` mappings still work, but a run
function that used an :class:`~repro.runtime.fallback.EstimatorFallbackChain`
or quarantined trace records can report those degradations so the
harness surfaces them instead of hiding them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

from repro.core import schema
from repro.errors import LedgerError

#: Status of a completed per-seed run.
STATUS_OK = "ok"
STATUS_FAILED = "failed"

_RECORD_FIELDS = (
    schema.Field("index", schema.count),
    schema.Field("seed", schema.integer),
    schema.Field("status", schema.one_of(STATUS_OK, STATUS_FAILED)),
    schema.Field("attempts", schema.count),
    schema.Field("duration", schema.number),
    schema.Field("errors", lambda value: schema.mapping(value, schema.number)),
    schema.Field("error_type", schema.text, None),
    schema.Field("error_message", schema.text, None),
    schema.Field("degradations", lambda value: schema.mapping(value, schema.text), None),
    schema.Field("quarantined", lambda value: schema.mapping(value, schema.count), None),
    schema.Field("telemetry", schema.mapping, None),
)


@dataclass(frozen=True)
class RunOutcome:
    """What one per-seed run function reports back to the harness.

    Attributes
    ----------
    errors:
        Per-estimator relative errors, exactly as the plain-mapping
        return convention.
    degradations:
        ``{estimator label: chain link that actually answered}`` for
        every estimate that fell through a fallback chain.
    quarantined:
        ``{reason: count}`` of trace records quarantined by
        :func:`repro.core.contracts.check_trace` before estimation.
    """

    errors: Dict[str, float]
    degradations: Dict[str, str] = field(default_factory=dict)
    quarantined: Dict[str, int] = field(default_factory=dict)


def coerce_outcome(raw: Union[RunOutcome, Mapping[str, float]]) -> RunOutcome:
    """Normalise a run function's return value to a :class:`RunOutcome`."""
    if isinstance(raw, RunOutcome):
        return raw
    return RunOutcome(errors={label: float(value) for label, value in raw.items()})


@dataclass(frozen=True)
class RunRecord:
    """The full story of one per-seed run (successful or not).

    Attributes
    ----------
    index:
        Zero-based position of the run in the sweep; pairs with the
        deterministic seed stream so a ledger can be resumed.
    seed:
        The integer seed the run's generator was built from.
    status:
        ``"ok"`` or ``"failed"``.
    attempts:
        How many attempts the retry executor spent (1 without retries).
    duration:
        Wall-clock seconds across all attempts.
    errors:
        Per-estimator relative errors (empty for failed runs).
    error_type, error_message:
        Exception class name and message of the *last* attempt's failure
        (``None`` for successful runs).
    degradations, quarantined:
        Propagated from :class:`RunOutcome`.
    telemetry:
        Deterministic per-seed telemetry payload captured by the retry
        executor (``{"metrics": ..., "spans": ...}``, see
        :mod:`repro.obs.sinks`); journaled in the ledger so resumed
        sweeps preserve fallback-hop and weight-health history.
        ``None`` when the run recorded nothing.
    profile:
        Real wall/CPU flat profile and timing metrics of the run — a
        side channel (``compare=False``) that is **never journaled**:
        replayed ledger records have ``profile=None``, and equality
        between a fresh and a replayed record ignores it by design.
    """

    index: int
    seed: int
    status: str
    attempts: int
    duration: float
    errors: Dict[str, float] = field(default_factory=dict)
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    degradations: Dict[str, str] = field(default_factory=dict)
    quarantined: Dict[str, int] = field(default_factory=dict)
    telemetry: Optional[Dict[str, Any]] = None
    profile: Optional[Dict[str, Any]] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        """``True`` for a successful run."""
        return self.status == STATUS_OK

    def to_json(self) -> Dict[str, Any]:
        """JSON-serialisable representation (exact float round-trip:
        ``json`` serialises floats via ``repr``, the shortest exact
        form, so replayed errors are bit-identical)."""
        payload: Dict[str, Any] = {
            "index": self.index,
            "seed": self.seed,
            "status": self.status,
            "attempts": self.attempts,
            "duration": self.duration,
            "errors": dict(self.errors),
        }
        if self.error_type is not None:
            payload["error_type"] = self.error_type
            payload["error_message"] = self.error_message
        if self.degradations:
            payload["degradations"] = dict(self.degradations)
        if self.quarantined:
            payload["quarantined"] = dict(self.quarantined)
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        # profile is deliberately absent: real timings are a side
        # channel, and journaling them would break ledger byte-identity.
        return payload

    @classmethod
    def from_json(cls, payload: Any, where: str = "ledger") -> "RunRecord":
        """Inverse of :meth:`to_json`; a bad field is a :class:`LedgerError`."""
        values = schema.read(
            payload, _RECORD_FIELDS, f"{where}: malformed run record", LedgerError
        )
        # An absent optional field keeps the dataclass default (a fresh dict).
        return cls(**{key: value for key, value in values.items() if value is not None})
