"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause
while still being able to distinguish finer-grained failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class TraceError(ReproError):
    """A trace is malformed (bad record, inconsistent schema, bad file)."""


class JsonlRecordError(TraceError):
    """One line of a JSONL trace file could not be decoded.

    Carries the *path* and 1-based *line_number* of the offending line
    as structured attributes so callers (the CLI, ``repro repair``)
    can point at the exact record instead of re-parsing a message
    string.  Raised for malformed JSON and for well-formed JSON that is
    not a valid trace record alike — a streaming conversion must never
    surface a bare ``json.JSONDecodeError`` from deep inside a file.
    """

    def __init__(self, message: str, path: str = "", line_number: int = 0):
        super().__init__(message)
        self.path = str(path)
        self.line_number = int(line_number)


class PolicyError(ReproError):
    """A policy violates its contract (probabilities do not sum to one,
    a decision outside the decision space, negative probability, ...)."""


class EstimatorError(ReproError):
    """An estimator was invoked with inputs it cannot handle."""


class PropensityError(EstimatorError):
    """A propensity is missing, non-positive, or cannot be estimated.

    Subclasses :class:`EstimatorError` because a broken propensity is an
    estimator-input contract violation: IPS/DR divide by it, so letting a
    zero or negative value through would silently produce ``inf``/``nan``
    estimates instead of an exception.
    """


class AnalysisError(ReproError):
    """The static-analysis linter was invoked incorrectly (unknown rule
    id, unreadable path, or a file that does not parse)."""


class LedgerError(ReproError):
    """A run ledger is unusable (corrupt header, record/seed mismatch,
    or a ledger written by a different experiment configuration)."""


class WorkerError(ReproError):
    """A forked pool worker died without answering for its block."""


class RunTimeoutError(ReproError):
    """A per-seed experiment run exceeded its wall-clock timeout.

    Raised by the :mod:`repro.runtime` retry executor; treated like a
    failed run (recorded, skipped, optionally retried) rather than a
    crash, because a wedged model fit on one resample should not throw
    away the other 49 runs of a sweep.
    """


class FallbackExhaustedError(EstimatorError):
    """Every link of an :class:`repro.runtime.EstimatorFallbackChain`
    failed.

    Subclasses :class:`EstimatorError` so the experiment harness counts
    an exhausted chain as one failed run instead of aborting the sweep;
    the message enumerates every hop so nothing is masked.
    """


class TelemetryError(ReproError):
    """The observability layer was misused (bad metric name, malformed
    telemetry snapshot, or an unreadable telemetry file).

    Telemetry is a side channel: estimators and the harness never let a
    :class:`TelemetryError` abort an experiment run — it surfaces only
    from explicit telemetry entry points (sinks, validators, the
    ``repro trace`` CLI).
    """


class StoreError(ReproError):
    """An on-disk sharded trace is unusable (missing or corrupt manifest,
    format-version mismatch, schema-hash mismatch, or a shard whose
    arrays disagree with the manifest's record counts).

    Raised by :mod:`repro.store`; distinct from :class:`TraceError` so
    callers can tell "this trace data is malformed" apart from "this
    shard directory cannot be trusted at all".
    """


class ShardCorruptionError(StoreError):
    """One shard of a sharded trace is unusable, with a classified cause.

    The storage integrity layer (:mod:`repro.store.integrity`) never
    lets a raw ``zipfile``/``numpy``/``OSError`` escape a shard read;
    every failure is classified into one of the concrete subclasses
    below so degradation policies, quarantine reports, and ``repro
    verify`` can act on the *kind* of corruption:

    * :class:`ShardMissingError` — the shard file is gone;
    * :class:`ShardTruncatedError` — the file is shorter (or longer)
      than the manifest recorded, or its arrays disagree with the
      manifest's record count — a torn or partial write;
    * :class:`ShardChecksumError` — right size, wrong sha256 — silent
      bit-level corruption;
    * :class:`ShardDecodeError` — bytes verified (or unverifiable, v1)
      but the npz payload would not decode;
    * :class:`ShardReadError` — the underlying I/O kept failing after
      every configured retry (transient faults exhausted).

    Attributes
    ----------
    shard:
        Path of the offending shard file.
    kind:
        Machine-readable classification tag (``"missing"``,
        ``"truncated"``, ``"checksum-mismatch"``, ``"undecodable"``,
        ``"io-error"``) — the quarantine-reason vocabulary.
    """

    kind = "corrupt"

    def __init__(self, message: str, shard: str = ""):
        super().__init__(message)
        self.shard = str(shard)


class ShardMissingError(ShardCorruptionError):
    """A shard file named by the manifest does not exist."""

    kind = "missing"


class ShardTruncatedError(ShardCorruptionError):
    """A shard's bytes or array lengths disagree with the manifest —
    the signature of a torn or partially-written file."""

    kind = "truncated"


class ShardChecksumError(ShardCorruptionError):
    """A shard's content hash does not match the manifest — silent
    bit-level corruption (disk rot, a bad copy, tampering)."""

    kind = "checksum-mismatch"


class ShardDecodeError(ShardCorruptionError):
    """A shard's npz payload would not decode despite passing (or
    lacking, for v1 manifests) the byte-level checks."""

    kind = "undecodable"


class ShardReadError(ShardCorruptionError):
    """Reading a shard kept failing with transient I/O errors after
    every retry the degradation policy allowed."""

    kind = "io-error"


class ModelError(ReproError):
    """A reward model was used before fitting or fit on unusable data."""


class SimulationError(ReproError):
    """A simulation substrate was configured inconsistently."""


class ServeError(ReproError):
    """The evaluation service rejected a request or payload (malformed
    body, unknown endpoint or trace name, or a response payload that
    fails schema validation).

    Carries the HTTP *status* the server should answer with, so the
    connection handler can map one exception type onto 4xx responses
    without string-matching messages.
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = int(status)
