"""Core data model: client contexts, trace records, and traces.

The paper (§2.1) formalises trace-driven evaluation over a trace
``T = {(c_k, d_k, r_k)}`` of client contexts, decisions, and rewards.  This
module provides those three notions plus the :class:`Trace` container used
by every estimator, simulator and workload generator in the library.

Decisions are arbitrary hashable values (strings, ints, or tuples for
composite decisions such as ``("cdn-1", 720)``).  Rewards are floats
(higher is better).  Each record optionally carries:

* ``propensity`` — the probability ``mu_old(d_k | c_k)`` with which the
  logging ("old") policy chose the logged decision.  The paper assumes
  this is known; when it is not, :mod:`repro.core.propensity` estimates it.
* ``timestamp`` — position in time, needed by non-stationary policies and
  by the state-aware extensions of §4.
* ``state`` — an opaque system-state label (e.g. ``"peak"``/``"morning"``)
  used by :mod:`repro.stateaware`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import kernels
from repro.errors import TraceError

Decision = Hashable
FeatureValue = Any


@dataclass(frozen=True)
class ClientContext:
    """A featurized summary of one client (paper §2.1, "client-context").

    Features are stored as an immutable sorted tuple of ``(name, value)``
    pairs so contexts are hashable and comparable, which matching-based
    evaluators (CFA, VIA) rely on.
    """

    _items: Tuple[Tuple[str, FeatureValue], ...]

    def __init__(self, features: Mapping[str, FeatureValue] | None = None, **kwargs: FeatureValue):
        merged: Dict[str, FeatureValue] = dict(features or {})
        merged.update(kwargs)
        for name in merged:
            if not isinstance(name, str) or not name:
                raise TraceError(f"feature names must be non-empty strings, got {name!r}")
        items = tuple(sorted(merged.items()))
        object.__setattr__(self, "_items", items)
        # Estimators look features up per record in hot loops; a dict makes
        # __getitem__/get/__contains__ O(1) instead of a linear scan.
        object.__setattr__(self, "_lookup", dict(items))
        object.__setattr__(self, "_hash", None)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(self._items)
            object.__setattr__(self, "_hash", value)
        return value

    @classmethod
    def _from_sorted_items(
        cls, items: Tuple[Tuple[str, FeatureValue], ...]
    ) -> "ClientContext":
        """Trusted constructor for callers that already hold validated,
        name-sorted ``(name, value)`` pairs (the shard decoder in
        :mod:`repro.store`, which fixes one schema per shard and would
        otherwise pay the public constructor's per-record re-validation
        and re-sort on every decode)."""
        context = object.__new__(cls)
        object.__setattr__(context, "_items", items)
        object.__setattr__(context, "_lookup", dict(items))
        object.__setattr__(context, "_hash", None)
        return context

    @property
    def features(self) -> Dict[str, FeatureValue]:
        """A fresh mutable dict of this context's features."""
        return dict(self._items)

    def __getitem__(self, name: str) -> FeatureValue:
        return self._lookup[name]

    def get(self, name: str, default: FeatureValue = None) -> FeatureValue:
        """Return feature *name*, or *default* when absent."""
        return self._lookup.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._lookup

    def keys(self) -> Tuple[str, ...]:
        """Feature names in sorted order."""
        return tuple(key for key, _ in self._items)

    def values_for(self, names: Sequence[str]) -> Tuple[FeatureValue, ...]:
        """Feature values for *names*, in the given order.

        Missing features raise :class:`KeyError`; this is the lookup used
        to bucket clients for matching and tabular models.
        """
        return tuple(map(self._lookup.__getitem__, names))

    def restrict(self, names: Sequence[str]) -> "ClientContext":
        """A new context containing only the features in *names*."""
        return ClientContext({name: self[name] for name in names})

    def with_features(self, **extra: FeatureValue) -> "ClientContext":
        """A new context with *extra* features added/overridden."""
        merged = self.features
        merged.update(extra)
        return ClientContext(merged)

    def numeric_vector(self, names: Optional[Sequence[str]] = None) -> np.ndarray:
        """Features as a float vector (for k-NN / linear models).

        Non-numeric features raise :class:`TypeError`; encode categoricals
        first (see :mod:`repro.core.models.featurize`).
        """
        selected = names if names is not None else self.keys()
        return np.asarray([float(self[name]) for name in selected], dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{key}={value!r}" for key, value in self._items)
        return f"ClientContext({inner})"


@dataclass(frozen=True)
class TraceRecord:
    """One logged interaction ``(c_k, d_k, r_k)`` plus optional metadata."""

    context: ClientContext
    decision: Decision
    reward: float
    propensity: Optional[float] = None
    timestamp: Optional[float] = None
    state: Optional[Hashable] = None

    def __post_init__(self) -> None:
        if self.propensity is not None:
            if not (0.0 < self.propensity <= 1.0 + 1e-12):
                raise TraceError(
                    f"propensity must lie in (0, 1], got {self.propensity}"
                )
        if not np.isfinite(self.reward):
            raise TraceError(f"reward must be finite, got {self.reward}")

    def with_reward(self, reward: float) -> "TraceRecord":
        """Copy of this record with a different reward."""
        return TraceRecord(
            context=self.context,
            decision=self.decision,
            reward=reward,
            propensity=self.propensity,
            timestamp=self.timestamp,
            state=self.state,
        )

    def with_propensity(self, propensity: float) -> "TraceRecord":
        """Copy of this record with a different logged propensity."""
        return TraceRecord(
            context=self.context,
            decision=self.decision,
            reward=self.reward,
            propensity=propensity,
            timestamp=self.timestamp,
            state=self.state,
        )

    def with_state(self, state: Hashable) -> "TraceRecord":
        """Copy of this record with a different system-state label."""
        return TraceRecord(
            context=self.context,
            decision=self.decision,
            reward=self.reward,
            propensity=self.propensity,
            timestamp=self.timestamp,
            state=state,
        )


def trusted_record(
    context: ClientContext,
    decision: Decision,
    reward: float,
    propensity: Optional[float],
    timestamp: Optional[float],
    state: Optional[Hashable],
) -> TraceRecord:
    """Build a :class:`TraceRecord` without re-running field validation.

    For callers that validated whole columns already: the shard decoder
    (re-validating every decode would double the read cost and make
    corrupt-on-disk records, the fault-injection and quarantine test
    paths, impossible to *read*; the contracts layer is where corruption
    must surface) and simulators that check rewards and propensities as
    arrays before building their records.
    """
    record = object.__new__(TraceRecord)
    # One dict update, not six frozen-bypassing __setattr__ calls.
    record.__dict__.update(
        context=context,
        decision=decision,
        reward=reward,
        propensity=propensity,
        timestamp=timestamp,
        state=state,
    )
    return record


class TraceColumns:
    """Structure-of-arrays view over a :class:`Trace`.

    Holds one column per record field — rewards, logged propensities (nan
    when absent), timestamps (nan when absent), decisions (plus integer
    codes into a first-seen vocabulary), and contexts (plus codes) — so
    estimators can run as numpy expressions instead of per-record Python
    loops.  Built lazily by :meth:`Trace.columns` (or directly by a
    source that hands them to :meth:`Trace._from_columns`), invalidated
    when the trace grows, and shared (as numpy views) by trace slices.

    The arrays are caches: treat them as read-only.
    """

    __slots__ = (
        "rewards",
        "propensities",
        "timestamps",
        "decisions",
        "contexts",
        "decision_codes",
        "decision_vocabulary",
        "_feature_names",
        "_context_codes",
        "_consumer_caches",
    )

    def __init__(
        self,
        rewards: np.ndarray,
        propensities: np.ndarray,
        timestamps: np.ndarray,
        decisions: Tuple[Decision, ...],
        contexts: Tuple["ClientContext", ...],
        decision_codes: np.ndarray,
        decision_vocabulary: Tuple[Decision, ...],
        feature_names: Optional[Tuple[str, ...]] = None,
        context_codes: Optional[np.ndarray] = None,
    ):
        self.rewards = rewards
        self.propensities = propensities
        self.timestamps = timestamps
        self.decisions = decisions
        self.contexts = contexts
        self.decision_codes = decision_codes
        self.decision_vocabulary = decision_vocabulary
        # A caller that already validated the schema (the shard reader's
        # manifest, a slice of already-validated columns) passes it here
        # so feature_names() skips the per-record scan.
        self._feature_names: Optional[Tuple[str, ...]] = feature_names
        self._context_codes = context_codes
        self._consumer_caches: Dict[Hashable, Any] = {}

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> "TraceColumns":
        """Materialise the columns from a record list (one O(n) pass)."""
        count = len(records)
        rewards = np.empty(count, dtype=float)
        propensities = np.empty(count, dtype=float)
        timestamps = np.empty(count, dtype=float)
        codes = np.empty(count, dtype=np.intp)
        vocabulary: List[Decision] = []
        positions: Dict[Decision, int] = {}
        decisions: List[Decision] = []
        contexts: List[ClientContext] = []
        for index, record in enumerate(records):
            rewards[index] = record.reward
            propensities[index] = (
                np.nan if record.propensity is None else record.propensity
            )
            timestamps[index] = (
                np.nan if record.timestamp is None else record.timestamp
            )
            code = positions.get(record.decision)
            if code is None:
                code = len(vocabulary)
                positions[record.decision] = code
                vocabulary.append(record.decision)
            codes[index] = code
            decisions.append(record.decision)
            contexts.append(record.context)
        return cls(
            rewards,
            propensities,
            timestamps,
            tuple(decisions),
            tuple(contexts),
            codes,
            tuple(vocabulary),
        )

    def __len__(self) -> int:
        return len(self.decisions)

    def sliced(self, index: slice) -> "TraceColumns":
        """Columns for a trace slice; array columns are shared as views."""
        return TraceColumns(
            self.rewards[index],
            self.propensities[index],
            self.timestamps[index],
            self.decisions[index],
            self.contexts[index],
            self.decision_codes[index],
            self.decision_vocabulary,
            feature_names=self._feature_names,
            context_codes=(
                None if self._context_codes is None else self._context_codes[index]
            ),
        )

    def taken(self, indices: np.ndarray) -> "TraceColumns":
        """Columns for a fancy-indexed selection (:meth:`Trace.take`)."""
        return TraceColumns(
            self.rewards[indices],
            self.propensities[indices],
            self.timestamps[indices],
            tuple(self.decisions[int(i)] for i in indices),
            tuple(self.contexts[int(i)] for i in indices),
            self.decision_codes[indices],
            self.decision_vocabulary,
            feature_names=self._feature_names,
            context_codes=(
                None if self._context_codes is None else self._context_codes[indices]
            ),
        )

    def feature_names(self) -> Tuple[str, ...]:
        """Common context schema (validated once, then cached).

        One context per distinct :attr:`context_codes` value is checked,
        in first-seen order, so the first offending context is the one a
        per-record scan would name."""
        if not self.contexts:
            raise TraceError("cannot infer a schema from an empty trace")
        if self._feature_names is None:
            names = self.contexts[0].keys()
            _, firsts = kernels.first_seen_codes(self.context_codes)
            for context in map(self.contexts.__getitem__, firsts.tolist()):
                if context.keys() != names:
                    raise TraceError(
                        "trace records have inconsistent feature schemas: "
                        f"{names} vs {context.keys()}"
                    )
            self._feature_names = names
        return self._feature_names

    @property
    def context_codes(self) -> np.ndarray:
        """``intp`` codes of the distinct context objects, in first-seen
        order: equal codes share one object.  The shard decoder supplies
        them; other columns group by identity on first use.  Slices and
        resamples keep their parent's numbering (not dense, not from 0).
        """
        if self._context_codes is None:
            positions: Dict[int, int] = {}
            self._context_codes = np.fromiter(
                (
                    positions.setdefault(id(context), len(positions))
                    for context in self.contexts
                ),
                dtype=np.intp,
                count=len(self.contexts),
            )
        return self._context_codes

    def distinct_contexts(self) -> Tuple[np.ndarray, np.ndarray]:
        """``kernels.first_seen_codes(self.context_codes)``: each record's
        distinct-context code and each code's first record, computed once
        per columns object."""
        return self.consumer_cache(
            "repro.types.distinct_contexts",
            lambda: kernels.first_seen_codes(self.context_codes),
        )

    def consumer_cache(self, token: Hashable, build: Callable[[], Any]) -> Any:
        """Per-columns memo keyed by an opaque consumer *token*.

        Lets a consumer (a fitted tabular model, a policy) attach a
        derived encoding of these columns — e.g. per-record bucket ids —
        and reuse it across estimates over the same columns object.
        Slices and resamples are new :class:`TraceColumns` instances, so
        their caches start empty; a consumer that refits must use a
        fresh token, because stale entries for its old token would
        otherwise be served verbatim.
        """
        try:
            return self._consumer_caches[token]
        except KeyError:
            value = self._consumer_caches[token] = build()
            return value


class Trace:
    """An ordered collection of :class:`TraceRecord`.

    Order matters: the non-stationary replay estimator (§4.2) consumes the
    trace "in the same sequence as collected".

    A trace holds its records, its :class:`TraceColumns`, or both.  One
    built from records derives its columns on first use; one born from
    columns (:meth:`_from_columns`) derives its records on first use.
    """

    def __init__(self, records: Iterable[TraceRecord] = ()):
        self._records: Optional[List[TraceRecord]] = []
        self._columns: Optional[TraceColumns] = None
        for record in records:
            self.append(record)

    @classmethod
    def _from_records(cls, records: List[TraceRecord]) -> "Trace":
        """Trusted constructor taking ownership of an already-validated
        record list (the shard decoder in :mod:`repro.store`, where the
        per-record ``isinstance`` check of :meth:`append` would be pure
        overhead on the chunked read path)."""
        trace = cls()
        trace._records = records
        return trace

    @classmethod
    def _from_columns(cls, columns: TraceColumns) -> "Trace":
        """Trusted constructor taking ownership of already-validated
        columns from a stateless source (``WiseScenario.generate_trace``).

        ``len``, :meth:`columns` and everything that reads columns run
        without records; iterating, indexing, comparing, appending or
        serialising materialises them once, with ``state=None`` and
        ``None`` for a nan propensity or timestamp.  Slices and
        :meth:`take` of such a trace are column-born too.
        """
        trace = cls()
        trace._records = None
        trace._columns = columns
        return trace

    def _materialized(self) -> List[TraceRecord]:
        if self._records is None:
            columns = self._columns
            self._records = list(
                map(
                    trusted_record,
                    columns.contexts,
                    columns.decisions,
                    columns.rewards.tolist(),
                    _none_if_nan(columns.propensities),
                    _none_if_nan(columns.timestamps),
                    repeat(None),
                )
            )
        return self._records

    # -- container protocol -------------------------------------------------

    def append(self, record: TraceRecord) -> None:
        """Append one record, validating its type."""
        if not isinstance(record, TraceRecord):
            raise TraceError(f"expected TraceRecord, got {type(record).__name__}")
        self._materialized().append(record)
        self._columns = None

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Append all of *records* in order."""
        for record in records:
            self.append(record)

    def __len__(self) -> int:
        if self._records is None:
            return len(self._columns)
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._materialized())

    def __getitem__(self, index):
        if isinstance(index, slice):
            if self._records is None:
                return Trace._from_columns(self._columns.sliced(index))
            sliced = Trace(self._records[index])
            if self._columns is not None:
                sliced._columns = self._columns.sliced(index)
            return sliced
        return self._materialized()[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self._materialized() == other._materialized()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace(n={len(self)})"

    # -- column accessors ----------------------------------------------------

    def columns(self) -> TraceColumns:
        """The columnar (structure-of-arrays) cache for this trace.

        Built on first use (or handed over by :meth:`_from_columns`),
        reused until the trace grows, and shared (as numpy views) with
        slices taken after it is built.  Callers must treat the returned
        arrays as read-only.
        """
        if self._columns is None:
            self._columns = TraceColumns.from_records(self._records)
        return self._columns

    def rewards(self) -> np.ndarray:
        """All rewards as a float array (caller-owned copy)."""
        return self.columns().rewards.copy()

    def propensities(self) -> np.ndarray:
        """All logged propensities (caller-owned copy); missing values
        appear as ``nan``."""
        return self.columns().propensities.copy()

    def decisions(self) -> List[Decision]:
        """All decisions, in trace order."""
        return list(self.columns().decisions)

    def contexts(self) -> List[ClientContext]:
        """All contexts, in trace order."""
        return list(self.columns().contexts)

    def decision_set(self) -> set:
        """The set of distinct decisions observed in the trace."""
        return set(self.columns().decision_vocabulary)

    def feature_names(self) -> Tuple[str, ...]:
        """Feature names of the first record's context.

        Raises :class:`TraceError` on an empty trace, or when records do
        not share a common schema.
        """
        return self.columns().feature_names()

    def has_propensities(self) -> bool:
        """``True`` when every record carries a logged propensity."""
        return not bool(np.isnan(self.columns().propensities).any())

    # -- transformations -----------------------------------------------------

    def filter(self, predicate: Callable[[TraceRecord], bool]) -> "Trace":
        """Records for which *predicate* is true, preserving order."""
        return Trace(record for record in self if predicate(record))

    def map_rewards(self, transform: Callable[[TraceRecord], float]) -> "Trace":
        """A new trace with each reward replaced by ``transform(record)``."""
        return Trace(
            record.with_reward(float(transform(record))) for record in self
        )

    def split(
        self, fraction: float, rng: Optional[np.random.Generator] = None
    ) -> Tuple["Trace", "Trace"]:
        """Split into two traces with ~*fraction* of records in the first.

        With ``rng=None`` the split is a deterministic prefix/suffix split
        (preserving temporal order); with an rng it is a random partition.
        """
        if not 0.0 <= fraction <= 1.0:
            raise TraceError(f"fraction must lie in [0, 1], got {fraction}")
        records = self._materialized()
        count = int(round(fraction * len(records)))
        if rng is None:
            return Trace(records[:count]), Trace(records[count:])
        indices = rng.permutation(len(records))
        chosen = set(int(i) for i in indices[:count])
        first = Trace(r for i, r in enumerate(records) if i in chosen)
        second = Trace(r for i, r in enumerate(records) if i not in chosen)
        return first, second

    def subsample(self, count: int, rng: np.random.Generator) -> "Trace":
        """A bootstrap-style random subsample of *count* records (without
        replacement), preserving trace order."""
        if count > len(self):
            raise TraceError(
                f"cannot subsample {count} records from a trace of {len(self)}"
            )
        indices = sorted(rng.choice(len(self), size=count, replace=False))
        return self.take(indices)

    def take(self, indices: Sequence[int]) -> "Trace":
        """A new trace of the records at *indices* (repeats allowed).

        Column caches carry over by fancy-indexing the parent's columns;
        a selection from a column-born trace is column-born.
        """
        if self._records is None:
            return Trace._from_columns(
                self._columns.taken(np.asarray(indices, dtype=np.intp))
            )
        taken = Trace()
        taken._records = [self._records[int(i)] for i in indices]
        if self._columns is not None:
            taken._columns = self._columns.taken(np.asarray(indices, dtype=np.intp))
        return taken

    def group_by_decision(self) -> Dict[Decision, "Trace"]:
        """Partition the trace by decision."""
        groups: Dict[Decision, List[TraceRecord]] = {}
        for record in self:
            groups.setdefault(record.decision, []).append(record)
        return {decision: Trace(records) for decision, records in groups.items()}

    def mean_reward(self) -> float:
        """Average observed reward (the on-policy value of the old policy)."""
        if not len(self):
            raise TraceError("mean_reward of an empty trace is undefined")
        return float(self.rewards().mean())

    # -- serialisation ---------------------------------------------------------

    def to_shards(self, directory, shard_size: Optional[int] = None):
        """Write this trace as an on-disk sharded trace (see
        :mod:`repro.store`) and return the opened
        :class:`~repro.store.ShardedTrace` reader.

        The sharded copy evaluates bit-identically to this trace through
        every streaming estimator; use it when the trace (or the traces
        it will be concatenated with) outgrows memory.
        """
        # Local import: repro.store depends on this module.
        from repro.store import ShardedTrace, write_shards
        from repro.store.format import DEFAULT_SHARD_SIZE

        write_shards(
            iter(self),
            directory,
            shard_size=DEFAULT_SHARD_SIZE if shard_size is None else shard_size,
        )
        return ShardedTrace(directory)

    def to_jsonl(self, path: str) -> None:
        """Write the trace as one JSON object per line.

        Tuples inside decisions are preserved via a tagged encoding so a
        round-trip through :meth:`from_jsonl` is exact for JSON-friendly
        feature/decision types.
        """
        with open(path, "w", encoding="utf-8") as handle:
            for record in self:
                handle.write(json.dumps(_record_to_json(record)) + "\n")

    @classmethod
    def from_jsonl(cls, path: str) -> "Trace":
        """Read a trace previously written by :meth:`to_jsonl`."""
        records = []
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceError(f"{path}:{line_number}: invalid JSON") from exc
                records.append(_record_from_json(payload, where=f"{path}:{line_number}"))
        return cls(records)

    def to_csv(self, path: str) -> None:
        """Write the trace as CSV with one column per feature.

        CSV is lossy (all values become strings; composite decisions are
        JSON-encoded); prefer JSONL for exact round-trips.
        """
        names = self.feature_names() if len(self) else ()
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["decision", "reward", "propensity", "timestamp", "state", *names]
            )
            for record in self:
                writer.writerow(
                    [
                        json.dumps(_encode_value(record.decision)),
                        repr(record.reward),
                        "" if record.propensity is None else repr(record.propensity),
                        "" if record.timestamp is None else repr(record.timestamp),
                        "" if record.state is None else json.dumps(_encode_value(record.state)),
                        *[json.dumps(_encode_value(record.context[name])) for name in names],
                    ]
                )

    @classmethod
    def from_csv(cls, path: str) -> "Trace":
        """Read a trace previously written by :meth:`to_csv`."""
        records = []
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                return cls()
            fixed = ["decision", "reward", "propensity", "timestamp", "state"]
            if header[: len(fixed)] != fixed:
                raise TraceError(f"{path}: unexpected CSV header {header!r}")
            names = header[len(fixed):]
            for row in reader:
                decision = _decode_value(json.loads(row[0]))
                reward = float(row[1])
                propensity = float(row[2]) if row[2] else None
                timestamp = float(row[3]) if row[3] else None
                state = _decode_value(json.loads(row[4])) if row[4] else None
                features = {
                    name: _decode_value(json.loads(value))
                    for name, value in zip(names, row[len(fixed):])
                }
                records.append(
                    TraceRecord(
                        context=ClientContext(features),
                        decision=decision,
                        reward=reward,
                        propensity=propensity,
                        timestamp=timestamp,
                        state=state,
                    )
                )
        return cls(records)


def _none_if_nan(column: np.ndarray) -> List[Optional[float]]:
    """A float column as a list, ``None`` where it holds nan."""
    return [None if value != value else value for value in column.tolist()]


def _encode_value(value: Any) -> Any:
    """JSON-encode *value*, tagging tuples so they survive a round-trip."""
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(item) for item in value]}
    return value


def _decode_value(value: Any) -> Any:
    """Inverse of :func:`_encode_value`."""
    if isinstance(value, dict) and set(value.keys()) == {"__tuple__"}:
        return tuple(_decode_value(item) for item in value["__tuple__"])
    return value


def _record_to_json(record: TraceRecord) -> Dict[str, Any]:
    return {
        "context": {k: _encode_value(v) for k, v in record.context.features.items()},
        "decision": _encode_value(record.decision),
        "reward": record.reward,
        "propensity": record.propensity,
        "timestamp": record.timestamp,
        "state": _encode_value(record.state) if record.state is not None else None,
    }


def _record_from_json(payload: Dict[str, Any], where: str) -> TraceRecord:
    try:
        context = ClientContext(
            {k: _decode_value(v) for k, v in payload["context"].items()}
        )
        return TraceRecord(
            context=context,
            decision=_decode_value(payload["decision"]),
            reward=float(payload["reward"]),
            propensity=payload.get("propensity"),
            timestamp=payload.get("timestamp"),
            state=_decode_value(payload["state"]) if payload.get("state") is not None else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"{where}: malformed trace record: {exc}") from exc
