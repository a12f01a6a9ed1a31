"""Columnar stream chunks: the zero-object record batches of the live tier.

The offline storage tier reaches >1M records/s only because a
:class:`~repro.store.sharded.ShardChunk` never materialises per-record
Python objects on the IPS/SNIPS hot path — ``check_trace_columns`` and
the estimator ``_stream_chunk`` hooks touch numpy arrays plus two lazy
sequences (decisions, contexts).  The live tier needs the same property
for records that were *never on disk*: a traffic generator emitting a
million records a second cannot afford a million ``TraceRecord``
objects a second.

:class:`StreamBatch` is that in-memory twin: one chunk of the live
stream held as numpy columns (rewards, propensities, timestamps, integer
context/decision codes) plus *shared* vocabularies of interned
:class:`~repro.core.types.ClientContext` cells and decisions.  Its
``columns()`` builds a real :class:`~repro.core.types.TraceColumns`
whose decision/context sequences are :class:`CodedSequence` views —
lazy, code-addressable sequences that vectorised consumers (the
:class:`~repro.live.policies.GridPolicy` fast path) recognise and index
by code, while any other consumer can still iterate or index them and
receive ordinary interned objects, bit-identically.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.types import ClientContext, Decision, TraceColumns, TraceRecord
from repro.errors import SimulationError


class CodedSequence(Sequence):
    """An immutable sequence stored as integer codes into a vocabulary.

    Behaves exactly like the tuple ``tuple(vocabulary[c] for c in
    codes)`` — same length, same elements, same iteration order — but
    holds only the code array plus the (shared, interned) vocabulary, so
    a 65k-record chunk costs one intp array instead of 65k object
    references, and a vectorised consumer can read :attr:`codes`
    directly instead of hashing objects per record.

    Consumers that want the fast path must verify vocabulary *identity*
    (``seq.vocabulary is my_vocabulary``) before trusting the codes;
    value-level equality of distinct vocabularies is not checked.
    """

    __slots__ = ("codes", "vocabulary", "_materialized")

    def __init__(self, codes: np.ndarray, vocabulary: Tuple[object, ...]):
        self.codes = codes
        self.vocabulary = vocabulary
        self._materialized: Optional[List[object]] = None

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def _materialize(self) -> List[object]:
        if self._materialized is None:
            table = np.empty(len(self.vocabulary), dtype=object)
            for index, value in enumerate(self.vocabulary):
                table[index] = value
            self._materialized = np.take(table, self.codes).tolist()
        return self._materialized

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CodedSequence(self.codes[index], self.vocabulary)
        return self.vocabulary[int(self.codes[index])]

    def __iter__(self) -> Iterator[object]:
        return iter(self._materialize())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CodedSequence):
            if other.vocabulary is self.vocabulary:
                return bool(np.array_equal(other.codes, self.codes))
            return self._materialize() == other._materialize()
        if isinstance(other, (tuple, list)):
            return self._materialize() == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._materialize()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CodedSequence(n={len(self)}, vocabulary={len(self.vocabulary)})"


class StreamBatch:
    """One chunk of a live record stream, held column-wise.

    Satisfies the chunk contract of the streaming engine — ``len()``,
    ``columns()``, ``has_propensities()``, integer indexing (used only on
    contract-error paths), ``__iter__`` — without ever holding
    per-record objects unless a consumer explicitly asks for them.

    Parameters
    ----------
    context_codes, decision_codes:
        Integer codes (intp) into the shared vocabularies.
    rewards, propensities, timestamps:
        Per-record float64 columns (``timestamps`` may be nan).
    contexts_vocabulary:
        Tuple of interned :class:`ClientContext`, one per context cell.
        **Shared across batches** of the same stream, so fast-path
        consumers can check identity once per vocabulary, not per batch.
    decisions_vocabulary:
        Tuple of decisions in decision-space order.
    feature_names:
        The (already validated) shared context schema.
    states:
        Optional per-record state labels (numpy object array or None),
        carried through to captured records.
    """

    __slots__ = (
        "context_codes",
        "decision_codes",
        "rewards",
        "propensities",
        "timestamps",
        "contexts_vocabulary",
        "decisions_vocabulary",
        "feature_names",
        "states",
        "_columns",
    )

    def __init__(
        self,
        context_codes: np.ndarray,
        decision_codes: np.ndarray,
        rewards: np.ndarray,
        propensities: np.ndarray,
        timestamps: np.ndarray,
        contexts_vocabulary: Tuple[ClientContext, ...],
        decisions_vocabulary: Tuple[Decision, ...],
        feature_names: Tuple[str, ...],
        states: Optional[np.ndarray] = None,
    ):
        size = context_codes.shape[0]
        for name, column in (
            ("decision_codes", decision_codes),
            ("rewards", rewards),
            ("propensities", propensities),
            ("timestamps", timestamps),
        ):
            if column.shape != (size,):
                raise SimulationError(
                    f"StreamBatch column {name} has shape {column.shape}, "
                    f"expected ({size},)"
                )
        self.context_codes = context_codes
        self.decision_codes = decision_codes
        self.rewards = rewards
        self.propensities = propensities
        self.timestamps = timestamps
        self.contexts_vocabulary = contexts_vocabulary
        self.decisions_vocabulary = decisions_vocabulary
        self.feature_names = feature_names
        self.states = states
        self._columns: Optional[TraceColumns] = None

    def __len__(self) -> int:
        return int(self.context_codes.shape[0])

    def columns(self) -> TraceColumns:
        """The chunk as :class:`TraceColumns` (cached).

        Decision/context sequences are :class:`CodedSequence` views over
        the shared vocabularies; the float columns are the batch's own
        arrays (callers treat them as read-only, per the TraceColumns
        contract).
        """
        if self._columns is None:
            self._columns = TraceColumns(
                self.rewards,
                self.propensities,
                self.timestamps,
                CodedSequence(self.decision_codes, self.decisions_vocabulary),
                CodedSequence(self.context_codes, self.contexts_vocabulary),
                self.decision_codes,
                self.decisions_vocabulary,
                feature_names=self.feature_names,
                context_codes=self.context_codes,
            )
        return self._columns

    def has_propensities(self) -> bool:
        """Live batches always carry their logging propensities."""
        return True

    def __getitem__(self, index: int) -> TraceRecord:
        # Contract-error paths only (validate_positive_batch names the
        # first offending record); the hot path never materialises.
        return self._record(int(index))

    def _record(self, index: int) -> TraceRecord:
        timestamp = float(self.timestamps[index])
        return TraceRecord(
            context=self.contexts_vocabulary[int(self.context_codes[index])],
            decision=self.decisions_vocabulary[int(self.decision_codes[index])],
            reward=float(self.rewards[index]),
            propensity=float(self.propensities[index]),
            timestamp=None if np.isnan(timestamp) else timestamp,
            state=None if self.states is None else self.states[index],
        )

    def iter_records(self) -> Iterator[TraceRecord]:
        """Materialise the batch as :class:`TraceRecord` objects.

        The slow path, for tests and consumers that want records (capture
        reads the columns); the records are exactly what a per-record
        generator would have produced for the same draws.
        """
        for index in range(len(self)):
            yield self._record(index)

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.iter_records()
