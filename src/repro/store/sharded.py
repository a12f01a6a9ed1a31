"""``ShardedTrace`` — a Trace-compatible reader over an on-disk shard dir.

The reader never holds more than a few shards' worth of decoded columns
in memory (a small LRU, ``cache_shards``), and record objects are
materialised only on the escape hatches that genuinely need them.  That
is the whole point of the format: the estimators' streaming path (see
:mod:`repro.store.streaming`) consumes :meth:`ShardedTrace.iter_chunks`
and keeps peak memory at ``O(cached shards + per-record float columns)``
instead of ``O(n)`` Python record objects.

Decoding a shard builds a ready :class:`~repro.core.types.TraceColumns`
straight from the stored arrays — the same struct-of-arrays the dense
path computes from its record list — with repeated contexts *interned*
(one :class:`~repro.core.types.ClientContext` per distinct feature row
per shard).  Chunks are then zero-copy column slices
(:class:`ShardChunk`), so the streaming estimators pay for numpy views
and arithmetic, not per-record object construction.

Compatibility contract: any code written against
:class:`~repro.core.types.Trace` duck-types against this class —
``len``, iteration, integer/slice indexing, ``take``, ``columns()``,
``feature_names()``, ``has_propensities()``, ``mean_reward()`` all
behave identically.  The escape hatches that require the **whole** trace
as Python objects (``columns()``, ``contexts()``, slicing with a step)
work by materialising and are documented as such — use them for
moderate traces, and the chunked path for the ones that motivated the
format.
"""

from __future__ import annotations

import io
import json
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.types import ClientContext, Trace, TraceColumns, TraceRecord
from repro.errors import (
    ShardCorruptionError,
    ShardTruncatedError,
    StoreError,
    TraceError,
)
from repro.obs.spans import increment, span
from repro.store.format import (
    _decode_feature_column,
    _decode_value,
    _decoded_context_builder,
    load_manifest,
    trusted_record,
)
from repro.store.integrity import (
    QuarantinedShard,
    ShardQuarantineReport,
    check_shard_bytes,
    classify_decode_failure,
    read_shard_with_retry,
)

#: Default ``iter_chunks`` bound: large enough to amortise the batched
#: estimator calls, small enough that a chunk's transient record objects
#: stay far below the shard cache in the memory profile.
DEFAULT_CHUNK_RECORDS = 65_536

#: Degradation policies for corrupt shards (see :class:`ShardedTrace`).
CORRUPTION_POLICIES = ("raise", "quarantine")


class _ShardColumns:
    """One shard, decoded: ready-made columns plus the state labels
    (which :class:`~repro.core.types.TraceColumns` does not carry and
    record materialisation still needs)."""

    __slots__ = ("columns", "states")

    def __init__(self, columns: TraceColumns, states: List[Any]):
        self.columns = columns
        self.states = states


class _ShardStore:
    """Loads and caches decoded shards for one manifest directory.

    Every shard read goes through the integrity choke point
    (:func:`~repro.store.integrity.read_shard_with_retry` →
    :func:`~repro.store.integrity.check_shard_bytes` → decode from the
    already-read bytes), so checksum verification and decoding share a
    single read and every failure is classified.  Failures are *sticky*:
    a shard that classified as corrupt once re-raises the same error
    without re-reading, and under ``on_corruption="quarantine"`` the
    chunked path records it in a :class:`ShardQuarantineReport` and
    skips it instead of raising.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        cache_shards: int = 2,
        on_corruption: str = "raise",
        retry=None,
    ):
        if cache_shards < 1:
            raise StoreError(f"cache_shards must be at least 1, got {cache_shards}")
        if on_corruption not in CORRUPTION_POLICIES:
            raise StoreError(
                f"on_corruption must be one of {CORRUPTION_POLICIES}, "
                f"got {on_corruption!r}"
            )
        self.directory = Path(directory)
        # Under the quarantine policy a missing shard file is a read-time
        # degradation, not an open-time failure, so the existence scan is
        # deferred to the classified per-shard read.
        self.manifest = load_manifest(
            self.directory, check_files=(on_corruption == "raise")
        )
        self.feature_names: Tuple[str, ...] = tuple(
            sorted(self.manifest["schema"]["features"])
        )
        self.counts: List[int] = [
            shard["records"] for shard in self.manifest["shards"]
        ]
        self.offsets: List[int] = [0]
        for count in self.counts:
            self.offsets.append(self.offsets[-1] + count)
        self.total: int = self.manifest["total_records"]
        self.on_corruption = on_corruption
        self.retry = retry
        self.quarantined: Dict[int, QuarantinedShard] = {}
        self._failures: Dict[int, ShardCorruptionError] = {}
        self._cache_shards = cache_shards
        self._cache: "OrderedDict[int, _ShardColumns]" = OrderedDict()

    def __getstate__(self) -> Dict[str, Any]:
        # Decoded shards never cross a pickle/fork boundary: a worker
        # re-reads what it needs, so shipping a ShardedTrace to a process
        # pool costs one manifest, not gigabytes of columns.
        state = self.__dict__.copy()
        state["_cache"] = OrderedDict()
        return state

    def quarantine_report(self) -> ShardQuarantineReport:
        """The quarantine accounting accumulated by degraded reads so far."""
        return ShardQuarantineReport(
            shards=tuple(
                self.quarantined[index] for index in sorted(self.quarantined)
            ),
            total_shards=len(self.counts),
            total_records=self.total,
        )

    def shard(self, index: int) -> _ShardColumns:
        """The decoded columns of shard *index* (LRU-cached).

        Raises the classified :class:`~repro.errors.ShardCorruptionError`
        on any integrity failure, regardless of policy — degradation is
        the chunked path's job (see :meth:`try_shard`); random access and
        whole-view gathers must never silently shrink.
        """
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        failure = self._failures.get(index)
        if failure is not None:
            raise failure
        try:
            columns = self._load_shard(index)
        except ShardCorruptionError as exc:
            self._failures[index] = exc
            raise
        self._cache[index] = columns
        while len(self._cache) > self._cache_shards:
            self._cache.popitem(last=False)
        return columns

    def try_shard(self, index: int) -> Optional[_ShardColumns]:
        """:meth:`shard`, degraded per policy.

        Under ``on_corruption="quarantine"`` a corrupt shard is recorded
        in the quarantine report (with obs metrics) and ``None`` is
        returned so the chunked path can continue on the survivors;
        under ``"raise"`` this is exactly :meth:`shard`.
        """
        try:
            return self.shard(index)
        except ShardCorruptionError as exc:
            if self.on_corruption != "quarantine":
                raise
            if index not in self.quarantined:
                records = int(self.counts[index])
                self.quarantined[index] = QuarantinedShard(
                    index=index,
                    file=str(self.manifest["shards"][index]["file"]),
                    records=records,
                    reason=exc.kind,
                    detail=str(exc),
                )
                increment("ope.store.quarantine.shards")
                increment("ope.store.quarantine.records", records)
            return None

    def _load_shard(self, index: int) -> _ShardColumns:
        """Read, verify, and decode one shard (no cache, no policy)."""
        entry = self.manifest["shards"][index]
        path = self.directory / entry["file"]
        with span("store.load.shard", shard=index):
            raw = read_shard_with_retry(path, retry=self.retry, seed=index)
            check_shard_bytes(path, raw, entry)
            try:
                with np.load(io.BytesIO(raw), allow_pickle=False) as data:
                    rewards = data["rewards"]
                    propensities = data["propensities"]
                    timestamps = data["timestamps"]
                    decision_codes = data["decision_codes"]
                    decision_vocab = str(data["decision_vocab"][()])
                    state_codes = data["state_codes"]
                    state_vocab = str(data["state_vocab"][()])
                    raw_features = []
                    for position, kind in enumerate(entry["feature_kinds"]):
                        array = data[f"feature_{position}"]
                        vocab = None
                        if kind == "coded":
                            vocab = str(data[f"feature_{position}_vocab"][()])
                        raw_features.append((kind, array, vocab))
            except ShardCorruptionError:
                raise
            except Exception as exc:
                raise classify_decode_failure(path, exc) from exc
        count = entry["records"]
        lengths = {len(rewards), len(propensities), len(timestamps),
                   len(decision_codes), len(state_codes)}
        lengths.update(len(array) for _, array, _ in raw_features)
        if lengths != {count}:
            raise ShardTruncatedError(
                f"{path}: array lengths {sorted(lengths)} disagree with the "
                f"manifest's {count} records; the shard is corrupt",
                shard=str(path),
            )
        try:
            vocabulary = tuple(
                _decode_value(value) for value in json.loads(decision_vocab)
            )
            decisions = tuple(vocabulary[int(code)] for code in decision_codes)
            state_vocabulary = [
                _decode_value(value) for value in json.loads(state_vocab)
            ]
            states: List[Any] = [
                None if code < 0 else state_vocabulary[code]
                for code in state_codes.tolist()
            ]
            features = [
                _decode_feature_column(kind, array, vocab)
                for kind, array, vocab in raw_features
            ]
        except Exception as exc:
            # A shard whose bytes match its manifest can still carry a bad
            # vocab blob or out-of-range code if something other than
            # encode_shard wrote it: corruption, not a crash.
            raise classify_decode_failure(path, exc) from exc
        return _ShardColumns(
            TraceColumns(
                rewards,
                propensities,
                timestamps,
                decisions,
                self._interned_contexts(features, count),
                decision_codes.astype(np.intp, copy=False),
                vocabulary,
                feature_names=self.feature_names,
            ),
            states,
        )

    def _interned_contexts(
        self, features: List[List[Any]], count: int
    ) -> Tuple[ClientContext, ...]:
        """One context object per record, shared across equal feature rows.

        Contexts are value objects (frozen, hashed by their items), so
        records with equal feature rows can share one instance; on the
        low-cardinality categorical workloads this format targets, that
        collapses the dominant decode cost — per-record object
        construction — to one build per distinct row per shard.  The
        intern table dies with the decode, so arbitrary-cardinality
        traces pay at most one transient dict per shard.
        """
        build_context = _decoded_context_builder(self.feature_names)
        if not features:
            return (build_context(()),) * count
        interned: Dict[Tuple[Any, ...], ClientContext] = {}
        contexts: List[ClientContext] = []
        append = contexts.append
        for row in zip(*features):
            # Key by (type, value) pairs: True/1/1.0 hash equal but must
            # not share a context (same rule as the writer's encoder).
            key = tuple((value.__class__, value) for value in row)
            context = interned.get(key)
            if context is None:
                context = build_context(row)
                interned[key] = context
            append(context)
        return tuple(contexts)

    def shard_range(self, start: int, stop: int) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(shard_index, lo, hi)`` spans covering ``[start, stop)``
        in record order, with ``lo``/``hi`` local to the shard."""
        for index, count in enumerate(self.counts):
            shard_start = self.offsets[index]
            shard_stop = shard_start + count
            if shard_stop <= start:
                continue
            if shard_start >= stop:
                break
            yield index, max(start - shard_start, 0), min(stop - shard_start, count)

    def decode_records(self, index: int, lo: int, hi: int) -> List[TraceRecord]:
        """Materialise the records of one shard span as Python objects.

        Contexts come interned from the decoded shard columns; only the
        record shells are built here (and only on paths that genuinely
        need records — the streaming estimators never call this).
        """
        shard = self.shard(index)
        columns = shard.columns
        rewards = columns.rewards[lo:hi].tolist()
        propensities = columns.propensities[lo:hi].tolist()
        timestamps = columns.timestamps[lo:hi].tolist()
        decisions = columns.decisions[lo:hi]
        contexts = columns.contexts[lo:hi]
        states = shard.states[lo:hi]
        records: List[TraceRecord] = []
        append = records.append
        for position in range(hi - lo):
            propensity = propensities[position]
            timestamp = timestamps[position]
            append(
                trusted_record(
                    contexts[position],
                    decisions[position],
                    rewards[position],
                    None if propensity != propensity else propensity,
                    None if timestamp != timestamp else timestamp,
                    states[position],
                )
            )
        return records


class ShardChunk:
    """One :meth:`ShardedTrace.iter_chunks` window, columns first.

    Duck-types the read-only subset of the :class:`~repro.core.types.Trace`
    API the estimation stack touches — ``len``, :meth:`columns`,
    :meth:`feature_names`, :meth:`has_propensities`, iteration, integer
    indexing.  :meth:`columns` is a zero-copy slice of the decoded shard
    cache, so the streaming hot path (contracts, batched policy/model
    calls, estimator arithmetic) runs entirely on numpy views; record
    objects materialise lazily, only if the chunk is actually iterated
    (quarantine scans, estimated-propensity models).
    """

    __slots__ = ("_store", "_shard_index", "_lo", "_hi", "_columns", "_records")

    def __init__(self, store: _ShardStore, shard_index: int, lo: int, hi: int):
        self._store = store
        self._shard_index = shard_index
        self._lo = lo
        self._hi = hi
        self._columns: Optional[TraceColumns] = None
        self._records: Optional[List[TraceRecord]] = None

    def __len__(self) -> int:
        return self._hi - self._lo

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardChunk(n={len(self)}, shard={self._shard_index})"

    def columns(self) -> TraceColumns:
        """This window's columns (views over the decoded shard)."""
        if self._columns is None:
            shard = self._store.shard(self._shard_index)
            self._columns = shard.columns.sliced(slice(self._lo, self._hi))
        return self._columns

    def feature_names(self) -> Tuple[str, ...]:
        """The shared feature schema (from the manifest)."""
        return self._store.feature_names

    def has_propensities(self) -> bool:
        """``True`` when every record in the window has a propensity."""
        return not bool(np.isnan(self.columns().propensities).any())

    def _materialized(self) -> List[TraceRecord]:
        if self._records is None:
            self._records = self._store.decode_records(
                self._shard_index, self._lo, self._hi
            )
        return self._records

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._materialized())

    def __getitem__(self, index):
        return self._materialized()[index]


class ShardedTrace:
    """Lazy, Trace-compatible reader over a shard directory.

    Parameters
    ----------
    directory:
        A directory previously produced by :class:`~repro.store.ShardWriter`
        (``Trace.to_shards``, ``write_shards``, ``repro shard``).
    chunk_records:
        Default chunk bound for :meth:`iter_chunks` — and therefore for
        the streaming estimators, which consume this trace through it.
    cache_shards:
        How many decoded shards the LRU keeps; peak reader memory is
        roughly ``cache_shards × shard_size`` decoded column entries.
    on_corruption:
        Degradation policy for classified shard corruption.  ``"raise"``
        (the default) propagates the
        :class:`~repro.errors.ShardCorruptionError` — strict mode, no
        estimate from a damaged store.  ``"quarantine"`` lets the
        *chunked* path (:meth:`iter_chunks`, and therefore the streaming
        estimators) skip permanently-bad shards, recording each in a
        :class:`~repro.store.integrity.ShardQuarantineReport`
        (:meth:`quarantine_report`) with ``ope.store.quarantine.*`` obs
        metrics — the loss is surfaced, never silent.  Random access and
        whole-view gathers (``trace[i]``, :meth:`rewards`, :meth:`take`)
        still raise under either policy: they cannot shrink their answer.
    retry:
        Optional :class:`~repro.runtime.retry.RetryPolicy` for transient
        I/O faults — each shard read retries ``OSError`` with the
        policy's deterministic backoff (seeded by shard index) before
        the failure is classified as permanent.

    Slicing with step 1 returns another (lazy) :class:`ShardedTrace`
    view over the same store; any other step materialises via
    :meth:`take`.  Equality, ``map_rewards`` and friends are deliberately
    not implemented — transformations belong on in-memory traces.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        cache_shards: int = 2,
        on_corruption: str = "raise",
        retry=None,
    ):
        if chunk_records <= 0:
            raise StoreError(
                f"chunk_records must be positive, got {chunk_records}"
            )
        self._store = _ShardStore(
            directory,
            cache_shards=cache_shards,
            on_corruption=on_corruption,
            retry=retry,
        )
        self._start = 0
        self._stop = self._store.total
        self._chunk_records = int(chunk_records)

    @classmethod
    def _view(cls, store: _ShardStore, start: int, stop: int, chunk_records: int):
        view = object.__new__(cls)
        view._store = store
        view._start = start
        view._stop = stop
        view._chunk_records = chunk_records
        return view

    # -- identity ------------------------------------------------------------

    @property
    def directory(self) -> Path:
        """The shard directory this reader serves."""
        return self._store.directory

    @property
    def manifest(self) -> Dict[str, Any]:
        """The validated manifest (see :mod:`repro.store.format`)."""
        return self._store.manifest

    @property
    def chunk_records(self) -> int:
        """Default :meth:`iter_chunks` bound used by streaming estimation."""
        return self._chunk_records

    @property
    def on_corruption(self) -> str:
        """This reader's degradation policy (``"raise"`` or ``"quarantine"``)."""
        return self._store.on_corruption

    def quarantine_report(self) -> ShardQuarantineReport:
        """Quarantine accounting accumulated by degraded reads so far.

        Shared across views of the same store (quarantine is sticky per
        reader, not per view): the report covers every shard the store
        has classified as permanently bad since it was opened.
        """
        return self._store.quarantine_report()

    def quarantined_records(self) -> int:
        """How many records of *this view* fall in quarantined shards.

        This is the sample loss a degraded :meth:`iter_chunks` pass over
        the view silently skipped — the number streaming estimation must
        reconcile against ``len(self)`` so a shorter stream is always
        either fully accounted or an error.
        """
        lost = 0
        for index, lo, hi in self._store.shard_range(self._start, self._stop):
            if index in self._store.quarantined:
                lost += hi - lo
        return lost

    def rechunked(self, chunk_records: int) -> "ShardedTrace":
        """The same trace with a different default chunk bound."""
        if chunk_records <= 0:
            raise StoreError(
                f"chunk_records must be positive, got {chunk_records}"
            )
        return type(self)._view(
            self._store, self._start, self._stop, int(chunk_records)
        )

    def __len__(self) -> int:
        return self._stop - self._start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedTrace(n={len(self)}, dir={str(self._store.directory)!r})"
        )

    # -- chunked access (the streaming path) ----------------------------------

    def iter_chunks(self, max_records: Optional[int] = None) -> Iterator[ShardChunk]:
        """Yield the trace as :class:`ShardChunk` windows, in order.

        Each chunk holds at most *max_records* records (default: this
        reader's ``chunk_records``) and never spans a shard boundary, so
        one decoded shard at a time suffices.  Chunks expose the
        Trace-compatible read API — estimators' batched calls run on
        zero-copy column slices, and contracts/quarantine that iterate
        records materialise them lazily per chunk.

        Each shard is loaded (and integrity-checked) *before* its chunks
        are yielded; under ``on_corruption="quarantine"`` a corrupt
        shard is recorded and skipped here, so consumers only ever see
        chunks that decode — account for the loss with
        :meth:`quarantined_records`.
        """
        bound = self._chunk_records if max_records is None else int(max_records)
        if bound <= 0:
            raise StoreError(f"max_records must be positive, got {bound}")
        for index, lo, hi in self._store.shard_range(self._start, self._stop):
            if self._store.try_shard(index) is None:
                continue
            for chunk_lo in range(lo, hi, bound):
                yield ShardChunk(
                    self._store, index, chunk_lo, min(chunk_lo + bound, hi)
                )

    def plan_chunks(
        self, max_records: Optional[int] = None
    ) -> List[Tuple[int, int, int]]:
        """The ``(shard_index, lo, hi)`` spans :meth:`iter_chunks` would
        yield, computed from the manifest alone — no shard is decoded.

        This is how the parallel streaming engine partitions work before
        forking: the parent plans spans and absolute cursors up front,
        and each worker decodes only the shards its spans touch.  Valid
        for ``on_corruption="raise"`` readers, where :meth:`iter_chunks`
        either yields exactly these spans or raises; a quarantining
        reader may skip spans this plan includes, which is why the
        parallel path refuses such readers.
        """
        bound = self._chunk_records if max_records is None else int(max_records)
        if bound <= 0:
            raise StoreError(f"max_records must be positive, got {bound}")
        spans: List[Tuple[int, int, int]] = []
        for index, lo, hi in self._store.shard_range(self._start, self._stop):
            for chunk_lo in range(lo, hi, bound):
                spans.append((index, chunk_lo, min(chunk_lo + bound, hi)))
        return spans

    def __iter__(self) -> Iterator[TraceRecord]:
        for chunk in self.iter_chunks():
            yield from chunk

    # -- random access ---------------------------------------------------------

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                return type(self)._view(
                    self._store,
                    self._start + start,
                    self._start + stop,
                    self._chunk_records,
                )
            return self.take(range(start, stop, step))
        position = int(index)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError(f"record {index} out of range for {self!r}")
        absolute = self._start + position
        for shard_index, lo, hi in self._store.shard_range(absolute, absolute + 1):
            return self._store.decode_records(shard_index, lo, hi)[0]
        raise StoreError(f"record {absolute} not covered by any shard")

    def take(self, indices: Sequence[int]) -> Trace:
        """Materialise the records at *indices* as an in-memory trace.

        Mirrors :meth:`Trace.take` (repeats allowed, order preserved);
        this is the bridge to the dense path — e.g. evaluating a
        1M-record subsample of a 10M-record sharded trace both ways to
        assert bit-identity.
        """
        positions = [int(i) for i in indices]
        for position in positions:
            if not 0 <= position < len(self):
                raise TraceError(
                    f"take index {position} out of range for {self!r}"
                )
        # Decode shard by shard in index order, then reassemble, so a
        # sorted or clustered index list touches each shard once.
        decoded: Dict[int, TraceRecord] = {}
        for position in sorted(set(positions)):
            absolute = self._start + position
            for shard_index, lo, hi in self._store.shard_range(
                absolute, absolute + 1
            ):
                decoded[position] = self._store.decode_records(
                    shard_index, lo, hi
                )[0]
        return Trace._from_records([decoded[position] for position in positions])

    def subsample(self, count: int, rng: np.random.Generator) -> Trace:
        """A random subsample of *count* records (without replacement),
        preserving trace order — same contract as :meth:`Trace.subsample`."""
        if count > len(self):
            raise TraceError(
                f"cannot subsample {count} records from a trace of {len(self)}"
            )
        indices = sorted(rng.choice(len(self), size=count, replace=False))
        return self.take(indices)

    # -- Trace-compatible metadata ------------------------------------------------

    def feature_names(self) -> Tuple[str, ...]:
        """The shared feature schema (from the manifest; the writer
        enforces schema consistency, so no scan is needed)."""
        return self._store.feature_names

    def has_propensities(self) -> bool:
        """``True`` when every record in view carries a logged propensity.

        Fully-covered shards are answered from the manifest's propensity
        summaries; partially-covered boundary shards are checked from
        their decoded column.
        """
        for index, lo, hi in self._store.shard_range(self._start, self._stop):
            entry = self._store.manifest["shards"][index]
            if lo == 0 and hi == entry["records"]:
                if entry["propensities"]["count"] != entry["records"]:
                    return False
                continue
            values = self._store.shard(index).columns.propensities[lo:hi]
            if bool(np.isnan(values).any()):
                return False
        return True

    def rewards(self) -> np.ndarray:
        """All rewards as one float array (gathered shard by shard)."""
        out = np.empty(len(self), dtype=np.float64)
        cursor = 0
        for index, lo, hi in self._store.shard_range(self._start, self._stop):
            out[cursor : cursor + hi - lo] = self._store.shard(index).columns.rewards[
                lo:hi
            ]
            cursor += hi - lo
        return out

    def propensities(self) -> np.ndarray:
        """All logged propensities (``nan`` where missing)."""
        out = np.empty(len(self), dtype=np.float64)
        cursor = 0
        for index, lo, hi in self._store.shard_range(self._start, self._stop):
            out[cursor : cursor + hi - lo] = self._store.shard(
                index
            ).columns.propensities[lo:hi]
            cursor += hi - lo
        return out

    def decisions(self) -> List[Any]:
        """All decisions, in trace order."""
        out: List[Any] = []
        for index, lo, hi in self._store.shard_range(self._start, self._stop):
            out.extend(self._store.shard(index).columns.decisions[lo:hi])
        return out

    def decision_set(self) -> set:
        """The set of distinct decisions observed in the view."""
        return set(self.decisions())

    def mean_reward(self) -> float:
        """Average observed reward, identical to the dense computation
        (one gathered column, one :func:`numpy.mean`)."""
        if len(self) == 0:
            raise TraceError("mean_reward of an empty trace is undefined")
        return float(self.rewards().mean())

    # -- materialising escape hatches ---------------------------------------------

    def materialize(self) -> Trace:
        """The whole view as an in-memory :class:`Trace`.

        This is the explicit O(n)-objects escape hatch; everything above
        stays chunked.  Intended for moderate views (slices, debugging,
        compat with APIs that genuinely need a dense trace).
        """
        records: List[TraceRecord] = []
        for index, lo, hi in self._store.shard_range(self._start, self._stop):
            records.extend(self._store.decode_records(index, lo, hi))
        return Trace._from_records(records)

    def columns(self) -> TraceColumns:
        """Dense :class:`TraceColumns` over the whole view (materialises).

        Provided for Trace compatibility only: no estimation or
        diagnostics path calls it.  :meth:`~repro.core.estimators.base.OffPolicyEstimator.estimate`
        and :func:`~repro.core.diagnostics.overlap_report` read anything
        with ``iter_chunks`` chunk by chunk instead.
        """
        return self.materialize().columns()

    def contexts(self) -> List[Any]:
        """All contexts, in trace order (interned per shard)."""
        out: List[Any] = []
        for index, lo, hi in self._store.shard_range(self._start, self._stop):
            out.extend(self._store.shard(index).columns.contexts[lo:hi])
        return out


def is_streaming_trace(trace: Any) -> bool:
    """Whether *trace* should take the chunked estimation path.

    True for any non-:class:`Trace` object exposing ``iter_chunks`` —
    i.e. :class:`ShardedTrace` and views, plus third-party readers that
    adopt the same protocol.
    """
    return not isinstance(trace, Trace) and hasattr(trace, "iter_chunks")
