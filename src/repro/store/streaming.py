"""Streaming off-policy estimation over chunked traces.

:func:`stream_estimate` is the out-of-core twin of the dense
``OffPolicyEstimator._estimate`` path, reached automatically from
``estimate()`` whenever the trace exposes ``iter_chunks`` (i.e. a
:class:`repro.store.ShardedTrace` or any reader adopting its protocol).

Bit-identity with the dense path is by construction, not by tolerance:

1. Each estimator's ``_stream_chunk`` produces **per-record columns**
   (importance weights, DM terms, residuals, contributions, ...) that
   are pure elementwise functions of the record — so computing them for
   chunk ``[a, b)`` yields exactly the float64 entries ``a..b`` of the
   dense arrays.
2. A :class:`ColumnGather` places those columns, at their absolute
   record cursors, into preallocated full-length buffers.
3. ``_stream_finalize`` runs every cross-record reduction (means, weight
   sums, the self-normalisation denominators of SNIPS/SNDR, clipping
   statistics) on the assembled buffers — the *same code*, on the *same
   arrays*, as the dense path, which is the whole-trace special case of
   this decomposition (one chunk at offset 0).

A naive scalar-accumulator design (``numerator += (w*r).sum()`` per
chunk) would *not* have this property: float addition is not
associative, so a chunk size of 1 and a chunk size of n would disagree
in the last ulp.  Gathering record-granularity sufficient statistics
and reducing once keeps the equivalence exact for every chunking — the
pinned guarantee of ``tests/store/test_stream_equivalence.py``.

One pass per panel: a :class:`PanelPass` reads each chunk once for a
panel of estimators plus the overlap diagnostics' columns.  Sharing
keeps bit-identity because the shared work is the same work, done
once: members sharing a reward model fit it once (the first setup
fits, the rest find it fitted), and within a chunk every member asks
the new policy and the propensity source the same batch questions
about the same column objects, answered on the first ask.

Memory: the gathered columns cost a few float64 arrays of length n
(~80 MB per column at 10M records) — the savings over the dense path
come from never holding the 10M Python record/context objects, which
dominate real-trace memory by an order of magnitude.

Contracts run per chunk, vectorized over the chunk's columns
(:func:`~repro.core.contracts.check_trace_columns`, same errors with
absolute record indices); the propensity source is resolved once, up
front, against the sharded trace's manifest-backed
``has_propensities()``.
"""

from __future__ import annotations

import mmap
import os
import pickle
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.core.contracts import check_trace_columns, reconcile_shortfall
from repro.core.diagnostics import overlap_columns
from repro.core.estimators.base import EstimateResult, OffPolicyEstimator
from repro.core.policy import Policy
from repro.core.propensity import (
    PropensityModel,
    PropensitySource,
    resolve_propensity_source,
)
from repro.core.types import TraceColumns
from repro.errors import EstimatorError, StoreError
from repro.obs.spans import increment, observe, span
from repro.runtime.pool import _block_partition, _effective_workers, _fork_available
from repro.runtime.pool import fork_blocks

#: Environment override for the default stream worker count, honoured
#: whenever ``stream_estimate`` is reached without an explicit
#: ``workers=`` (i.e. through ``estimator.estimate(...)``).
STREAM_WORKERS_VAR = "REPRO_STREAM_WORKERS"


def _allocate(size: int, dtype, shared: bool) -> np.ndarray:
    """An uninitialised array; with *shared*, an anonymous shared mapping
    that children forked afterwards write into in place."""
    dtype = np.dtype(dtype)
    if not shared:
        return np.empty(size, dtype=dtype)
    # An anonymous mapping cannot be empty; count= keeps the view exact.
    mapping = mmap.mmap(-1, max(1, size * dtype.itemsize))
    return np.frombuffer(mapping, dtype=dtype, count=size)


class ColumnGather:
    """Per-record estimator columns, placed at absolute record cursors.

    The one validation-and-placement implementation behind every
    streaming engine: the sequential loop and the fork workers of
    :class:`PanelPass` (buffers preallocated to ``len(trace)``) and
    :class:`repro.live.incremental.IncrementalEstimator` (buffers that
    start at its ``INITIAL_CAPACITY`` and double).  :meth:`add` runs the
    vectorised trace contracts with absolute offsets, scores the chunk
    through ``_stream_chunk``, checks that the columns exist, hold one
    entry per record and keep the first chunk's column set, and writes
    them at the chunk's cursor.  :meth:`finalize` reduces a prefix once.

    With ``shared=True`` every buffer is an anonymous shared mapping.
    Children forked after the first :meth:`add` inherit the mappings, so
    they write their disjoint spans straight into the parent's arrays:
    no segment name to unlink, nothing to copy back.
    """

    def __init__(self, estimator, capacity: int, shared: bool = False):
        self._estimator = estimator
        self._capacity = capacity
        self._shared = shared
        #: Gathered column buffers (empty until the first chunk).
        self.buffers: Dict[str, np.ndarray] = {}
        #: One past the highest record written so far.
        self.length = 0

    def _reserve(self, end: int, arrays: Dict[str, np.ndarray]) -> None:
        if not self.buffers:
            self._capacity = max(self._capacity, end)
            self.buffers = {
                key: _allocate(self._capacity, array.dtype, self._shared)
                for key, array in arrays.items()
            }
            return
        if end <= self._capacity:
            return
        capacity = max(self._capacity, 1)
        while capacity < end:
            capacity *= 2
        for key, buffer in self.buffers.items():
            grown = _allocate(capacity, buffer.dtype, self._shared)
            grown[: self.length] = buffer[: self.length]
            self.buffers[key] = grown
        self._capacity = capacity

    def add(
        self,
        policy: Policy,
        chunk,
        source: Optional[PropensitySource],
        cursor: Optional[int] = None,
    ) -> int:
        """Validate, score and place *chunk* at *cursor* (default: the end).

        Returns the chunk's record count.
        """
        estimator = self._estimator
        if cursor is None:
            cursor = self.length
        size = len(chunk)
        check_trace_columns(
            chunk.columns(),
            where=f"{estimator.name} input trace",
            offset=cursor,
        )
        columns = estimator._stream_chunk(policy, chunk, source, cursor)
        if not columns:
            raise EstimatorError(
                f"{estimator.name}._stream_chunk returned no columns"
            )
        arrays: Dict[str, np.ndarray] = {}
        for key, value in columns.items():
            array = np.asarray(value)
            if array.shape != (size,):
                raise EstimatorError(
                    f"{estimator.name}._stream_chunk column {key!r} has "
                    f"shape {array.shape}, expected ({size},)"
                )
            arrays[key] = array
        if self.buffers and set(arrays) != set(self.buffers):
            raise EstimatorError(
                f"{estimator.name}._stream_chunk changed its column set "
                f"mid-stream: {sorted(self.buffers)} vs {sorted(arrays)}"
            )
        end = cursor + size
        self._reserve(end, arrays)
        for key, array in arrays.items():
            self.buffers[key][cursor:end] = array
        self.length = max(self.length, end)
        return size

    def finalize(self, length: int) -> EstimateResult:
        """Run ``_stream_finalize`` once over the first *length* records.

        A *length* short of the gathered extent is quarantine
        truncation: the surviving prefix holds exactly the dense-path
        entries of the surviving records.
        """
        if not self.buffers or length == 0:
            raise EstimatorError("cannot estimate from an empty trace")
        columns = {key: buffer[:length] for key, buffer in self.buffers.items()}
        return self._estimator._stream_finalize(columns, length)


def _resolve_workers(workers: Optional[int]) -> int:
    """Explicit ``workers=`` wins; else the env override; else 1."""
    if workers is None:
        raw = os.environ.get(STREAM_WORKERS_VAR, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise EstimatorError(
                f"{STREAM_WORKERS_VAR}={raw!r} is not an integer"
            ) from None
    value = int(workers)
    if value < 1:
        raise EstimatorError(f"stream workers must be at least 1, got {value}")
    return value


def _shared(answers: Dict, function, *arguments):
    """``function(*arguments)``, computed on the first ask with these
    argument objects and handed to every later ask read-only."""
    key = (function.__name__,) + tuple(id(argument) for argument in arguments)
    if key not in answers:
        value = function(*arguments)
        if isinstance(value, np.ndarray):
            value = value.view()
            value.flags.writeable = False
        # The arguments stay referenced so their ids cannot be reused.
        answers[key] = (arguments, value)
    return answers[key][1]


class _ChunkPolicy(Policy):
    """The new policy, answering each batch call about one chunk once.

    A batch call about the chunk's own columns asks the wrapped policy
    about each distinct context (or (decision, context) pair) once, in
    first-seen order, and gathers the answers per record.  Every
    :class:`Policy` is stationary, so a record's answer depends on its
    context alone, and the first context that raises is the first
    record's that would.
    """

    def __init__(self, policy: Policy, columns: TraceColumns):
        super().__init__(policy.space)
        self._policy = policy
        self._columns = columns  # keeps the ids below valid
        self._codes = {
            id(columns.contexts): columns.context_codes,
            id(columns.decisions): columns.decision_codes,
        }
        self._answers: Dict = {}

    def probabilities(self, context):
        return self._policy.probabilities(context)

    def propensity(self, decision, context):
        return self._policy.propensity(decision, context)

    def propensity_batch(self, decisions, contexts):
        return _shared(self._answers, self._pairs, decisions, contexts)

    def probability_matrix(self, contexts):
        return _shared(self._answers, self._rows, contexts)

    def _pairs(self, decisions, contexts):
        return self._distinct(self._policy.propensity_batch, decisions, contexts)

    def _rows(self, contexts):
        return self._distinct(self._policy.probability_matrix, contexts)

    def _distinct(self, call, *sequences):
        """``call(*sequences)`` asked once per distinct row; sequences
        other than the chunk's own go to *call* unchanged."""
        if not all(id(sequence) in self._codes for sequence in sequences):
            return call(*sequences)
        codes, firsts = kernels.first_seen_codes(
            *(self._codes[id(sequence)] for sequence in sequences)
        )
        rows = firsts.tolist()
        return np.asarray(call(*([s[row] for row in rows] for s in sequences)))[codes]

    def greedy_decision_batch(self, contexts):
        if type(self._policy).greedy_decision_batch is not Policy.greedy_decision_batch:
            return self._policy.greedy_decision_batch(contexts)
        # The inherited scan over the shared matrix is the policy's own.
        return super().greedy_decision_batch(contexts)


class _ChunkSource(PropensitySource):
    """A propensity source answering each chunk's batch once."""

    def __init__(self, source: PropensitySource):
        self._source = source
        self._answers: Dict = {}

    def propensity(self, record, index):
        return self._source.propensity(record, index)

    def propensity_batch(self, trace):
        return _shared(self._answers, self._source.propensity_batch, trace)


#: The pass the innermost ``with PanelPass(...)`` opened, if any.
_ACTIVE: ContextVar[Optional["PanelPass"]] = ContextVar("panel_pass", default=None)

#: Tally key of the overlap columns (members are keyed by index).
_OVERLAP = "overlap"


@dataclass
class _Tally:
    """What scoring a run of chunks found: the sizes of the chunks
    scored, each key's first failure, and the overlap counts."""

    sizes: List[int] = field(default_factory=list)
    failures: Dict[object, EstimatorError] = field(default_factory=dict)
    matches: int = 0
    coverage: Counter = field(default_factory=Counter)

    def merge(self, later: "_Tally") -> None:
        for key, failure in later.failures.items():
            self.failures.setdefault(key, failure)
        self.matches += later.matches
        self.coverage.update(later.coverage)
        for size in later.sizes:
            observe("store.chunk.records", float(size))
            increment("ope.stream.chunks")


# Context of the parallel stream's blocks, inherited over fork (estimators
# carry fitted models a pipe could not cheaply pickle, and the gathers
# carry the shared buffers): (pass, store, plan, cursors).
_STREAM_CONTEXT: Optional[Tuple] = None


def _stream_block(positions: List[int]) -> bytes:
    """Score one contiguous block of planned chunks, in the caller or a
    forked child.

    Columns land in the shared buffers; the block's tally travels back
    pickled here, so the pool counts a child's bytes without pickling
    them again.
    """
    from repro.store.sharded import ShardChunk

    panel, store, plan, cursors = _STREAM_CONTEXT
    tally = _Tally()
    for position in positions:
        panel._score(ShardChunk(store, *plan[position]), cursors[position], tally)
    return pickle.dumps(tally)


def _forks(trace, workers: int) -> bool:
    """Whether a pass over *trace* forks for *workers*.  A pass asked to
    fork that cannot counts why as ``ope.stream.sequential.<reason>``."""
    if workers < 2:
        return False
    # The caller scores the first planned chunk before it forks.
    rest = len(trace.plan_chunks()) - 1 if hasattr(trace, "plan_chunks") else 0
    for reason, applies in (
        ("no-fork", not _fork_available()),
        ("quarantine", getattr(trace, "on_corruption", None) != "raise"),
        ("one-chunk", rest < 2),
        ("one-cpu", _effective_workers(workers, rest) < 2),
    ):
        if applies:
            increment(f"ope.stream.sequential.{reason}")
            return False
    return True


class PanelPass:
    """One read and one fit for a panel of estimators, forked at most once.

    Inside ``with PanelPass(...):`` the pass answers every
    :func:`stream_estimate` call for one of its *estimators* and, with
    ``overlap=True``, every :func:`stream_overlap` call, on the same
    trace, policy and propensity arguments.  The first call streams the
    trace once for all of them; members finalize on request.

    Failures stay per member, as if each had streamed alone: an
    :class:`~repro.errors.EstimatorError` from the propensity source,
    the worker count, a member's setup, contracts, ``_stream_chunk`` or
    ``_stream_finalize`` is raised to that member's call only (and an
    overlap failure to the overlap call); the others keep streaming.
    Any other exception aborts the pass.
    """

    def __init__(
        self,
        new_policy: Policy,
        trace,
        estimators: Iterable = (),
        *,
        old_policy: Optional[Policy] = None,
        propensity_model: Optional[PropensityModel] = None,
        propensity_floor: Optional[float] = None,
        overlap: bool = False,
        workers: Optional[int] = None,
    ):
        self.key = (new_policy, trace, old_policy, propensity_model)
        self.policy, self.trace = new_policy, trace
        # Other estimators (a history adapter, say) stream on their own.
        self.members = [e for e in estimators if isinstance(e, OffPolicyEstimator)]
        # The overlap columns take no floor: a floored pass leaves them out.
        self.floor, self.workers = propensity_floor, workers
        self.overlap = overlap and propensity_floor is None
        self._keys = [*range(len(self.members)), *([_OVERLAP] if self.overlap else [])]
        self._tally: Optional[_Tally] = None
        self._results: Dict[int, EstimateResult] = {}

    def __enter__(self) -> "PanelPass":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _ACTIVE.reset(self._token)

    @staticmethod
    def active(
        new_policy, trace, old_policy, propensity_model
    ) -> Optional["PanelPass"]:
        """The entered pass over exactly these arguments, if any."""
        panel = _ACTIVE.get()
        key = (new_policy, trace, old_policy, propensity_model)
        if panel is not None and all(a is b for a, b in zip(panel.key, key)):
            return panel
        return None

    def estimate(self, estimator) -> EstimateResult:
        """*estimator*'s result, bit-identical to streaming it alone."""
        index = next(i for i, member in enumerate(self.members) if member is estimator)
        failures = self._run().failures
        if index not in failures and index not in self._results:
            try:
                result = self._gathers[index].finalize(self._length)
            except EstimatorError as failure:
                failures[index] = failure
            else:
                if self._quarantined:
                    report = self.trace.quarantine_report()
                    result.diagnostics["store_quarantine"] = report.to_json()
                self._results[index] = result
        if index in failures:
            raise failures[index]
        return self._results[index]

    def overlap_columns(self) -> Tuple[np.ndarray, np.ndarray, int, Counter]:
        """The overlap report's gathered ``(old, new, matches, coverage)``."""
        tally = self._run()
        if _OVERLAP in tally.failures:
            raise tally.failures[_OVERLAP]
        n = self._length
        return self._old[:n], self._new[:n], tally.matches, tally.coverage

    def _live(self, step: Optional[_Tally] = None) -> List:
        """The keys no failure has stopped yet."""
        stopped = {*self._tally.failures, *(step.failures if step else ())}
        return [key for key in self._keys if key not in stopped]

    def _score(self, chunk, cursor: int, step: _Tally) -> None:
        """Score *chunk* for every live key, noting failures in *step*."""
        policy = _ChunkPolicy(self.policy, chunk.columns())
        source = self._source and _ChunkSource(self._source)
        for key in self._live(step):
            try:
                if key == _OVERLAP:
                    columns = overlap_columns(policy, chunk, source, cursor)
                else:
                    member = self.members[key]
                    given = source if member.requires_propensities else None
                    self._gathers[key].add(policy, chunk, given, cursor)
                    continue
            except EstimatorError as failure:
                step.failures[key] = failure
                continue
            old, new, matches, coverage = columns
            self._old[cursor : cursor + len(chunk)] = old
            self._new[cursor : cursor + len(chunk)] = new
            step.matches += matches
            step.coverage.update(coverage)
        if self._live(step):
            step.sizes.append(len(chunk))

    def _run(self) -> _Tally:
        if self._tally is None:
            self._tally = _Tally()
            try:
                names = ",".join(member.name for member in self.members)
                with span("ope.stream", estimator=names or _OVERLAP):
                    self._stream(self._tally.failures)
            except BaseException:
                self._tally = None
                raise
        return self._tally

    def _stream(self, failures: Dict) -> None:
        trace, n = self.trace, len(self.trace)
        self._source = None
        wanting = [i for i, m in enumerate(self.members) if m.requires_propensities]
        wanting += [_OVERLAP] if self.overlap else []
        try:
            if wanting:
                self._source = resolve_propensity_source(
                    trace, *self.key[2:], floor=self.floor
                )
        except EstimatorError as failure:
            failures.update(dict.fromkeys(wanting, failure))
        try:
            workers = _resolve_workers(self.workers)
        except EstimatorError as failure:
            for index in range(len(self.members)):
                failures.setdefault(index, failure)
            workers = 1
        parallel = _forks(trace, workers)
        self._gathers = [ColumnGather(m, n, shared=parallel) for m in self.members]
        if self.overlap:
            self._old = _allocate(n, float, parallel)
            self._new = _allocate(n, float, parallel)
        for index in self._live():
            try:
                if index != _OVERLAP:
                    self.members[index]._stream_setup(self.policy, trace)
            except EstimatorError as failure:
                failures[index] = failure
        self._length, self._quarantined = 0, 0
        if not self._live():
            return
        if parallel:
            return self._stream_parallel(workers)
        for chunk in trace.iter_chunks():
            step = _Tally()
            self._score(chunk, self._length, step)
            self._tally.merge(step)
            self._length += len(chunk)
            if not self._live():
                return
        self._quarantined = reconcile_shortfall(trace, self._length)

    def _stream_parallel(self, workers: int) -> None:
        """Fan the planned chunk spans over the caller and forked children.

        Bit-identity holds by the same argument as the sequential loop:
        chunk spans, absolute cursors, and therefore every gathered
        float64 entry are identical — only *which process* computes each
        span changes.  The parent scores chunk 0, which fixes each
        gather's column set and allocates its shared buffers, before it
        forks; it then scores the first block of the chunks after it
        (the larger, if uneven: a child starts a fork later) while the
        children score theirs.  Block tallies merge in chunk order, so
        first failures and the replayed chunk telemetry
        (``store.chunk.records``, ``ope.stream.chunks``) match the
        sequential loop.
        """
        global _STREAM_CONTEXT
        from repro.store.sharded import ShardChunk

        plan, cursors = self.trace.plan_chunks(), []
        for _, lo, hi in plan:
            cursors.append(self._length)
            self._length += hi - lo
        if self._length != len(self.trace):  # pragma: no cover - manifest/len invariant
            raise StoreError(
                f"planned chunk spans cover {self._length} records of a trace "
                f"reporting len() == {len(self.trace)}; the shard directory is corrupt"
            )
        store, first = self.trace._store, _Tally()
        self._score(ShardChunk(store, *plan[0]), 0, first)
        self._tally.merge(first)
        if not self._live():
            return
        rest = range(1, len(plan))
        blocks = _block_partition(rest, _effective_workers(workers, len(rest)))
        _STREAM_CONTEXT = (self, store, plan, cursors)
        try:
            for payload in fork_blocks(_stream_block, blocks):
                self._tally.merge(pickle.loads(payload))
        finally:
            _STREAM_CONTEXT = None


def stream_estimate(
    estimator,
    new_policy: Policy,
    trace,
    old_policy: Optional[Policy] = None,
    propensity_model: Optional[PropensityModel] = None,
    propensity_floor: Optional[float] = None,
    workers: Optional[int] = None,
) -> EstimateResult:
    """Evaluate *estimator* over a chunked *trace* in bounded memory.

    Normally reached via ``estimator.estimate(policy, sharded_trace)``
    — the base class dispatches here for any trace with ``iter_chunks``.
    The result is bit-identical to materialising the trace and running
    the dense path (see the module docstring for why).  An entered
    :class:`PanelPass` with *estimator* among its members answers from
    its shared read; otherwise *estimator* streams as a one-member pass.

    Degraded reads: a trace opened with ``on_corruption="quarantine"``
    may stream fewer records than ``len(trace)``, skipping shards it
    classified as corrupt.  A shortfall its ``quarantined_records()``
    accounts for finalizes on the surviving records and surfaces the
    loss in ``result.diagnostics["store_quarantine"]``; an unaccounted
    one is a hard :class:`~repro.errors.StoreError`.

    Parallelism: with ``workers > 1`` (or ``REPRO_STREAM_WORKERS`` set,
    for calls routed through ``estimate()``), the manifest's planned
    chunk spans fan over the caller and forked children writing into
    shared buffers (see :meth:`PanelPass._stream_parallel`).  Otherwise
    it streams in one process and counts why as
    ``ope.stream.sequential.<reason>``: ``no-fork``, ``quarantine``
    (``on_corruption`` is not ``"raise"``), ``one-chunk`` (at most one
    chunk after the first) or ``one-cpu``.

    Raises
    ------
    EstimatorError
        If the estimator does not implement the streaming hooks, or any
        estimator contract fails (no overlap, bad weights, ...).
    StoreError
        If the reader yields a different number of records than
        ``len(trace)`` claims, beyond what its quarantine report
        accounts for — a corrupt or racing shard directory; or when
        every shard was quarantined and no records survive.
    """
    panel = PanelPass.active(new_policy, trace, old_policy, propensity_model)
    members = panel.members if panel is not None else ()
    if not any(m is estimator for m in members) or panel.floor != propensity_floor:
        panel = PanelPass(
            new_policy,
            trace,
            [estimator],
            old_policy=old_policy,
            propensity_model=propensity_model,
            propensity_floor=propensity_floor,
            workers=workers,
        )
    return panel.estimate(estimator)


def stream_overlap(
    new_policy: Policy,
    trace,
    old_policy: Optional[Policy] = None,
    propensity_model: Optional[PropensityModel] = None,
) -> Tuple[np.ndarray, np.ndarray, int, Counter]:
    """The overlap report's columns over a chunked *trace*: from the
    entered :class:`PanelPass` when it covers this call, else from a
    member-less pass of their own."""
    panel = PanelPass.active(new_policy, trace, old_policy, propensity_model)
    if panel is None or not panel.overlap:
        panel = PanelPass(
            new_policy,
            trace,
            old_policy=old_policy,
            propensity_model=propensity_model,
            overlap=True,
        )
    return panel.overlap_columns()
