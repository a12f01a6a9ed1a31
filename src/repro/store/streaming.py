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
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.contracts import check_trace_columns, reconcile_shortfall
from repro.core.estimators.base import EstimateResult
from repro.core.policy import Policy
from repro.core.propensity import (
    PropensityModel,
    PropensitySource,
    resolve_propensity_source,
)
from repro.errors import EstimatorError, StoreError
from repro.obs.spans import increment, observe, recording, span
from repro.runtime.pool import _block_partition, _effective_workers, _fork_available

#: Environment override for the default stream worker count, honoured
#: whenever ``stream_estimate`` is reached without an explicit
#: ``workers=`` (i.e. through ``estimator.estimate(...)``).
STREAM_WORKERS_VAR = "REPRO_STREAM_WORKERS"


class ColumnGather:
    """Per-record estimator columns, placed at absolute record cursors.

    The one validation-and-placement implementation behind every
    streaming engine: the sequential loop and the fork workers of
    :func:`stream_estimate` (buffers preallocated to ``len(trace)``) and
    :class:`repro.live.incremental.IncrementalEstimator` (buffers that
    start at its ``INITIAL_CAPACITY`` and double).  :meth:`add` runs the
    vectorised trace contracts with absolute offsets, scores the chunk
    through ``_stream_chunk``, checks that the columns exist, hold one
    entry per record and keep the first chunk's column set, and writes
    them at the chunk's cursor.  :meth:`finalize` reduces a prefix once.

    With ``shared=True`` every buffer is an anonymous shared mapping.  A
    pool forked after the first :meth:`add` inherits the mappings, so
    its workers write their disjoint spans straight into the parent's
    arrays: no segment name to unlink, nothing to copy back.
    """

    def __init__(self, estimator, capacity: int, shared: bool = False):
        self._estimator = estimator
        self._capacity = capacity
        self._shared = shared
        #: Gathered column buffers (empty until the first chunk).
        self.buffers: Dict[str, np.ndarray] = {}
        #: One past the highest record written so far.
        self.length = 0

    def _allocate(self, size: int, dtype: np.dtype) -> np.ndarray:
        if not self._shared:
            return np.empty(size, dtype=dtype)
        # An anonymous mapping cannot be empty; count= keeps the view exact.
        mapping = mmap.mmap(-1, max(1, size * dtype.itemsize))
        return np.frombuffer(mapping, dtype=dtype, count=size)

    def _reserve(self, end: int, arrays: Dict[str, np.ndarray]) -> None:
        if not self.buffers:
            self._capacity = max(self._capacity, end)
            self.buffers = {
                key: self._allocate(self._capacity, array.dtype)
                for key, array in arrays.items()
            }
            return
        if end <= self._capacity:
            return
        capacity = max(self._capacity, 1)
        while capacity < end:
            capacity *= 2
        for key, buffer in self.buffers.items():
            grown = self._allocate(capacity, buffer.dtype)
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


# Worker context for the parallel streaming pool, inherited over fork
# exactly like the harness's (the estimator carries a fitted model the
# task queue could not cheaply pickle, and the gather carries the shared
# buffers): (gather, policy, source, store, plan, cursors).
_STREAM_CONTEXT: Optional[Tuple] = None


def _stream_block(positions: List[int]) -> List[int]:
    """Gather one contiguous block of planned chunks in a pool worker.

    The columns land in the fork-inherited shared buffers; only the
    chunk sizes travel back, for the parent's in-order telemetry replay.
    """
    from repro.store.sharded import ShardChunk

    gather, policy, source, store, plan, cursors = _STREAM_CONTEXT
    return [
        gather.add(
            policy, ShardChunk(store, *plan[position]), source, cursors[position]
        )
        for position in positions
    ]


def _parallel_stream(
    estimator,
    new_policy: Policy,
    trace,
    source: Optional[PropensitySource],
    workers: int,
) -> EstimateResult:
    """Fan the planned chunk spans over a fork pool, gather, finalize.

    Bit-identity holds by the same argument as the sequential engine:
    chunk spans, absolute cursors, and therefore every gathered float64
    entry are identical — only *which process* computes each span
    changes.  Chunk telemetry (``store.chunk.records``,
    ``ope.stream.chunks``) is re-emitted by the parent in chunk order,
    so recorded telemetry is also identical to a sequential pass.
    """
    global _STREAM_CONTEXT
    from repro.store.sharded import ShardChunk

    n = len(trace)
    plan = trace.plan_chunks()
    cursors: List[int] = []
    total = 0
    for _, lo, hi in plan:
        cursors.append(total)
        total += hi - lo
    if total != n:  # pragma: no cover - manifest/len invariant
        raise StoreError(
            f"planned chunk spans cover {total} records of a trace "
            f"reporting len() == {n}; the shard directory is corrupt"
        )
    estimator._stream_setup(new_policy, trace)

    # The first chunk runs in the parent: it fixes the column set and
    # dtypes of the shared buffers, which must exist before the pool
    # forks for workers to inherit the mappings.
    gather = ColumnGather(estimator, n, shared=True)
    first = gather.add(new_policy, ShardChunk(trace._store, *plan[0]), source, 0)
    observe("store.chunk.records", float(first))
    increment("ope.stream.chunks")

    pending = list(range(1, len(plan)))
    effective = _effective_workers(workers, len(pending))
    blocks = _block_partition(pending, effective)
    _STREAM_CONTEXT = (gather, new_policy, source, trace._store, plan, cursors)
    try:
        with ProcessPoolExecutor(
            max_workers=effective,
            mp_context=multiprocessing.get_context("fork"),
        ) as pool:
            # Results arrive in block order (= chunk order), so per-chunk
            # telemetry replays the sequential emission sequence exactly.
            for sizes in pool.map(_stream_block, blocks):
                if recording():
                    increment(
                        "harness.pool.ipc.bytes", float(len(pickle.dumps(sizes)))
                    )
                for size in sizes:
                    observe("store.chunk.records", float(size))
                    increment("ope.stream.chunks")
    finally:
        _STREAM_CONTEXT = None
    return gather.finalize(n)


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
    the dense path (see the module docstring for why).

    Degraded reads: a trace opened with ``on_corruption="quarantine"``
    may legitimately stream fewer records than ``len(trace)`` — its
    ``iter_chunks`` skips shards it classified as corrupt.  The engine
    reconciles the shortfall against the trace's own quarantine
    accounting (``quarantined_records()``): an *accounted* shortfall
    finalizes on the surviving records and surfaces the loss in
    ``result.diagnostics["store_quarantine"]``; an *unaccounted* one is
    still a hard :class:`~repro.errors.StoreError`.  A silently shorter
    stream can therefore never change an estimate undetected.

    Parallelism: with ``workers > 1`` (or ``REPRO_STREAM_WORKERS`` set,
    for calls routed through ``estimate()``), chunk spans are planned
    from the manifest and fanned over a fork-based worker pool — see
    :func:`_parallel_stream`.  The parent allocates the
    :class:`ColumnGather` buffers as anonymous shared mappings before
    forking; workers inherit them and write their disjoint spans in
    place, so only chunk sizes cross the result pipe and the result is
    bit-identical to the sequential engine.  The parallel path requires
    the ``fork`` start method, a trace exposing ``plan_chunks``, and
    ``on_corruption == "raise"`` (a quarantining reader may stream fewer
    spans than planned); anything else silently degrades to the
    sequential engine below.

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
    n = len(trace)
    source: Optional[PropensitySource] = None
    if estimator.requires_propensities:
        source = resolve_propensity_source(
            trace, old_policy, propensity_model, floor=propensity_floor
        )
    resolved_workers = _resolve_workers(workers)
    if (
        resolved_workers > 1
        and n > 0
        and _fork_available()
        and hasattr(trace, "plan_chunks")
        and getattr(trace, "on_corruption", None) == "raise"
        and len(trace.plan_chunks()) > 1
    ):
        with span("ope.stream", estimator=estimator.name):
            return _parallel_stream(
                estimator, new_policy, trace, source, resolved_workers
            )
    with span("ope.stream", estimator=estimator.name):
        estimator._stream_setup(new_policy, trace)
        gather = ColumnGather(estimator, n)
        for chunk in trace.iter_chunks():
            size = gather.add(new_policy, chunk, source)
            observe("store.chunk.records", float(size))
            increment("ope.stream.chunks")
        skipped = reconcile_shortfall(trace, gather.length)
        result = gather.finalize(gather.length)
        if skipped:
            report = trace.quarantine_report()
            result.diagnostics["store_quarantine"] = report.to_json()
        return result
