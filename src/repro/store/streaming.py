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
2. The engine gathers those columns, in trace order, into preallocated
   full-length buffers.
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

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Dict, List, Optional, Tuple

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
from repro.store.shm import SharedColumnBuffers, shared_memory_available

#: Environment override for the default stream worker count, honoured
#: whenever ``stream_estimate`` is reached without an explicit
#: ``workers=`` (i.e. through ``estimator.estimate(...)``).
STREAM_WORKERS_VAR = "REPRO_STREAM_WORKERS"

#: Valid ``transport=`` values ("auto" is spelled ``None``).
TRANSPORTS = ("shm", "pickle")


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


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


def _effective_workers(workers: int, tasks: int) -> int:
    """Cap the pool at this process's CPU affinity (see harness)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, min(workers, tasks, cpus))


def _validated_columns(
    estimator, columns: Optional[Dict[str, Any]], size: int
) -> Dict[str, np.ndarray]:
    """Shape-check one ``_stream_chunk`` result (same errors everywhere)."""
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
    return arrays


# Worker context for the parallel streaming pool, inherited over fork
# exactly like the harness's (the estimator carries a fitted model the
# task queue could not cheaply pickle):
# (estimator, policy, source, store, plan, cursors, shared buffer views
# or None, expected column keys).
_STREAM_CONTEXT: Optional[Tuple] = None


def _stream_block(
    positions: List[int],
) -> List[Tuple[int, int, Optional[Dict[str, np.ndarray]]]]:
    """Process one contiguous block of planned chunks in a pool worker.

    Returns ``(position, size, columns-or-None)`` per chunk: ``None``
    when the columns were written in place into the fork-inherited
    shared-memory buffers, the arrays themselves under pickle transport.
    """
    from repro.store.sharded import ShardChunk

    estimator, policy, source, store, plan, cursors, buffers, expected = (
        _STREAM_CONTEXT
    )
    results: List[Tuple[int, int, Optional[Dict[str, np.ndarray]]]] = []
    for position in positions:
        shard_index, lo, hi = plan[position]
        chunk = ShardChunk(store, shard_index, lo, hi)
        size = len(chunk)
        cursor = cursors[position]
        check_trace_columns(
            chunk.columns(),
            where=f"{estimator.name} input trace",
            offset=cursor,
        )
        columns = estimator._stream_chunk(policy, chunk, source, cursor)
        arrays = _validated_columns(estimator, columns, size)
        if set(arrays) != expected:
            raise EstimatorError(
                f"{estimator.name}._stream_chunk changed its column set "
                f"mid-stream: {sorted(expected)} vs {sorted(arrays)}"
            )
        if buffers is None:
            results.append((position, size, arrays))
        else:
            for key, array in arrays.items():
                buffers[key][cursor : cursor + size] = array
            results.append((position, size, None))
    return results


def _parallel_stream(
    estimator,
    new_policy: Policy,
    trace,
    source: Optional[PropensitySource],
    workers: int,
    transport: Optional[str],
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
    # dtypes the gather buffers need, and those must exist before the
    # pool forks for workers to inherit the mappings.
    first = ShardChunk(trace._store, *plan[0])
    check_trace_columns(
        first.columns(), where=f"{estimator.name} input trace", offset=0
    )
    first_arrays = _validated_columns(
        estimator,
        estimator._stream_chunk(new_policy, first, source, 0),
        len(first),
    )
    expected = set(first_arrays)

    use_shm = transport != "pickle" and shared_memory_available()
    shared: Optional[SharedColumnBuffers] = None
    if use_shm:
        try:
            shared = SharedColumnBuffers(
                {key: array.dtype for key, array in first_arrays.items()}, n
            )
        except Exception:  # noqa: REP006 - shm allocation failure degrades to private gather buffers + pickle transport
            shared = None
            use_shm = False
    if shared is not None:
        buffers: Dict[str, np.ndarray] = shared.views
    else:
        buffers = {
            key: np.empty(n, dtype=array.dtype)
            for key, array in first_arrays.items()
        }
    for key, array in first_arrays.items():
        buffers[key][: len(first)] = array
    observe("store.chunk.records", float(len(first)))
    increment("ope.stream.chunks")

    pending = list(range(1, len(plan)))
    effective = _effective_workers(workers, len(pending))
    blocks: List[List[int]] = []
    base, extra = divmod(len(pending), effective)
    start = 0
    for index in range(effective):
        size = base + (1 if index < extra else 0)
        if size:
            blocks.append(pending[start : start + size])
            start += size

    _STREAM_CONTEXT = (
        estimator,
        new_policy,
        source,
        trace._store,
        plan,
        cursors,
        shared.views if shared is not None else None,
        expected,
    )
    done: Dict[int, List[Tuple[int, int, Optional[Dict[str, np.ndarray]]]]] = {}
    next_block = 0
    try:
        with ProcessPoolExecutor(
            max_workers=effective,
            mp_context=multiprocessing.get_context("fork"),
        ) as pool:
            futures = {
                pool.submit(_stream_block, block): index
                for index, block in enumerate(blocks)
            }
            try:
                for future in as_completed(futures):
                    index = futures[future]
                    block_results = future.result()
                    if recording():
                        increment(
                            "harness.pool.ipc.bytes",
                            float(len(pickle.dumps(block_results))),
                        )
                    done[index] = block_results
                    # Drain in block order (= chunk order): pickle-
                    # transport columns land at their absolute cursors
                    # and per-chunk telemetry replays the sequential
                    # emission sequence exactly.
                    while next_block < len(blocks) and next_block in done:
                        for position, size, arrays in done.pop(next_block):
                            if arrays is not None:
                                cursor = cursors[position]
                                for key, array in arrays.items():
                                    buffers[key][cursor : cursor + size] = array
                            observe("store.chunk.records", float(size))
                            increment("ope.stream.chunks")
                        next_block += 1
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
    finally:
        _STREAM_CONTEXT = None
    if shared is not None:
        # Private copies so the result never aliases segments whose
        # mappings die with this process.
        buffers = {key: np.array(view) for key, view in buffers.items()}
        shared.close()
    return estimator._stream_finalize(buffers, n)


def stream_estimate(
    estimator,
    new_policy: Policy,
    trace,
    old_policy: Optional[Policy] = None,
    propensity_model: Optional[PropensityModel] = None,
    propensity_floor: Optional[float] = None,
    workers: Optional[int] = None,
    transport: Optional[str] = None,
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
    :func:`_parallel_stream`.  Workers gather their columns straight
    into shared-memory buffers (``transport="shm"``, the default where
    available) or return them over the result pipe
    (``transport="pickle"``); both are bit-identical to the sequential
    engine.  The parallel path requires the ``fork`` start method, a
    trace exposing ``plan_chunks``, and ``on_corruption == "raise"`` (a
    quarantining reader may stream fewer spans than planned); anything
    else silently degrades to the sequential engine below.

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
    if transport is not None and transport not in TRANSPORTS:
        raise EstimatorError(
            f"unknown stream transport {transport!r}; "
            f"expected one of {TRANSPORTS} (or None for auto)"
        )
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
                estimator, new_policy, trace, source, resolved_workers, transport
            )
    with span("ope.stream", estimator=estimator.name):
        estimator._stream_setup(new_policy, trace)
        buffers: Optional[Dict[str, np.ndarray]] = None
        cursor = 0
        chunks = 0
        for chunk in trace.iter_chunks():
            size = len(chunk)
            check_trace_columns(
                chunk.columns(),
                where=f"{estimator.name} input trace",
                offset=cursor,
            )
            columns = estimator._stream_chunk(new_policy, chunk, source, cursor)
            if not columns:
                raise EstimatorError(
                    f"{estimator.name}._stream_chunk returned no columns"
                )
            if buffers is None:
                buffers = {
                    key: np.empty(n, dtype=np.asarray(value).dtype)
                    for key, value in columns.items()
                }
            if set(columns) != set(buffers):
                raise EstimatorError(
                    f"{estimator.name}._stream_chunk changed its column set "
                    f"mid-stream: {sorted(buffers)} vs {sorted(columns)}"
                )
            for key, value in columns.items():
                array = np.asarray(value)
                if array.shape != (size,):
                    raise EstimatorError(
                        f"{estimator.name}._stream_chunk column {key!r} has "
                        f"shape {array.shape}, expected ({size},)"
                    )
                buffers[key][cursor : cursor + size] = array
            cursor += size
            chunks += 1
            observe("store.chunk.records", float(size))
            increment("ope.stream.chunks")
        skipped = reconcile_shortfall(trace, cursor)
        if buffers is None:
            raise EstimatorError("cannot estimate from an empty trace")
        if skipped:
            # Finalize on the surviving prefix of each gathered column:
            # the entries are exactly the dense-path float64 values of
            # the surviving records, so the degraded estimate is the
            # bit-identical estimate of the surviving subtrace.
            buffers = {key: array[:cursor] for key, array in buffers.items()}
        result = estimator._stream_finalize(buffers, cursor)
        if skipped:
            report = trace.quarantine_report()
            result.diagnostics["store_quarantine"] = report.to_json()
        return result


def stream_weight_columns(trace, column: str = "rewards") -> np.ndarray:
    """Gather one raw per-record column from a chunked trace.

    Small utility mirroring what the engine does for estimator columns;
    handy for diagnostics scripts that want, say, every reward of a
    sharded trace without materialising records (``column`` is any
    :class:`~repro.core.types.TraceColumns` float attribute).  A
    quarantining reader yields the survivors' values, reconciled exactly
    as in :func:`stream_estimate`.
    """
    n = len(trace)
    out = np.empty(n, dtype=np.float64)
    cursor = 0
    for chunk in trace.iter_chunks():
        values: Any = getattr(chunk.columns(), column)
        out[cursor : cursor + len(chunk)] = values
        cursor += len(chunk)
    reconcile_shortfall(trace, cursor)
    return out[:cursor]
