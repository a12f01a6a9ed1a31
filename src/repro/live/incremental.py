"""Incremental off-policy estimator state over an unbounded stream.

:class:`IncrementalEstimator` is the live twin of
:func:`repro.store.streaming.stream_estimate`: the same three-hook
decomposition (``_stream_setup`` once, ``_stream_chunk`` per chunk,
``_stream_finalize`` over the gathered columns), through the same
:class:`~repro.store.streaming.ColumnGather`, held open.  The one
difference is that the stream has no known length, so the gather starts
at :data:`INITIAL_CAPACITY` and *grows* (capacity doubling) instead of
being preallocated, and finalize can be asked for at any prefix.

**The pinned guarantee** (``tests/live/test_incremental_equivalence.py``):
after observing any sequence of chunks covering records ``[0, n)``, the
result of :meth:`IncrementalEstimator.result` is **bit-identical** to
``stream_estimate`` (an in-memory trace included) over those same
``n`` records — value, std error, contributions, diagnostics.  The
argument is the streaming engine's, unchanged: ``_stream_chunk`` columns
are pure elementwise per-record functions, the buffers assemble them in
stream order into the exact float64 arrays the offline engine would
gather, and every cross-record reduction happens once, inside
``_stream_finalize``, on those arrays.  No scalar accumulators anywhere
— float addition is not associative, and a running ``total += chunk
.sum()`` would diverge from the offline reduction in the last ulp.

Scope of the guarantee: it requires ``_stream_setup`` to be independent
of the stream (true for the model-free IPS family, and for DM/DR/SNDR
with a **pre-fitted** reward model).  A model-fitting estimator in live
mode would otherwise fit on whatever prefix existed at setup time;
:class:`IncrementalEstimator` refuses that ambiguity by requiring
``fit_on_trace=False`` semantics — pass a fitted model.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.core.estimators.base import EstimateResult, OffPolicyEstimator
from repro.core.policy import Policy
from repro.core.propensity import (
    PropensityModel,
    PropensitySource,
    resolve_propensity_source,
)
from repro.errors import EstimatorError
from repro.store.streaming import ColumnGather

#: Initial per-column buffer capacity (records).  Doubles as needed.
INITIAL_CAPACITY = 4096


class IncrementalEstimator:
    """Running estimator state, updated chunk by chunk.

    Parameters
    ----------
    estimator:
        Any :class:`~repro.core.estimators.base.OffPolicyEstimator` with
        streaming hooks.  Model-backed estimators must carry a
        *pre-fitted* model (see module docstring).
    new_policy:
        The policy being valued.
    old_policy / propensity_model:
        Optional explicit propensity source, resolved with the same
        preference order as the offline engine (policy > model > logged
        per-record propensities).  Resolution happens against the first
        observed chunk.
    """

    def __init__(
        self,
        estimator: OffPolicyEstimator,
        new_policy: Policy,
        old_policy: Optional[Policy] = None,
        propensity_model: Optional[PropensityModel] = None,
        propensity_floor: Optional[float] = None,
    ):
        self._estimator = estimator
        self._policy = new_policy
        self._old_policy = old_policy
        self._propensity_model = propensity_model
        self._propensity_floor = propensity_floor
        self._source: Optional[PropensitySource] = None
        self._gather = ColumnGather(estimator, INITIAL_CAPACITY)
        self._chunks = 0

    @property
    def estimator(self) -> OffPolicyEstimator:
        """The wrapped estimator."""
        return self._estimator

    @property
    def n(self) -> int:
        """Records observed so far."""
        return self._gather.length

    @property
    def chunks(self) -> int:
        """Chunks observed so far."""
        return self._chunks

    def observe_chunk(self, chunk) -> int:
        """Score one chunk and append its per-record columns.

        *chunk* is anything satisfying the streaming chunk contract
        (``len``, ``columns()``, ``has_propensities()``):
        a :class:`~repro.live.chunks.StreamBatch`, a
        :class:`~repro.store.sharded.ShardChunk`, or a dense
        :class:`~repro.core.types.Trace`.  Returns the total record
        count after the append.

        Validation is the offline engine's own :class:`ColumnGather` —
        vectorised contracts with absolute record offsets, shape checks,
        and a stable column set across chunks.
        """
        estimator = self._estimator
        if len(chunk) == 0:
            return self.n
        if self._chunks == 0:
            # Same setup/resolution order as stream_estimate: source
            # first (so missing propensities fail before any model
            # work), then the estimator's one-time setup.
            if estimator.requires_propensities:
                self._source = resolve_propensity_source(
                    chunk,
                    self._old_policy,
                    self._propensity_model,
                    floor=self._propensity_floor,
                )
            estimator._stream_setup(self._policy, chunk)
        self._gather.add(self._policy, chunk, self._source)
        self._chunks += 1
        return self.n

    def result(self, extra_diagnostics: Optional[Dict[str, Any]] = None) -> EstimateResult:
        """Finalize over everything observed so far.

        Runs ``_stream_finalize`` on the assembled prefix — an O(n)
        reduction, identical to what the offline engine would run over
        the same records.  *extra_diagnostics* entries (e.g. a store
        quarantine report) are attached afterwards, mirroring how
        ``stream_estimate`` decorates degraded results.
        """
        if self.n == 0:
            raise EstimatorError("cannot estimate from an empty stream")
        result = self._gather.finalize(self.n)
        if extra_diagnostics:
            result.diagnostics.update(extra_diagnostics)
        return result

    def column_prefix(self, key: str) -> np.ndarray:
        """Read-only view of one gathered column's observed prefix."""
        if key not in self._gather.buffers:
            raise EstimatorError(f"no gathered column {key!r}")
        return self._gather.buffers[key][: self.n]

    def column_names(self) -> tuple:
        """Names of the gathered per-record columns (empty before data)."""
        return tuple(sorted(self._gather.buffers))
