"""Tabular mean reward model.

Groups the trace by a context key (a subset of features) and the decision,
and predicts the empirical mean reward of each bucket.  This is the
simplest consistent reward model when the key features capture everything
that matters — and a concrete example of *model misspecification* (§2.2.1)
when they do not (omitting the NAT flag in the VIA scenario turns this
model into the biased VIA evaluator).

Fit and prediction both run columnar: fitting reads ``trace.columns()``
once and accumulates bucket sums through the in-order
:func:`repro.kernels.bucket_accumulate` (bit-identical to the historical
per-record ``+=`` loop).  An estimator fitting it on a chunked trace
does not hand it the chunks: the streaming pass fits it once, after its
one read, on a column-born trace of the pass's interned context and
decision codes and rewards (see :mod:`repro.store.streaming`), whose
pairs and rewards come in record order as they would from the trace.
A :class:`~repro.store.ShardedTrace` passed to :meth:`fit` directly is
gathered whole by its ``columns()``.  The ``predict_trace*``
fast paths encode each :class:`~repro.core.types.TraceColumns` view's
records into bucket codes once (memoised on the columns object) so the
per-decision DM sweep and the DR residual pass become pure array gathers.
Both the fit and the key encoding look each distinct context up once
(grouped by ``TraceColumns.context_codes``) and gather per record.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.models.base import RewardModel, check_batch_lengths
from repro.core.types import ClientContext, Decision, Trace, TraceColumns
from repro.errors import ModelError

#: Process-wide fit tokens: each successful fit gets a fresh token, so
#: per-columns consumer caches keyed on it can never serve encodings
#: from an earlier fit of the same (or a garbage-collected) model.
_FIT_TOKENS = itertools.count()


class TabularMeanModel(RewardModel):
    """Empirical mean reward per ``(context key, decision)`` bucket.

    Parameters
    ----------
    key_features:
        Feature names used to bucket contexts.  ``None`` buckets by the
        full feature schema of the training trace.
    fallback:
        What to predict for an unseen bucket: ``"decision"`` falls back to
        the per-decision mean, then the global mean; ``"global"`` goes
        straight to the global mean; ``"error"`` raises.
    """

    _FALLBACKS = ("decision", "global", "error")

    def __init__(
        self,
        key_features: Optional[Sequence[str]] = None,
        fallback: str = "decision",
    ):
        super().__init__()
        if fallback not in self._FALLBACKS:
            raise ModelError(
                f"fallback must be one of {self._FALLBACKS}, got {fallback!r}"
            )
        self._requested_keys = tuple(key_features) if key_features is not None else None
        self._fallback = fallback
        self._bucket_means: Dict[Tuple[Tuple[Hashable, ...], Decision], float] = {}
        self._decision_means: Dict[Decision, float] = {}
        self._global_mean = 0.0
        self._keys: Tuple[str, ...] = ()
        # Dense prediction tables, rebuilt by _build_dense_tables().
        self._fit_token = -1
        self._key_index: Dict[Tuple[Hashable, ...], int] = {}
        self._decision_index: Dict[Decision, int] = {}
        self._mean_matrix = np.zeros((0, 0), dtype=float)
        self._bucket_present = np.zeros((0, 0), dtype=bool)
        self._decision_mean_column = np.zeros(0, dtype=float)

    @property
    def key_features(self) -> Tuple[str, ...]:
        """The features actually used for bucketing (resolved at fit time)."""
        if not self.fitted:
            raise ModelError("model must be fit before reading key_features")
        return self._keys

    def _fit(self, trace: Trace) -> None:
        """One read of ``trace.columns()``: buckets resolve once per
        distinct (context, decision) pair, numbered first seen first, and
        every bucket, decision and global sum adds its rewards in record
        order (the scalar ``sums[key] += reward`` loop's sequence)."""
        self._keys = (
            self._requested_keys
            if self._requested_keys is not None
            else trace.feature_names()
        )
        columns = trace.columns()
        pairs, firsts = kernels.first_seen_codes(
            columns.context_codes, columns.decision_codes
        )
        buckets: Dict[Tuple[Tuple[Hashable, ...], Decision], int] = {}
        decisions: Dict[Decision, int] = {}
        pair_buckets = np.empty(firsts.size, dtype=np.intp)
        pair_decisions = np.empty(firsts.size, dtype=np.intp)
        for pair, first in enumerate(firsts.tolist()):
            decision = columns.decisions[first]
            key = (columns.contexts[first].values_for(self._keys), decision)
            pair_buckets[pair] = buckets.setdefault(key, len(buckets))
            pair_decisions[pair] = decisions.setdefault(decision, len(decisions))
        rewards = columns.rewards

        def means(positions, ids):
            sums, counts = np.zeros(len(positions)), np.zeros(len(positions))
            kernels.bucket_accumulate(sums, counts, ids, rewards)
            return {key: float(sums[p] / counts[p]) for key, p in positions.items()}

        self._bucket_means = means(buckets, pair_buckets[pairs])
        self._decision_means = means(decisions, pair_decisions[pairs])
        # The global mean is one left fold over all rewards in record order.
        every = np.zeros(len(columns), dtype=np.intp)
        self._global_mean = means({None: 0}, every)[None]
        self._build_dense_tables()

    def _build_dense_tables(self) -> None:
        """Lay the fitted bucket dicts out as (key, decision) matrices for
        the vectorised ``predict_trace*`` paths."""
        key_index: Dict[Tuple[Hashable, ...], int] = {}
        decision_index = {
            decision: position
            for position, decision in enumerate(self._decision_means)
        }
        for values, _ in self._bucket_means:
            if values not in key_index:
                key_index[values] = len(key_index)
        matrix = np.zeros((len(key_index), len(decision_index)), dtype=float)
        present = np.zeros(matrix.shape, dtype=bool)
        for (values, decision), mean in self._bucket_means.items():
            row = key_index[values]
            column = decision_index[decision]
            matrix[row, column] = mean
            present[row, column] = True
        self._key_index = key_index
        self._decision_index = decision_index
        self._mean_matrix = matrix
        self._bucket_present = present
        self._decision_mean_column = np.asarray(
            list(self._decision_means.values()), dtype=float
        )
        self._fit_token = next(_FIT_TOKENS)

    # -- columnar prediction fast paths --------------------------------------

    def _key_codes(self, columns: TraceColumns) -> np.ndarray:
        """Per-record row index into the mean matrix (-1 = unseen key),
        computed once per columns object and memoised there."""
        token = ("repro.models.tabular.keys", self._fit_token)
        return columns.consumer_cache(token, lambda: self._encode_keys(columns))

    def _encode_keys(self, columns: TraceColumns) -> np.ndarray:
        """Look each distinct context's key up once, then gather."""
        codes, firsts = columns.distinct_contexts()
        contexts, keys, get = columns.contexts, self._keys, self._key_index.get
        rows = np.fromiter(
            (get(contexts[first].values_for(keys), -1) for first in firsts.tolist()),
            dtype=np.intp,
            count=firsts.size,
        )
        return rows[codes]

    def _logged_decision_codes(self, columns: TraceColumns) -> np.ndarray:
        """Per-record column index for the logged decisions (-1 = decision
        unseen at fit time), via a vocabulary-translation gather."""
        token = ("repro.models.tabular.decisions", self._fit_token)

        def build() -> np.ndarray:
            get = self._decision_index.get
            translation = np.asarray(
                [get(decision, -1) for decision in columns.decision_vocabulary],
                dtype=np.intp,
            )
            return translation[columns.decision_codes]

        return columns.consumer_cache(token, build)

    def _gathered(
        self,
        key_codes: np.ndarray,
        decision_codes: np.ndarray,
        positions: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bucket hits/means for aligned key/decision code arrays."""
        if positions is not None:
            key_codes = key_codes[positions]
            decision_codes = decision_codes[positions]
        safe_keys = np.where(key_codes >= 0, key_codes, 0)
        safe_decisions = np.where(decision_codes >= 0, decision_codes, 0)
        hit = (
            (key_codes >= 0)
            & (decision_codes >= 0)
            & self._bucket_present[safe_keys, safe_decisions]
        )
        values = self._mean_matrix[safe_keys, safe_decisions]
        return hit, values, decision_codes, safe_decisions

    def _raise_missing_bucket(
        self,
        columns: TraceColumns,
        miss: np.ndarray,
        positions: Optional[np.ndarray],
        decision: Optional[Decision] = None,
    ) -> None:
        """Reproduce the scalar loop's error at its first failing record."""
        first = int(np.flatnonzero(miss)[0])
        record_index = first if positions is None else int(positions[first])
        if decision is None:
            decision = columns.decisions[record_index]
        key = (columns.contexts[record_index].values_for(self._keys), decision)
        raise ModelError(f"no training data for bucket {key!r}")

    def predict_trace_for_decision(
        self,
        columns: TraceColumns,
        decision: Decision,
        positions: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        self._require_fitted()
        key_codes = self._key_codes(columns)
        if positions is not None:
            key_codes = key_codes[positions]
        code = self._decision_index.get(decision, -1)
        decision_codes = np.full(len(key_codes), code, dtype=np.intp)
        hit, values, decision_codes, _ = self._gathered(
            key_codes, decision_codes, None
        )
        if hit.all():
            return values
        if self._fallback == "error":
            self._raise_missing_bucket(columns, ~hit, positions, decision)
        if self._fallback == "decision" and code >= 0:
            fallback_value = self._decision_mean_column[code]
        else:
            fallback_value = self._global_mean
        return np.where(hit, values, fallback_value)

    def predict_trace(
        self,
        columns: TraceColumns,
        positions: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        self._require_fitted()
        key_codes = self._key_codes(columns)
        decision_codes = self._logged_decision_codes(columns)
        hit, values, decision_codes, safe_decisions = self._gathered(
            key_codes, decision_codes, positions
        )
        if hit.all():
            return values
        if self._fallback == "error":
            self._raise_missing_bucket(columns, ~hit, positions)
        if self._fallback == "decision":
            fallback = np.where(
                decision_codes >= 0,
                self._decision_mean_column[safe_decisions]
                if self._decision_mean_column.size
                else 0.0,
                self._global_mean,
            )
        else:
            fallback = np.full(hit.shape, self._global_mean)
        return np.where(hit, values, fallback)

    # -- scalar/list paths ----------------------------------------------------

    def bucket_count(self) -> int:
        """Number of distinct (key, decision) buckets seen at fit time."""
        if not self.fitted:
            raise ModelError("model must be fit before reading bucket_count")
        return len(self._bucket_means)

    def support(self, context: ClientContext, decision: Decision) -> bool:
        """``True`` when (context, decision) hits a fitted bucket."""
        if not self.fitted:
            raise ModelError("model must be fit before calling support()")
        key = (context.values_for(self._keys), decision)
        return key in self._bucket_means

    def _predict(self, context: ClientContext, decision: Decision) -> float:
        key = (context.values_for(self._keys), decision)
        if key in self._bucket_means:
            return self._bucket_means[key]
        if self._fallback == "error":
            raise ModelError(f"no training data for bucket {key!r}")
        if self._fallback == "decision" and decision in self._decision_means:
            return self._decision_means[decision]
        return self._global_mean

    def predict_batch(
        self,
        contexts: Sequence[ClientContext],
        decisions: Sequence[Decision],
    ) -> np.ndarray:
        self._require_fitted()
        check_batch_lengths(contexts, decisions)
        values = np.empty(len(contexts), dtype=float)
        bucket_means = self._bucket_means
        keys = self._keys
        for index, (context, decision) in enumerate(zip(contexts, decisions)):
            key = (context.values_for(keys), decision)
            value = bucket_means.get(key)
            if value is None:
                if self._fallback == "error":
                    raise ModelError(f"no training data for bucket {key!r}")
                if self._fallback == "decision" and decision in self._decision_means:
                    value = self._decision_means[decision]
                else:
                    value = self._global_mean
            values[index] = value
        return values
