"""k-nearest-neighbour reward model.

The paper's Fig 7c experiment trains the DM inside DR with a k-NN model
("The DM estimates are based on a k-NN model [25] trained by the trace",
§4.2), so this is the reference model for the CFA reproduction.

Distances are Euclidean over the one-hot/standardised encoding of
(context, decision).  Neighbours may optionally be restricted to records
with the *same decision*, which matches how CFA-like systems look up
similar sessions per decision.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro import kernels
from repro.core.models.base import RewardModel, check_batch_lengths
from repro.core.models.featurize import OneHotEncoder, Standardizer
from repro.core.types import ClientContext, Decision, Trace
from repro.errors import ModelError


class KNNRewardModel(RewardModel):
    """Mean reward of the *k* nearest training records.

    Parameters
    ----------
    k:
        Neighbourhood size.  Clipped to the number of available training
        records at predict time.
    same_decision_only:
        Restrict neighbours to records whose logged decision equals the
        queried decision.  When no such record exists, falls back to the
        unrestricted neighbourhood.
    weighted:
        Weight neighbours by inverse distance instead of uniformly.
    """

    def __init__(self, k: int = 5, same_decision_only: bool = True, weighted: bool = False):
        super().__init__()
        if k <= 0:
            raise ModelError(f"k must be positive, got {k}")
        self._k = k
        self._same_decision_only = same_decision_only
        self._weighted = weighted
        self._encoder = OneHotEncoder(include_decision=not same_decision_only)
        self._standardizer = Standardizer()
        self._matrix: Optional[np.ndarray] = None
        self._rewards: Optional[np.ndarray] = None
        self._decisions: list = []

    def _fit(self, trace: Trace) -> None:
        self._encoder.fit(trace)
        if self._same_decision_only:
            raw = np.vstack([self._encoder.encode(r.context) for r in trace])
        else:
            raw = self._encoder.encode_trace(trace)
        self._standardizer.fit(raw)
        self._matrix = self._standardizer.transform(raw)
        self._rewards = trace.rewards()
        self._decisions = trace.decisions()

    def _neighbour_mean(self, query: np.ndarray, mask: np.ndarray) -> Optional[float]:
        """Mean reward of the k nearest rows selected by *mask*."""
        indices = np.flatnonzero(mask)
        if indices.size == 0:
            return None
        candidates = self._matrix[indices]
        distances = kernels.knn_distances(candidates, query)
        k = min(self._k, indices.size)
        nearest = kernels.topk_indices(distances, k)
        rewards = self._rewards[indices[nearest]]
        if not self._weighted:
            return float(rewards.mean())
        weights = 1.0 / (distances[nearest] + 1e-9)
        return float(np.average(rewards, weights=weights))

    def _predict(self, context: ClientContext, decision: Decision) -> float:
        if self._same_decision_only:
            query = self._standardizer.transform(self._encoder.encode(context))
            mask = np.asarray([d == decision for d in self._decisions])
            restricted = self._neighbour_mean(query, mask)
            if restricted is not None:
                return restricted
            return self._neighbour_mean(query, np.ones(len(self._decisions), bool))
        query = self._standardizer.transform(self._encoder.encode(context, decision))
        return self._neighbour_mean(query, np.ones(len(self._decisions), bool))

    def predict_batch(
        self,
        contexts: Sequence[ClientContext],
        decisions: Sequence[Decision],
    ) -> np.ndarray:
        # Hoists query encoding/standardisation to one matrix pass and
        # caches the per-decision neighbour masks; the per-query distance
        # and k-selection arithmetic is unchanged, so values match the
        # scalar path bit for bit.
        self._require_fitted()
        check_batch_lengths(contexts, decisions)
        count = len(contexts)
        values = np.empty(count, dtype=float)
        if count == 0:
            return values
        all_rows = np.ones(len(self._decisions), bool)
        if not self._same_decision_only:
            raw = np.vstack(
                [
                    self._encoder.encode(context, decision)
                    for context, decision in zip(contexts, decisions)
                ]
            )
            queries = self._standardizer.transform(raw)
            for index in range(count):
                values[index] = self._neighbour_mean(queries[index], all_rows)
            return values
        raw = np.vstack([self._encoder.encode(context) for context in contexts])
        queries = self._standardizer.transform(raw)
        masks: Dict[Decision, np.ndarray] = {}
        for index, decision in enumerate(decisions):
            mask = masks.get(decision)
            if mask is None:
                mask = np.asarray([d == decision for d in self._decisions])
                masks[decision] = mask
            value = self._neighbour_mean(queries[index], mask)
            if value is None:
                value = self._neighbour_mean(queries[index], all_rows)
            values[index] = value
        return values
