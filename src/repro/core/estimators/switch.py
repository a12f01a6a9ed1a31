"""SWITCH-DR: interpolate between DR and DM per record.

An extension beyond the paper's basic DR (in the spirit of its "favorable
settings" discussion): when a record's importance weight exceeds a
threshold ``clip``, its noisy correction term is dropped and the record is
scored by the reward model alone.  This bounds the variance contribution
of thin-propensity records while keeping DR's correction where weights
are tame — useful exactly in the low-randomness logging regimes of §4.1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import kernels
from repro.core.contracts import check_weights
from repro.core.estimators.base import (
    EstimateResult,
    OffPolicyEstimator,
    expected_model_rewards,
    result_from_contributions,
    weight_diagnostics,
)
from repro.core.models.base import RewardModel
from repro.core.policy import Policy
from repro.core.propensity import PropensitySource
from repro.core.types import Trace
from repro.errors import EstimatorError


class SwitchDR(OffPolicyEstimator):
    """DR with per-record switching to DM above a weight threshold.

    Parameters
    ----------
    model:
        Reward model shared by both branches.
    clip:
        Weight threshold; records with ``w_k > clip`` contribute only
        their DM term.  ``clip = inf`` recovers plain DR; ``clip = 0``
        recovers plain DM.
    """

    failure_modes = (
        "missing-propensities",
        "propensity-violation",
        "unfitted-model",
        "model-fit-failure",
    )

    def __init__(
        self,
        model: RewardModel,
        clip: Optional[float] = None,
        fit_on_trace: bool = True,
    ):
        if clip is None:
            clip = 10.0
        if clip < 0:
            raise EstimatorError(f"clip must be non-negative, got {clip}")
        self._model = model
        self._clip = float(clip)
        self._fit_on_trace = fit_on_trace

    @property
    def name(self) -> str:
        return "switch-dr"

    @property
    def clip(self) -> float:
        """The switching threshold."""
        return self._clip

    def _stream_setup(self, new_policy: Policy, trace) -> None:
        if not self._model.fitted:
            if not self._fit_on_trace:
                raise EstimatorError(
                    "SWITCH-DR model is not fitted and fit_on_trace is disabled"
                )
            self._model.fit(trace)

    def _stream_chunk(
        self,
        new_policy: Policy,
        chunk: Trace,
        propensities: Optional[PropensitySource],
        offset: int,
    ) -> dict:
        columns = chunk.columns()
        contributions = expected_model_rewards(new_policy, chunk, self._model)
        old = propensities.propensity_batch(chunk)
        new = new_policy.propensity_batch(columns.decisions, columns.contexts)
        weights = kernels.importance_ratio(new, old)
        # Residual predictions are only requested for non-switched records,
        # matching the scalar path (a model that cannot score a switched
        # record's logged decision must not be asked to).  The switch is
        # per-record, so it belongs in the chunk hook.
        kept = np.flatnonzero(~(weights > self._clip))
        if kept.size:
            predictions = self._model.predict_trace(columns, positions=kept)
            residuals = columns.rewards[kept] - predictions
            contributions[kept] = contributions[kept] + weights[kept] * residuals
        return {"contributions": contributions, "weights": weights}

    def _stream_finalize(self, columns: dict, n: int) -> EstimateResult:
        weights = columns["weights"]
        switched = int((weights > self._clip).sum())
        diagnostics = weight_diagnostics(check_weights(weights, where=self.name).values)
        diagnostics["switched_fraction"] = switched / n
        return result_from_contributions(
            self.name, columns["contributions"], diagnostics
        )
