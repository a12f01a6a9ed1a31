"""Ridge-regularised linear reward model over one-hot encodings.

A linear model over categorical one-hots is equivalent to an additive
effects model: reward = base + context effects + decision effect.  It is
*well*-specified when the true reward is additive in its features and
*mis*-specified when interactions matter (e.g. the WISE scenario where
response time depends on the FE x BE *pair*), which makes it a useful
pivot for the model-misspecification experiments.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import kernels
from repro.core.models.base import RewardModel
from repro.core.models.featurize import OneHotEncoder
from repro.core.types import ClientContext, Decision, Trace
from repro.errors import ModelError


class RidgeRewardModel(RewardModel):
    """Least squares with L2 penalty ``alpha`` on the coefficients.

    Solved in closed form via the normal equations; the intercept is not
    penalised.
    """

    def __init__(self, alpha: float = 1.0):
        super().__init__()
        if alpha < 0:
            raise ModelError(f"alpha must be non-negative, got {alpha}")
        self._alpha = float(alpha)
        self._encoder = OneHotEncoder(include_decision=True)
        self._coefficients: Optional[np.ndarray] = None
        self._intercept = 0.0

    def register_decisions(self, decisions) -> None:
        """Expose decision registration so unseen decisions get columns.

        Must be called between :meth:`fit`'s encoder fit and prediction;
        in practice, call :meth:`fit` with a trace that covers decisions,
        or re-fit after registering.
        """
        self._encoder.register_decisions(decisions)

    def _fit(self, trace: Trace) -> None:
        self._encoder.fit(trace)
        design = self._encoder.encode_trace(trace)
        targets = trace.rewards()
        self._coefficients, self._intercept = kernels.ridge_solve(
            design, targets, self._alpha
        )

    def _predict(self, context: ClientContext, decision: Decision) -> float:
        vector = self._encoder.encode(context, decision)
        if vector.shape[0] != self._coefficients.shape[0]:
            raise ModelError(
                "encoding dimension changed after fit; re-fit the model "
                "after registering new decisions"
            )
        return float(vector @ self._coefficients + self._intercept)
