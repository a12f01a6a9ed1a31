"""The Doubly Robust (DR) estimator — the paper's core proposal.

Paper Eq. 2 writes DR as an average of per-record terms

    V_DR = (1/n) Σ_k [ Σ_d mu_new(d|c_k) r̂(c_k, d)
                       + w_k (r_k − r̂(c_k, d_k)) ],

    w_k = mu_new(d_k|c_k) / mu_old(d_k|c_k),

i.e. the DM prediction plus an importance-weighted correction by the
model's *residual* on the logged decision.  The estimator is accurate when
*either* the reward model or the propensities are accurate ("second-order
bias": its error is bounded by the product of the two errors, §3).

:class:`SelfNormalizedDR` normalises the correction term by the realised
weight mass, the same variance-control idea as SNIPS.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import kernels
from repro.core.contracts import check_weights
from repro.core.estimators.base import (
    EstimateResult,
    RewardModelEstimator,
    expected_model_rewards,
    result_from_contributions,
    weight_diagnostics,
)
from repro.core.models.base import RewardModel
from repro.core.models.ensemble import CrossFitModel
from repro.core.policy import Policy
from repro.core.propensity import PropensitySource
from repro.core.types import Trace
from repro.errors import EstimatorError


class DoublyRobust(RewardModelEstimator):
    """DR per paper Eq. 1/2.

    Parameters
    ----------
    model:
        Reward model r̂ for the DM half.  Fit on the evaluation trace if
        not already fitted (and ``fit_on_trace`` allows it).
    fit_on_trace:
        Disable to require a pre-fitted model.
    clip:
        Optional clip on the importance weights of the correction term
        (``None`` = no clipping, the paper's plain DR).
    """

    failure_modes = (
        "missing-propensities",
        "propensity-violation",
        "unfitted-model",
        "model-fit-failure",
    )

    _model_label = "DR reward model"

    def __init__(
        self,
        model: RewardModel,
        fit_on_trace: bool = True,
        clip: Optional[float] = None,
    ):
        if clip is not None and clip <= 0:
            raise EstimatorError(f"clip must be positive, got {clip}")
        super().__init__(model, fit_on_trace)
        self._clip = clip

    @property
    def name(self) -> str:
        return "dr"

    @property
    def clip(self) -> Optional[float]:
        """The correction-term weight clip (``None`` = unclipped)."""
        return self._clip

    def _stream_chunk(
        self,
        new_policy: Policy,
        chunk: Trace,
        propensities: Optional[PropensitySource],
        offset: int,
    ) -> dict:
        columns = chunk.columns()
        old = propensities.propensity_batch(chunk)
        new = new_policy.propensity_batch(columns.decisions, columns.contexts)
        weights = kernels.importance_ratio(new, old)
        if self._clip is not None:
            weights = kernels.clip_weights(weights, self._clip)
        return {"weights": check_weights(weights, where=self.name).values}

    def _model_columns(self, new_policy: Policy, chunk, offset: int, columns) -> dict:
        columns = chunk.columns()
        model = self._model
        if isinstance(model, CrossFitModel):
            # Cross-fitting selects folds by absolute record position.
            dm_terms = expected_model_rewards(new_policy, chunk, model, offset)
            predictions = model.predict_batch_for_indices(
                np.arange(len(chunk)) + offset, columns.contexts, columns.decisions
            )
        else:
            dm_terms = expected_model_rewards(new_policy, chunk, model)
            predictions = model.predict_trace(columns)
        return {"dm_terms": dm_terms, "residuals": columns.rewards - predictions}

    def _stream_finalize(self, columns: dict, n: int) -> EstimateResult:
        dm_terms = columns["dm_terms"]
        weights = columns["weights"]
        residuals = columns["residuals"]
        contributions = kernels.dr_contributions(dm_terms, weights, residuals)
        diagnostics = weight_diagnostics(weights)
        diagnostics["dm_value"] = float(dm_terms.mean())
        diagnostics["correction"] = float((weights * residuals).mean())
        return result_from_contributions(self.name, contributions, diagnostics)


class SelfNormalizedDR(DoublyRobust):
    """DR with the correction term normalised by the realised weight mass.

    ``V_SNDR = (1/n) Σ_k DM_k + Σ_k w_k (r_k − r̂_k) / Σ_k w_k``.

    When all weights are zero (no overlap at all) the correction is
    dropped and SNDR degrades gracefully to pure DM — matching the
    intuition that with no usable observed data only the model remains.
    """

    @property
    def name(self) -> str:
        return "sndr"

    def _stream_finalize(self, columns: dict, n: int) -> EstimateResult:
        # The SNDR correction's numerator Σ w·(r − r̂) and denominator
        # Σ w are reduced from the gathered columns in trace order —
        # identical to the dense reductions for any chunking (DESIGN.md
        # §10).  The chunk hook is inherited from DoublyRobust.
        dm_terms = columns["dm_terms"]
        weights = columns["weights"]
        residuals = columns["residuals"]
        total = float(weights.sum())
        diagnostics = weight_diagnostics(weights)
        diagnostics["dm_value"] = float(dm_terms.mean())
        if total > 0:
            correction = float(np.dot(weights, residuals) / total)
            contributions = kernels.sndr_contributions(
                dm_terms, weights, residuals, n / total
            )
        else:
            correction = 0.0
            contributions = dm_terms
        diagnostics["correction"] = correction
        value = float(dm_terms.mean() + correction)
        std_error = (
            float(contributions.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
        )
        return EstimateResult(
            value=value,
            method=self.name,
            n=n,
            contributions=contributions,
            std_error=std_error,
            diagnostics=diagnostics,
        )
