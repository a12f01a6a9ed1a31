"""The Direct Method (DM) estimator.

Paper §3: *"DM uses a reward model r̂(c, d) to predict the reward of any
client c and decision d, and returns the average reward of a new policy
by V_DM = (1/n) Σ_k Σ_d mu_new(d|c_k) r̂(c_k, d)."*

DM uses every trace record (no coverage problem) but inherits all of the
reward model's bias — the WISE CBN evaluator and the FastMPC throughput
evaluator are both DM instances (§3, "Why DR for networking").
"""

from __future__ import annotations

from typing import Optional

from repro.core.estimators.base import (
    EstimateResult,
    OffPolicyEstimator,
    expected_model_rewards,
    result_from_contributions,
)
from repro.core.models.base import RewardModel
from repro.core.policy import Policy
from repro.core.propensity import PropensitySource
from repro.core.types import Trace
from repro.errors import EstimatorError


class DirectMethod(OffPolicyEstimator):
    """DM over a reward model.

    Parameters
    ----------
    model:
        The reward model r̂.  If not yet fitted and ``fit_on_trace`` is
        true (default), it is fit on the evaluation trace — the common
        workflow in the papers the scenario baselines reproduce.
    fit_on_trace:
        Disable to require a pre-fitted model (e.g. fit on a held-out
        split, or cross-fitted).
    """

    requires_propensities = False

    failure_modes = ("unfitted-model", "model-fit-failure")

    def __init__(self, model: RewardModel, fit_on_trace: bool = True):
        self._model = model
        self._fit_on_trace = fit_on_trace

    @property
    def name(self) -> str:
        return "dm"

    @property
    def model(self) -> RewardModel:
        """The reward model used by this estimator."""
        return self._model

    def _stream_setup(self, new_policy: Policy, trace) -> None:
        if not self._model.fitted:
            if not self._fit_on_trace:
                raise EstimatorError(
                    "DM model is not fitted and fit_on_trace is disabled"
                )
            self._model.fit(trace)

    def _stream_chunk(
        self,
        new_policy: Policy,
        chunk: Trace,
        propensities: Optional[PropensitySource],
        offset: int,
    ) -> dict:
        contributions = expected_model_rewards(new_policy, chunk, self._model)
        return {"contributions": contributions}

    def _stream_finalize(self, columns: dict, n: int) -> EstimateResult:
        return result_from_contributions(self.name, columns["contributions"])
