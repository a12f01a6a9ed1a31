"""The Direct Method (DM) estimator.

Paper §3: *"DM uses a reward model r̂(c, d) to predict the reward of any
client c and decision d, and returns the average reward of a new policy
by V_DM = (1/n) Σ_k Σ_d mu_new(d|c_k) r̂(c_k, d)."*

DM uses every trace record (no coverage problem) but inherits all of the
reward model's bias — the WISE CBN evaluator and the FastMPC throughput
evaluator are both DM instances (§3, "Why DR for networking").
"""

from __future__ import annotations

from repro.core.estimators.base import (
    EstimateResult,
    RewardModelEstimator,
    expected_model_rewards,
    result_from_contributions,
)
from repro.core.policy import Policy


class DirectMethod(RewardModelEstimator):
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

    _model_label = "DM model"

    @property
    def name(self) -> str:
        return "dm"

    def _model_columns(self, new_policy: Policy, chunk, offset: int, columns) -> dict:
        return {"contributions": expected_model_rewards(new_policy, chunk, self._model)}

    def _stream_finalize(self, columns: dict, n: int) -> EstimateResult:
        return result_from_contributions(self.name, columns["contributions"])
