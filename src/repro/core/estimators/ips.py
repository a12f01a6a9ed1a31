"""Inverse Propensity Score (IPS) estimators.

Paper §3: *"IPS uses importance weighting to correct for the incorrect
proportions.  Concretely, the estimator is a weighted sum of rewards r_k
actually observed: V_IPS = (1/n) Σ_k [mu_new(d_k|c_k) / mu_old(d_k|c_k)] r_k."*

IPS is unbiased when the logging policy's propensities are known and
positive on the new policy's support, but its variance explodes when
``mu_old(d_k|c_k)`` is small (§4.1 "Coverage and randomness").  Two
standard variance-control variants are included:

* :class:`ClippedIPS` caps each weight at ``clip`` (biased, lower
  variance).
* :class:`SelfNormalizedIPS` divides by the sum of weights instead of n
  (consistent, usually much lower variance, invariant to reward shifts).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import kernels
from repro.core.estimators.base import (
    EstimateResult,
    OffPolicyEstimator,
    importance_weights,
    result_from_contributions,
    weight_diagnostics,
)
from repro.core.policy import Policy
from repro.core.propensity import PropensitySource
from repro.core.types import Trace
from repro.errors import EstimatorError


class IPS(OffPolicyEstimator):
    """The plain (unnormalised) IPS estimator of the paper."""

    failure_modes = ("missing-propensities", "propensity-violation", "nonfinite-weight")

    @property
    def name(self) -> str:
        return "ips"

    def _stream_chunk(
        self,
        new_policy: Policy,
        chunk: Trace,
        propensities: Optional[PropensitySource],
        offset: int,
    ) -> dict:
        # importance_weights has already validated the array; re-checking
        # here would double the validation cost on the hot path.
        weights = importance_weights(new_policy, chunk, propensities)
        return {"weights": weights, "rewards": chunk.columns().rewards}

    def _stream_finalize(self, columns: dict, n: int) -> EstimateResult:
        weights = columns["weights"]
        contributions = kernels.ips_contributions(weights, columns["rewards"])
        return result_from_contributions(
            self.name, contributions, weight_diagnostics(weights)
        )


class ClippedIPS(OffPolicyEstimator):
    """IPS with importance weights clipped at ``clip``.

    Clipping trades a controlled amount of bias for bounded variance —
    the pragmatic fix when the old policy's exploration is thin.
    """

    failure_modes = ("missing-propensities", "propensity-violation")

    def __init__(self, clip: Optional[float] = None):
        if clip is None:
            clip = 10.0
        if clip <= 0:
            raise EstimatorError(f"clip must be positive, got {clip}")
        self._clip = float(clip)

    @property
    def name(self) -> str:
        return "clipped-ips"

    @property
    def clip(self) -> float:
        """The clipping threshold."""
        return self._clip

    def _stream_chunk(
        self,
        new_policy: Policy,
        chunk: Trace,
        propensities: Optional[PropensitySource],
        offset: int,
    ) -> dict:
        # Raw (unclipped) weights are gathered; clipping is elementwise,
        # but the clipped_fraction diagnostic needs the raw tail.
        weights = importance_weights(new_policy, chunk, propensities)
        return {"weights": weights, "rewards": chunk.columns().rewards}

    def _stream_finalize(self, columns: dict, n: int) -> EstimateResult:
        weights = columns["weights"]
        clipped = kernels.clip_weights(weights, self._clip)
        contributions = kernels.ips_contributions(clipped, columns["rewards"])
        diagnostics = weight_diagnostics(clipped)
        diagnostics["clipped_fraction"] = float((weights > self._clip).mean())
        return result_from_contributions(self.name, contributions, diagnostics)


class SelfNormalizedIPS(OffPolicyEstimator):
    """SNIPS: ``Σ w_k r_k / Σ w_k``.

    The weight normalisation makes the estimate invariant to additive
    reward shifts and dramatically tames variance, at the cost of a small
    finite-sample bias that vanishes as n grows.
    """

    failure_modes = ("missing-propensities", "propensity-violation", "no-overlap")

    @property
    def name(self) -> str:
        return "snips"

    def _stream_chunk(
        self,
        new_policy: Policy,
        chunk: Trace,
        propensities: Optional[PropensitySource],
        offset: int,
    ) -> dict:
        weights = importance_weights(new_policy, chunk, propensities)
        return {"weights": weights, "rewards": chunk.columns().rewards}

    def _stream_finalize(self, columns: dict, n: int) -> EstimateResult:
        # The self-normalisation numerator Σ w·r and denominator Σ w are
        # reduced here from the gathered weight/reward columns, in trace
        # order — the same reductions the dense path runs, so the ratio
        # is chunking-invariant bit for bit (DESIGN.md §10).
        weights = columns["weights"]
        total = float(weights.sum())
        diagnostics = weight_diagnostics(weights)
        if total <= 0:
            # The new policy never takes any logged decision: SNIPS is
            # undefined.  Surface that as a diagnostic-rich failure rather
            # than a silent 0/0.
            raise EstimatorError(
                "SNIPS undefined: the new policy puts zero probability on "
                "every logged decision (no overlap, cf. paper Fig 5)"
            )
        rewards = columns["rewards"]
        value = float(np.dot(weights, rewards) / total)
        # Delta-method standard error for a ratio estimator.
        residuals = weights * (rewards - value)
        if n > 1:
            variance = float((residuals**2).sum()) / (total**2)
            std_error = float(np.sqrt(variance) * np.sqrt(n / (n - 1)))
        else:
            std_error = float("nan")
        diagnostics["weight_sum"] = total
        return EstimateResult(
            value=value,
            method=self.name,
            n=n,
            contributions=weights * rewards * (n / total),
            std_error=std_error,
            diagnostics=diagnostics,
        )


class MatchingEstimator(OffPolicyEstimator):
    """Exact-match estimator: average reward over records whose logged
    decision is what the new policy would (deterministically) choose.

    This is the "primitive form of IPS" the paper attributes to CFA's
    overlap technique (§3): unbiased under a uniformly random logging
    policy, but its effective sample size collapses as the decision space
    grows (Fig 5).  For stochastic new policies the match is defined as
    the new policy's *greedy* decision.
    """

    requires_propensities = False

    failure_modes = ("no-overlap",)

    @property
    def name(self) -> str:
        return "matching"

    def _stream_chunk(
        self,
        new_policy: Policy,
        chunk: Trace,
        propensities: Optional[PropensitySource],
        offset: int,
    ) -> dict:
        columns = chunk.columns()
        greedy = new_policy.greedy_decision_batch(columns.contexts)
        matched = np.fromiter(
            (
                decision == chosen
                for decision, chosen in zip(columns.decisions, greedy)
            ),
            dtype=bool,
            count=len(chunk),
        )
        return {"matched": matched, "rewards": columns.rewards}

    def _stream_finalize(self, columns: dict, n: int) -> EstimateResult:
        matched = columns["rewards"][columns["matched"]]
        diagnostics = {
            "match_count": int(matched.size),
            "match_fraction": matched.size / n,
        }
        if matched.size == 0:
            raise EstimatorError(
                "matching estimator found no records whose logged decision "
                "equals the new policy's decision (no overlap, cf. paper Fig 5)"
            )
        return result_from_contributions(self.name, matched, diagnostics)
