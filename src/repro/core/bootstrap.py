"""Resampling-based uncertainty for estimator values.

The paper uses min/max over repeated simulation runs to show estimator
spread (Fig 7).  For a single real trace, the bootstrap provides the
analogous spread: resample records with replacement, re-run the
estimator, and read quantiles off the resampled values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.estimators.base import OffPolicyEstimator
from repro.core.policy import Policy
from repro.core.propensity import PropensityModel
from repro.core.random import ensure_rng
from repro.core.types import Trace
from repro.errors import EstimatorError
from repro.obs.spans import span


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap distribution summary for one estimator."""

    point_estimate: float
    lower: float
    upper: float
    std: float
    replicates: np.ndarray
    confidence: float

    def render(self) -> str:
        """One-line summary."""
        return (
            f"{self.point_estimate:.4f} "
            f"[{self.lower:.4f}, {self.upper:.4f}] "
            f"({self.confidence:.0%} bootstrap, {self.replicates.size} replicates)"
        )


def bootstrap_ci(
    estimator: OffPolicyEstimator,
    new_policy: Policy,
    trace: Trace,
    old_policy: Optional[Policy] = None,
    propensity_model: Optional[PropensityModel] = None,
    replicates: int = 200,
    confidence: float = 0.95,
    rng=None,
) -> BootstrapResult:
    """Percentile-bootstrap confidence interval for an estimator's value.

    Each replicate resamples the trace with replacement and re-runs the
    estimator on the resample.  A reward model is *not* refit per
    replicate: model-based estimators fit only an unfitted model, so the
    model the point estimate fitted on *trace* scores every replicate
    and the interval omits model-fitting variability.  Replicates on which
    the estimator fails (e.g. a resample with no overlap) are skipped; if
    fewer than half survive, an :class:`EstimatorError` is raised.
    """
    if replicates < 2:
        raise EstimatorError(f"need at least 2 replicates, got {replicates}")
    if not 0.0 < confidence < 1.0:
        raise EstimatorError(f"confidence must lie in (0, 1), got {confidence}")
    generator = ensure_rng(rng)
    with span("bootstrap", estimator=estimator.name, replicates=replicates):
        point = estimator.estimate(
            new_policy, trace, old_policy=old_policy, propensity_model=propensity_model
        ).value
        n = len(trace)
        values = []
        degenerate = 0
        for _ in range(replicates):
            indices = generator.integers(0, n, size=n)
            # take() fancy-indexes the columnar cache built by the point
            # estimate, so replicates skip the per-record column rebuild.
            resampled = trace.take(indices)
            try:
                value = estimator.estimate(
                    new_policy,
                    resampled,
                    old_policy=old_policy,
                    propensity_model=propensity_model,
                ).value
            except EstimatorError:
                degenerate += 1
                continue
            values.append(value)
    if len(values) < replicates / 2:
        raise EstimatorError(
            f"only {len(values)}/{replicates} bootstrap replicates succeeded "
            f"({degenerate} degenerate resamples); the trace has too little "
            "overlap for stable resampling"
        )
    replicate_values = np.asarray(values, dtype=float)
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.quantile(replicate_values, [alpha, 1.0 - alpha])
    return BootstrapResult(
        point_estimate=point,
        lower=float(lower),
        upper=float(upper),
        std=float(replicate_values.std(ddof=1)),
        replicates=replicate_values,
        confidence=confidence,
    )


def jackknife_std_error(
    estimator: OffPolicyEstimator,
    new_policy: Policy,
    trace: Trace,
    old_policy: Optional[Policy] = None,
    max_leave_out: Optional[int] = None,
    rng=None,
) -> float:
    """Leave-one-out jackknife standard error of the estimator value.

    For long traces, *max_leave_out* caps the number of leave-one-out
    evaluations by sampling which records to leave out (a random-subset
    jackknife), keeping cost linear in the cap.
    """
    n = len(trace)
    if n < 3:
        raise EstimatorError("jackknife needs at least 3 records")
    indices = list(range(n))
    if max_leave_out is not None and max_leave_out < n:
        generator = ensure_rng(rng)
        indices = sorted(
            int(i)
            for i in generator.choice(n, size=max_leave_out, replace=False)
        )
    values = []
    degenerate = 0
    with span("jackknife", estimator=estimator.name):
        for leave_out in indices:
            reduced = trace.take(
                [index for index in range(n) if index != leave_out]
            )
            try:
                values.append(
                    estimator.estimate(new_policy, reduced, old_policy=old_policy).value
                )
            except EstimatorError:
                degenerate += 1
                continue
    if len(values) < 2:
        raise EstimatorError(
            f"too few successful jackknife evaluations "
            f"({degenerate} leave-outs raised EstimatorError)"
        )
    values_array = np.asarray(values, dtype=float)
    m = values_array.size
    return float(np.sqrt((m - 1) / m * ((values_array - values_array.mean()) ** 2).sum()))
