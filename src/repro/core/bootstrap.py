"""Resampling-based uncertainty for estimator values.

The paper uses min/max over repeated simulation runs to show estimator
spread (Fig 7).  For a single real trace, the bootstrap provides the
analogous spread: resample records with replacement, re-evaluate the
estimator on the resample, and read quantiles off the resampled values.

The trace is scored once: re-evaluating a stream estimator on a resample
is its ``_stream_finalize`` over the point estimate's per-record columns
at the resampled positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.estimators.base import OffPolicyEstimator, streams
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


def _resampled(
    estimator, new_policy, trace, old_policy, propensity_model, draws
) -> Tuple[float, np.ndarray, int]:
    """Score *trace* once, then re-evaluate on each index array
    ``draws(n)`` yields over the n records scored (a quarantined reader's
    survivors): ``(point estimate, values, resamples that raised)``."""
    inputs = {"old_policy": old_policy, "propensity_model": propensity_model}
    if not streams(estimator):
        # No stream hooks (fallback chain, replay-DR, state-aware DR): re-estimate.
        point, n = estimator.estimate(new_policy, trace, **inputs).value, len(trace)

        def resample(indices):
            return estimator.estimate(new_policy, trace.take(indices), **inputs).value

    else:
        # Imported lazily — repro.store depends on repro.core.
        from repro.store.streaming import PanelPass

        panel = PanelPass.covering(
            new_policy, trace, old_policy, propensity_model, estimator
        )
        point, columns = panel.estimate(estimator).value, panel.columns(estimator)
        n = len(next(iter(columns.values())))

        def resample(indices):
            taken = {key: column[indices] for key, column in columns.items()}
            return estimator._stream_finalize(taken, len(indices)).value

    values, degenerate = [], 0
    for indices in draws(n):
        try:
            values.append(resample(indices))
        except EstimatorError:
            degenerate += 1
    return point, np.asarray(values, dtype=float), degenerate


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

    Each replicate resamples the records with replacement (the survivors,
    on a reader opened with ``on_corruption="quarantine"``).  A reward
    model is *not* refit per replicate: the model the point estimate fit
    on *trace* scores every replicate, a cross-fitted one from the fold
    that held each record out, so the interval omits model-fitting
    variability.  Replicates on which the estimator fails (e.g. a
    resample with no overlap) are skipped; if fewer than half survive, an
    :class:`EstimatorError` is raised.
    """
    if replicates < 2:
        raise EstimatorError(f"need at least 2 replicates, got {replicates}")
    if not 0.0 < confidence < 1.0:
        raise EstimatorError(f"confidence must lie in (0, 1), got {confidence}")
    generator = ensure_rng(rng)

    def draws(n):
        return (generator.integers(0, n, size=n) for _ in range(replicates))

    with span("bootstrap", estimator=estimator.name, replicates=replicates):
        point, values, degenerate = _resampled(
            estimator, new_policy, trace, old_policy, propensity_model, draws
        )
    if values.size < replicates / 2:
        raise EstimatorError(
            f"only {values.size}/{replicates} bootstrap replicates succeeded "
            f"({degenerate} degenerate resamples); the trace has too little "
            "overlap for stable resampling"
        )
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.quantile(values, [alpha, 1.0 - alpha])
    return BootstrapResult(
        point_estimate=point,
        lower=float(lower),
        upper=float(upper),
        std=float(values.std(ddof=1)),
        replicates=values,
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

    An unfitted reward model fits once, on every record.  For long
    traces, *max_leave_out* caps the number of leave-one-out evaluations
    by sampling which records to leave out (a random-subset jackknife).
    """
    if len(trace) < 3:
        raise EstimatorError("jackknife needs at least 3 records")

    def leave_outs(n):
        kept = range(n)
        if max_leave_out is not None and max_leave_out < n:
            kept = sorted(ensure_rng(rng).choice(n, size=max_leave_out, replace=False))
        return (np.delete(np.arange(n), leave_out) for leave_out in kept)

    with span("jackknife", estimator=estimator.name):
        _, values, degenerate = _resampled(
            estimator, new_policy, trace, old_policy, None, leave_outs
        )
    if values.size < 2:
        raise EstimatorError(
            f"too few successful jackknife evaluations "
            f"({degenerate} leave-outs raised EstimatorError)"
        )
    m = values.size
    return float(np.sqrt((m - 1) / m * ((values - values.mean()) ** 2).sum()))
