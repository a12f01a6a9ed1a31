"""Estimator interface and result type.

Every off-policy estimator consumes a trace, a new policy and a source of
old-policy propensities, and returns an :class:`EstimateResult` carrying
the value estimate, per-record contributions (for variance/bootstrap),
and diagnostics.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro import kernels
from repro.core.contracts import check_trace_columns, check_weights
from repro.core.policy import Policy
from repro.core.propensity import PropensityModel, PropensitySource
from repro.core.types import Trace
from repro.errors import EstimatorError
from repro.obs.spans import observe, recording, set_gauge, span


@dataclass(frozen=True)
class EstimateResult:
    """The output of one estimator run.

    Attributes
    ----------
    value:
        The estimated expected reward ``V̂(mu_new, T)``.
    method:
        Estimator name (``"dm"``, ``"ips"``, ``"dr"``, ...).
    n:
        Number of trace records the estimate used.
    contributions:
        Per-record contributions whose mean is :attr:`value`.  Empty when
        an estimator cannot express itself as a per-record mean (e.g. the
        replay estimator over matched subsets reports matched
        contributions only).
    std_error:
        Standard error of the mean of :attr:`contributions` (``nan`` when
        fewer than two contributions exist).
    diagnostics:
        Free-form extras: effective sample size, weight range, match
        counts, and anything scenario-specific.
    """

    value: float
    method: str
    n: int
    contributions: np.ndarray = field(default_factory=lambda: np.zeros(0))
    std_error: float = float("nan")
    diagnostics: Dict[str, Any] = field(default_factory=dict)

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation confidence interval ``value ± z·stderr``."""
        if not np.isfinite(self.std_error):
            raise EstimatorError(
                "standard error unavailable; use bootstrap_ci for this estimator"
            )
        return (self.value - z * self.std_error, self.value + z * self.std_error)


def result_from_contributions(
    method: str,
    contributions: np.ndarray,
    diagnostics: Optional[Dict[str, Any]] = None,
) -> EstimateResult:
    """Build an :class:`EstimateResult` from per-record contributions."""
    contributions = np.asarray(contributions, dtype=float)
    if contributions.size == 0:
        raise EstimatorError(f"{method}: no contributions to average")
    value = float(contributions.mean())
    if contributions.size > 1:
        std_error = float(contributions.std(ddof=1) / np.sqrt(contributions.size))
    else:
        std_error = float("nan")
    return EstimateResult(
        value=value,
        method=method,
        n=int(contributions.size),
        contributions=contributions,
        std_error=std_error,
        diagnostics=dict(diagnostics or {}),
    )


class OffPolicyEstimator(abc.ABC):
    """Base class for trace-driven (off-policy) value estimators.

    Subclasses implement the three ``_stream_*`` hooks, and the public
    :meth:`estimate` runs them through the streaming engine
    (:func:`repro.store.streaming.stream_estimate`): an in-memory
    :class:`Trace` is one chunk at offset 0, a chunked trace is read
    chunk by chunk, and either way the engine validates each chunk and
    resolves the propensity source (old policy object > fitted
    propensity model > logged per-record propensities).  The fallback
    chain, whose value is no function of per-record columns, overrides
    :meth:`estimate` itself.
    """

    #: Whether the estimator needs old-policy propensities at all (the
    #: Direct Method does not).
    requires_propensities: bool = True

    #: Machine-readable names of this estimator's *anticipated* failure
    #: modes (contract violations it raises :class:`EstimatorError` for).
    #: Fallback chains (:mod:`repro.runtime.fallback`) attach these to
    #: their hop records so reports can distinguish an expected
    #: degradation from a surprising one.
    failure_modes: tuple = ()

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short estimator name used in reports."""

    def estimate(
        self,
        new_policy: Policy,
        trace: Trace,
        old_policy: Optional[Policy] = None,
        propensity_model: Optional[PropensityModel] = None,
        propensity_floor: Optional[float] = None,
    ) -> EstimateResult:
        """Estimate the value of *new_policy* from *trace*.

        Parameters mirror the paper's evaluator signature
        ``V̂(mu_new, mu_old, T)``; when *old_policy* is omitted the
        propensities come from *propensity_model* or the trace itself.
        *propensity_floor* opts into clipping tiny positive propensities
        (see :class:`~repro.core.propensity.FlooredPropensitySource`).
        The result is bit-identical for every chunking of the same
        records, an in-memory trace included.
        """
        with span("estimate", estimator=self.name):
            if len(trace) == 0:
                raise EstimatorError("cannot estimate from an empty trace")
            # Imported lazily — repro.store depends on repro.core.
            from repro.store.streaming import stream_estimate

            result = stream_estimate(
                self,
                new_policy,
                trace,
                old_policy=old_policy,
                propensity_model=propensity_model,
                propensity_floor=propensity_floor,
            )
            if recording():
                observe_estimate_metrics(result)
            return result

    def _stream_setup(self, new_policy: Policy, trace) -> None:
        """Once-per-estimate hook run before any chunk is scored.

        This is where reward models fit (*trace* may be a lazy
        ``ShardedTrace`` — fitting iterates it in bounded memory — and
        has not been validated yet).  The default does nothing, which
        suits the model-free estimators.
        """

    def _checked_chunk(self, new_policy, chunk, propensities, offset: int):
        """How the engine scores a chunk: its trace contracts (record
        indices made absolute by *offset*), then :meth:`_stream_chunk`."""
        check_trace_columns(
            chunk.columns(), where=f"{self.name} input trace", offset=offset
        )
        return self._stream_chunk(new_policy, chunk, propensities, offset)

    def _stream_chunk(
        self,
        new_policy: Policy,
        chunk: Trace,
        propensities: Optional[PropensitySource],
        offset: int,
    ) -> Dict[str, np.ndarray]:
        """Per-record columns for one chunk of the trace.

        Every returned array must have one entry per chunk record and be
        a pure elementwise function of that record (plus fitted state
        from :meth:`_stream_setup`) — that property is what makes the
        gathered columns, and therefore the final estimate, bit-identical
        for every chunking of the same trace.  *offset* is the chunk's
        absolute start position; cross-fitted models need it to pick the
        right fold for each record.
        """
        raise EstimatorError(
            f"{self.name} does not support streaming evaluation; "
            "materialise the trace first (ShardedTrace.materialize())"
        )

    def _stream_finalize(
        self, columns: Dict[str, np.ndarray], n: int
    ) -> EstimateResult:
        """Reduce the gathered per-record *columns* (each of length *n*,
        in trace order) to the final :class:`EstimateResult`.  All
        cross-record arithmetic — means, weight sums, self-normalisation
        denominators, clipping statistics — lives here, so every
        chunking reduces the same arrays."""
        raise EstimatorError(
            f"{self.name} does not support streaming evaluation; "
            "materialise the trace first (ShardedTrace.materialize())"
        )


def observe_estimate_metrics(result: EstimateResult) -> None:
    """Publish an estimate's weight-health diagnostics as metrics.

    Side-channel only: reads the already-computed ``diagnostics`` dict
    (see :func:`weight_diagnostics`) and records ``ope.weights.ess`` /
    ``ope.weights.max`` into the active telemetry recorders.  DM-style
    estimators without weight diagnostics publish nothing.
    """
    diagnostics = result.diagnostics
    ess = diagnostics.get("ess")
    if isinstance(ess, (int, float)):
        observe("ope.weights.ess", float(ess))
    max_weight = diagnostics.get("max_weight")
    if isinstance(max_weight, (int, float)):
        set_gauge("ope.weights.max", float(max_weight))


def importance_weights(
    new_policy: Policy,
    trace: Trace,
    propensities: PropensitySource,
) -> np.ndarray:
    """The weights ``mu_new(d_k|c_k) / mu_old(d_k|c_k)`` for each record.

    Evaluated through the batch APIs (one vectorized division instead of a
    per-record Python loop); validated once here — IPS-family callers must
    not re-run :func:`check_weights` on the returned array.
    """
    columns = trace.columns()
    old = propensities.propensity_batch(trace)
    new = new_policy.propensity_batch(columns.decisions, columns.contexts)
    return checked_importance_ratio(new, old)


def checked_importance_ratio(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """The validated ratio ``new / old`` of aligned propensity columns.

    The one place importance-weight arithmetic and its
    :func:`check_weights` contract live, shared by
    :func:`importance_weights` and the chunked overlap diagnostics.
    """
    weights = kernels.importance_ratio(new, old)
    return check_weights(weights, where="importance weights").values


def expected_model_rewards(
    new_policy: Policy, trace: Trace, model, fold_offset: Optional[int] = None
) -> np.ndarray:
    """The Direct-Method terms ``Σ_d mu_new(d|c_k) · r̂(c_k, d)`` per record.

    Predictions are requested only where ``mu_new(d|c) > 0`` (mirroring
    the scalar loops, which skipped zero-probability decisions), and the
    per-record terms accumulate in canonical decision-space order.  The
    *model* answers through its ``predict_trace_for_decision`` sweep
    (for a :class:`~repro.core.models.ensemble.CrossFitModel` that is
    the mean of its fold models).  Only DR's cross-fitting passes
    *fold_offset*, the trace's absolute start: the cross-fitted *model*
    then answers each record from the fold that held it out, picked by
    absolute position.
    """
    columns = trace.columns()
    contexts = columns.contexts
    matrix = new_policy.probability_matrix(contexts)
    terms = np.zeros(len(contexts), dtype=float)
    for column, decision in enumerate(new_policy.space.decisions):
        probabilities = matrix[:, column]
        mask = probabilities > 0.0
        if not mask.any():
            continue
        every = bool(mask.all())
        positions = np.arange(len(contexts)) if every else np.flatnonzero(mask)
        if fold_offset is not None:
            predictions = model.predict_batch_for_indices(
                positions + fold_offset,
                [contexts[position] for position in positions.tolist()],
                [decision] * len(positions),
            )
        else:
            predictions = model.predict_trace_for_decision(
                columns, decision, positions=None if every else positions
            )
        predictions = np.asarray(predictions, dtype=float)
        if every:
            terms = terms + probabilities * predictions
        else:
            terms[positions] = terms[positions] + probabilities[positions] * predictions
    return terms


def weight_diagnostics(weights: np.ndarray) -> Dict[str, float]:
    """Standard importance-weight health metrics.

    * ``ess`` — Kish effective sample size ``(Σw)² / Σw²``; far below n
      signals the coverage problem of §2.2.2.
    * ``max_weight`` / ``mean_weight`` — weight-tail indicators.
    * ``zero_weight_fraction`` — records the new policy would never take.
    """
    total = float(weights.sum())
    square_total = float((weights**2).sum())
    ess = total**2 / square_total if square_total > 0 else 0.0
    return {
        "ess": ess,
        "max_weight": float(weights.max(initial=0.0)),
        "mean_weight": float(weights.mean()) if weights.size else 0.0,
        "zero_weight_fraction": float((weights == 0).mean()) if weights.size else 0.0,
    }
