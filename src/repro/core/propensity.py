"""Propensity sources: where ``mu_old(d_k | c_k)`` comes from.

The paper assumes the old policy's propensities are known, noting that
"in practice, it may be necessary to estimate this probability from the
trace" (§2.1).  This module covers all three situations:

* :class:`PolicyPropensitySource` — the old policy object is available;
  query it directly.
* :class:`LoggedPropensitySource` — propensities were logged per record.
* :class:`EmpiricalPropensityModel` / :class:`LogisticPropensityModel` —
  estimate propensities from the trace itself.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.contracts import PROPENSITY_UPPER_SLACK, check_propensity
from repro.core.models.featurize import OneHotEncoder, Standardizer
from repro.core.policy import Policy
from repro.core.spaces import DecisionSpace
from repro.core.types import ClientContext, Decision, Trace, TraceRecord
from repro.errors import PropensityError


class PropensitySource(abc.ABC):
    """Provides ``mu_old(decision | context)`` for trace records."""

    @abc.abstractmethod
    def propensity(self, record: TraceRecord, index: int) -> float:
        """Logging propensity for the *index*-th trace record."""

    def propensity_batch(self, trace: Trace) -> np.ndarray:
        """Logging propensities for a whole trace, in record order.

        Loop-based default calling :meth:`propensity` per record; overrides
        must return bit-identical values and raise the same error as the
        loop would at the first offending record.
        """
        return np.asarray(
            [self.propensity(record, index) for index, record in enumerate(trace)],
            dtype=float,
        )

    def _ask(self, trace: Trace, ask, *args) -> np.ndarray:
        """``ask(*args)``, a batch ask about *trace*.  When it raises, the
        scalar loop reruns first, so an earlier record's error (a zero
        propensity, say) wins over a later record's failed ask."""
        try:
            return ask(*args)
        except Exception:
            PropensitySource.propensity_batch(self, trace)
            raise

    def validate_positive(self, value: float, record: TraceRecord) -> float:
        """Guard against zero/negative propensities, which break IPS/DR."""
        return check_propensity(
            value, where=f"propensity of decision {record.decision!r}"
        )

    def validate_positive_batch(self, values: np.ndarray, trace: Trace) -> np.ndarray:
        """Vectorized :meth:`validate_positive` over a whole trace.

        Finds the first record a scalar scan would reject and re-raises
        through the scalar check so the error message is identical.
        """
        bad = (
            ~np.isfinite(values)
            | (values <= 0.0)
            | (values > 1.0 + PROPENSITY_UPPER_SLACK)
        )
        if bad.any():
            index = int(np.flatnonzero(bad)[0])
            self.validate_positive(float(values[index]), trace[index])
        return values


class PolicyPropensitySource(PropensitySource):
    """Query a known old :class:`Policy` object."""

    def __init__(self, policy: Policy):
        self.policy = policy

    def propensity(self, record: TraceRecord, index: int) -> float:
        value = self.policy.propensity(record.decision, record.context)
        return self.validate_positive(value, record)

    def propensity_batch(self, trace: Trace) -> np.ndarray:
        columns = trace.columns()
        values = self._ask(
            trace, self.policy.propensity_batch, columns.decisions, columns.contexts
        )
        return self.validate_positive_batch(values, trace)


class LoggedPropensitySource(PropensitySource):
    """Use the per-record ``propensity`` field written at logging time."""

    def propensity(self, record: TraceRecord, index: int) -> float:
        if record.propensity is None:
            raise PropensityError(
                f"trace record {index} carries no logged propensity; either "
                "log propensities, pass the old policy, or fit a propensity model"
            )
        return self.validate_positive(record.propensity, record)

    def propensity_batch(self, trace: Trace) -> np.ndarray:
        # The propensity column stores a missing logged value as nan (a
        # logged nan cannot occur: TraceRecord rejects it at construction).
        values = trace.columns().propensities
        missing = np.isnan(values)
        if missing.any():
            index = int(np.flatnonzero(missing)[0])
            raise PropensityError(
                f"trace record {index} carries no logged propensity; either "
                "log propensities, pass the old policy, or fit a propensity model"
            )
        return self.validate_positive_batch(values.copy(), trace)


class EstimatedPropensitySource(PropensitySource):
    """Adapter turning a fitted propensity *model* into a source."""

    def __init__(self, model: "PropensityModel"):
        if not model.fitted:
            raise PropensityError("propensity model must be fit first")
        self._model = model

    def propensity(self, record: TraceRecord, index: int) -> float:
        value = self._model.propensity(record.decision, record.context)
        return self.validate_positive(value, record)

    def propensity_batch(self, trace: Trace) -> np.ndarray:
        # A fitted model is a function of (decision, context), so each
        # distinct pair is asked once, in first-seen order.
        columns = trace.columns()
        values = self._ask(
            trace,
            kernels.ask_distinct,
            self._model.propensity_batch,
            (columns.decision_codes, columns.context_codes),
            (columns.decisions, columns.contexts),
        )
        return self.validate_positive_batch(values, trace)


class FlooredPropensitySource(PropensitySource):
    """Wrap a source, clipping tiny-but-positive propensities up to a floor.

    The floor trades a controlled amount of bias for bounded IPS/DR
    variance — the guard the paper's §4.1 calls for when the logging
    policy's exploration is thin.  Zero and negative propensities still
    raise (validated here in addition to the wrapped source's own
    contract, so the guard holds for user-provided sources too); only
    values in ``(0, floor)`` are clipped.  :attr:`clip_count` reports how often the
    floor fired, so callers can surface it as a diagnostic.
    """

    def __init__(self, inner: PropensitySource, floor: float):
        if not 0.0 < floor < 1.0:
            raise PropensityError(
                f"propensity floor must lie in (0, 1), got {floor}"
            )
        self._inner = inner
        self._floor = float(floor)
        self._clip_count = 0

    @property
    def floor(self) -> float:
        """The clipping threshold."""
        return self._floor

    @property
    def clip_count(self) -> int:
        """How many queried propensities were raised to the floor."""
        return self._clip_count

    def propensity(self, record: TraceRecord, index: int) -> float:
        # Validate before flooring: the wrapped source may be
        # user-provided, and zero/negative propensities must raise rather
        # than be clipped up into silently biased weights.
        value = self.validate_positive(self._inner.propensity(record, index), record)
        if value < self._floor:
            self._clip_count += 1
            return self._floor
        return value

    def propensity_batch(self, trace: Trace) -> np.ndarray:
        values = self.validate_positive_batch(
            self._inner.propensity_batch(trace), trace
        )
        clipped = values < self._floor
        count = int(np.count_nonzero(clipped))
        if count:
            self._clip_count += count
            values = np.where(clipped, self._floor, values)
        return values


def resolve_propensity_source(
    trace: Trace,
    old_policy: Optional[Policy] = None,
    propensity_model: Optional["PropensityModel"] = None,
    floor: Optional[float] = None,
) -> PropensitySource:
    """Pick the best available propensity source.

    Preference order: explicit old policy > fitted estimation model >
    per-record logged propensities.  With a *floor*, the chosen source is
    wrapped in a :class:`FlooredPropensitySource`.
    """
    source: PropensitySource
    if old_policy is not None:
        source = PolicyPropensitySource(old_policy)
    elif propensity_model is not None:
        source = EstimatedPropensitySource(propensity_model)
    elif trace.has_propensities():
        source = LoggedPropensitySource()
    else:
        raise PropensityError(
            "no propensity source available: pass old_policy, a fitted "
            "propensity model, or a trace with logged propensities"
        )
    if floor is not None:
        source = FlooredPropensitySource(source, floor)
    return source


class PropensityModel(abc.ABC):
    """A model of the old policy estimated from the trace."""

    def __init__(self) -> None:
        self._fitted = False

    @property
    def fitted(self) -> bool:
        """``True`` once :meth:`fit` has run."""
        return self._fitted

    def fit(self, trace: Trace) -> "PropensityModel":
        """Fit on *trace* and return ``self``."""
        if len(trace) == 0:
            raise PropensityError("cannot fit a propensity model on an empty trace")
        self._fit(trace)
        self._fitted = True
        return self

    @abc.abstractmethod
    def _fit(self, trace: Trace) -> None:
        """Subclass hook."""

    def propensity(self, decision: Decision, context: ClientContext) -> float:
        """Estimated ``mu_old(decision | context)``."""
        if not self._fitted:
            raise PropensityError("propensity model must be fit before use")
        return float(self._propensity(decision, context))

    def propensity_batch(self, decisions, contexts) -> np.ndarray:
        """Estimated propensities for parallel decision/context sequences.

        Loop-based default over :meth:`propensity`; overrides must return
        bit-identical values and raise the same error at the first
        offending pair.
        """
        return np.asarray(
            [
                self.propensity(decision, context)
                for decision, context in zip(decisions, contexts)
            ],
            dtype=float,
        )

    @abc.abstractmethod
    def _propensity(self, decision: Decision, context: ClientContext) -> float:
        """Subclass hook."""


class EmpiricalPropensityModel(PropensityModel):
    """Bucketed empirical decision frequencies with Laplace smoothing.

    Buckets contexts by *key_features* (default: full schema) and counts
    decision frequencies per bucket.  Smoothing keeps every decision's
    estimated propensity positive, as IPS/DR require.
    """

    def __init__(
        self,
        space: DecisionSpace,
        key_features: Optional[Sequence[str]] = None,
        smoothing: float = 1.0,
    ):
        super().__init__()
        if smoothing <= 0:
            raise PropensityError(
                f"smoothing must be positive to keep propensities positive, got {smoothing}"
            )
        self._space = space
        self._requested_keys = tuple(key_features) if key_features is not None else None
        self._smoothing = float(smoothing)
        self._counts: Dict[Tuple[Hashable, ...], Dict[Decision, int]] = {}
        self._keys: Tuple[str, ...] = ()

    def _fit(self, trace: Trace) -> None:
        self._keys = (
            self._requested_keys
            if self._requested_keys is not None
            else trace.feature_names()
        )
        self._counts = {}
        for record in trace:
            key = record.context.values_for(self._keys)
            bucket = self._counts.setdefault(key, {})
            bucket[record.decision] = bucket.get(record.decision, 0) + 1

    def _propensity(self, decision: Decision, context: ClientContext) -> float:
        self._space.validate(decision)
        key = context.values_for(self._keys)
        bucket = self._counts.get(key, {})
        total = sum(bucket.values())
        count = bucket.get(decision, 0)
        smoothed = (count + self._smoothing) / (
            total + self._smoothing * len(self._space)
        )
        return smoothed


class LogisticPropensityModel(PropensityModel):
    """Multinomial logistic regression fit by batch gradient descent.

    Operates on the one-hot/standardised context encoding; the decision is
    the class label.  Suitable when the old policy is a smooth function of
    context features rather than a per-bucket lookup.
    """

    def __init__(
        self,
        space: DecisionSpace,
        learning_rate: float = 0.5,
        iterations: int = 500,
        l2: float = 1e-3,
    ):
        super().__init__()
        if learning_rate <= 0:
            raise PropensityError(f"learning_rate must be positive, got {learning_rate}")
        if iterations <= 0:
            raise PropensityError(f"iterations must be positive, got {iterations}")
        self._space = space
        self._learning_rate = learning_rate
        self._iterations = iterations
        self._l2 = l2
        self._encoder = OneHotEncoder(include_decision=False)
        self._standardizer = Standardizer()
        self._weights: Optional[np.ndarray] = None  # (n_decisions, dim + 1)

    def _fit(self, trace: Trace) -> None:
        self._encoder.fit(trace)
        raw = np.vstack([self._encoder.encode(record.context) for record in trace])
        self._standardizer.fit(raw)
        features = self._standardizer.transform(raw)
        design = np.hstack([features, np.ones((features.shape[0], 1))])
        labels = np.asarray(
            [self._space.index_of(record.decision) for record in trace], dtype=int
        )
        n_classes = len(self._space)
        n_samples, dim = design.shape
        weights = np.zeros((n_classes, dim))
        one_hot = np.zeros((n_samples, n_classes))
        one_hot[np.arange(n_samples), labels] = 1.0
        for _ in range(self._iterations):
            logits = design @ weights.T
            logits -= logits.max(axis=1, keepdims=True)
            probabilities = np.exp(logits)
            probabilities /= probabilities.sum(axis=1, keepdims=True)
            gradient = (probabilities - one_hot).T @ design / n_samples
            gradient += self._l2 * weights
            weights -= self._learning_rate * gradient
        self._weights = weights

    def distribution(self, context: ClientContext) -> Dict[Decision, float]:
        """Full estimated decision distribution for *context*."""
        if not self._fitted:
            raise PropensityError("propensity model must be fit before use")
        raw = self._encoder.encode(context)
        features = self._standardizer.transform(raw)
        design = np.concatenate([features, [1.0]])
        logits = self._weights @ design
        logits -= logits.max()
        probabilities = np.exp(logits)
        probabilities /= probabilities.sum()
        return {
            decision: float(probability)
            for decision, probability in zip(self._space, probabilities)
        }

    def _propensity(self, decision: Decision, context: ClientContext) -> float:
        self._space.validate(decision)
        return self.distribution(context)[decision]
