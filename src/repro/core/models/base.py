"""Reward model interface.

A reward model r̂(c, d) predicts the reward of decision *d* for client *c*
(paper §3).  It is the ingredient of the Direct Method and the model half
of the Doubly Robust estimator.  Models are fit on a :class:`Trace` and
queried per (context, decision) pair.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from repro import kernels
from repro.core.types import ClientContext, Decision, Trace
from repro.errors import ModelError
from repro.obs.spans import span


def check_batch_lengths(
    contexts: Sequence[ClientContext], decisions: Sequence[Decision]
) -> None:
    """Shared guard for the aligned-sequence batch prediction APIs."""
    if len(contexts) != len(decisions):
        raise ModelError(
            f"{len(contexts)} contexts but {len(decisions)} decisions"
        )


class RewardModel(abc.ABC):
    """Abstract reward model with an explicit fit/predict lifecycle."""

    def __init__(self) -> None:
        self._fitted = False

    @property
    def fitted(self) -> bool:
        """``True`` once :meth:`fit` has run."""
        return self._fitted

    def fit(self, trace: Trace) -> "RewardModel":
        """Fit the model on *trace* and return ``self`` (for chaining)."""
        if len(trace) == 0:
            raise ModelError("cannot fit a reward model on an empty trace")
        with span("model.fit", model=type(self).__name__):
            self._fit(trace)
        self._fitted = True
        return self

    @abc.abstractmethod
    def _fit(self, trace: Trace) -> None:
        """Subclass hook: fit on a non-empty trace."""

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise ModelError(
                f"{type(self).__name__} must be fit before calling predict()"
            )

    def predict(self, context: ClientContext, decision: Decision) -> float:
        """Predicted reward r̂(context, decision)."""
        self._require_fitted()
        return float(self._predict(context, decision))

    def predict_batch(
        self,
        contexts: Sequence[ClientContext],
        decisions: Sequence[Decision],
    ) -> np.ndarray:
        """Predicted rewards for aligned (context, decision) pairs.

        Loop-based default calling the scalar hook per pair; vectorized
        overrides must produce bit-identical floats.  Requires a fitted
        model (same contract as :meth:`predict`).
        """
        self._require_fitted()
        check_batch_lengths(contexts, decisions)
        return np.asarray(
            [
                float(self._predict(context, decision))
                for context, decision in zip(contexts, decisions)
            ],
            dtype=float,
        )

    @abc.abstractmethod
    def _predict(self, context: ClientContext, decision: Decision) -> float:
        """Subclass hook: predict for one (context, decision) pair."""

    def predict_trace(self, columns, positions=None) -> np.ndarray:
        """Predictions for the *logged* decisions of a columns view.

        *columns* is a :class:`~repro.core.types.TraceColumns`;
        *positions* optionally restricts the prediction to those record
        indices (in the given order).  The default asks
        :meth:`predict_batch` once per distinct (context, decision) pair
        and gathers the answers per record, which the batch contract
        (bit-identical to the scalar hook) makes exact; columnar models
        override this with a vectorised path that must stay bit-identical
        to the default.
        """
        return kernels.ask_distinct(
            self.predict_batch,
            (columns.context_codes, columns.decision_codes),
            (columns.contexts, columns.decisions),
            positions,
        )

    def predict_trace_for_decision(
        self, columns, decision: Decision, positions=None
    ) -> np.ndarray:
        """Predictions for one fixed *decision* across a columns view.

        This is the Direct-Method sweep's shape — one call per decision
        in the new policy's space — so columnar models can reuse their
        per-columns context encoding across the whole sweep.  Same
        contract as :meth:`predict_trace` otherwise: the default asks
        once per distinct context.
        """
        return kernels.ask_distinct(
            lambda contexts: self.predict_batch(contexts, [decision] * len(contexts)),
            (columns.context_codes,),
            (columns.contexts,),
            positions,
        )


class OracleRewardModel(RewardModel):
    """A reward model backed by a ground-truth function.

    Used in tests and ablations to realise the "reward model is accurate"
    special case of §3, in which DR must coincide with DM.  An optional
    additive ``bias`` turns it into a controllably-misspecified model for
    the second-order-bias ablation.
    """

    def __init__(self, truth, bias: float = 0.0):
        super().__init__()
        self._truth = truth
        self._bias = float(bias)
        self._fitted = True  # nothing to learn

    def _fit(self, trace: Trace) -> None:  # pragma: no cover - nothing to do
        pass

    def fit(self, trace: Trace) -> "OracleRewardModel":
        """No-op: the oracle needs no data."""
        return self

    def _predict(self, context: ClientContext, decision: Decision) -> float:
        return float(self._truth(context, decision)) + self._bias


class ConstantRewardModel(RewardModel):
    """Predicts the global mean reward of the training trace everywhere.

    The weakest sensible baseline model; useful as the "badly misspecified
    DM" corner in ablations.
    """

    def __init__(self) -> None:
        super().__init__()
        self._mean: Optional[float] = None

    def _fit(self, trace: Trace) -> None:
        self._mean = trace.mean_reward()

    def _predict(self, context: ClientContext, decision: Decision) -> float:
        return self._mean  # type: ignore[return-value]

    def predict_batch(
        self,
        contexts: Sequence[ClientContext],
        decisions: Sequence[Decision],
    ) -> np.ndarray:
        self._require_fitted()
        check_batch_lengths(contexts, decisions)
        return np.full(len(contexts), float(self._mean), dtype=float)
