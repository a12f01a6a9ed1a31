"""WISE-style reward modelling: a CBN learned from the trace.

WISE (Tariq et al., the paper's [38]) answers what-if CDN deployment
questions by learning a Causal Bayesian Network from traces and running
inference on it.  The paper classifies this as a Direct Method whose
reward model is the CBN (§3).  :class:`WiseRewardModel` packages that
pipeline as a :class:`~repro.core.models.RewardModel`:

1. bin the continuous reward (response time) into quantile bins,
2. learn a CBN over context features + decision factors + reward bin
   (BIC hill-climbing — on small traces the learned structure is
   *incomplete*, the Fig 4 failure mode),
3. predict r̂(c, d) as the expected bin mean given the evidence.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.cbn.graph import BayesianNetwork
from repro.cbn.learning import StructureLearner
from repro.core.models.base import RewardModel
from repro.core.types import ClientContext, Decision, Trace
from repro.errors import ModelError

REWARD_VARIABLE = "__reward__"


def _coded(
    values: Sequence[Hashable], groups: np.ndarray
) -> Tuple[np.ndarray, Tuple[Hashable, ...]]:
    """One variable's per-record codes and first-seen domain, from its
    value in each group (groups in first-seen order) and each record's
    group code."""
    index: Dict[Hashable, int] = {}
    local = [index.setdefault(value, len(index)) for value in values]
    return np.asarray(local, dtype=np.intp)[groups], tuple(index)


class WiseRewardModel(RewardModel):
    """CBN-based reward model (the WISE evaluator's core).

    Parameters
    ----------
    decision_factors:
        Names for the components of the decision.  A scalar decision gets
        one name; a tuple decision (e.g. ``(fe, be)``) gets one name per
        element.
    reward_bins:
        Number of quantile bins for the reward variable.
    learner:
        Structure learner; default BIC hill-climbing with ≤3 parents.
    """

    def __init__(
        self,
        decision_factors: Sequence[str],
        reward_bins: int = 2,
        learner: Optional[StructureLearner] = None,
    ):
        super().__init__()
        if not decision_factors:
            raise ModelError("at least one decision factor name is required")
        if reward_bins < 2:
            raise ModelError(f"reward_bins must be >= 2, got {reward_bins}")
        self._decision_factors = tuple(decision_factors)
        self._reward_bins = reward_bins
        self._learner = learner or StructureLearner(max_parents=3)
        self._network: Optional[BayesianNetwork] = None
        self._bin_means: Dict[int, float] = {}
        self._bin_edges: Optional[np.ndarray] = None
        self._feature_names: Tuple[str, ...] = ()
        self._prediction_cache: Dict[Tuple[ClientContext, Decision], float] = {}

    @property
    def network(self) -> BayesianNetwork:
        """The learned CBN (inspectable: edges show what WISE inferred)."""
        if self._network is None:
            raise ModelError("model must be fit before reading the network")
        return self._network

    def _decision_values(self, decision: Decision) -> Tuple[Hashable, ...]:
        if len(self._decision_factors) == 1:
            return (decision,)
        if not isinstance(decision, tuple) or len(decision) != len(self._decision_factors):
            raise ModelError(
                f"decision {decision!r} does not match factors {self._decision_factors}"
            )
        return decision

    def _fit(self, trace: Trace) -> None:
        self._prediction_cache.clear()
        self._feature_names = trace.feature_names()
        overlap = set(self._feature_names) & set(self._decision_factors)
        if overlap:
            raise ModelError(
                f"decision factor names {sorted(overlap)} collide with context features"
            )
        rewards = trace.rewards()
        quantiles = np.linspace(0.0, 1.0, self._reward_bins + 1)
        edges = np.quantile(rewards, quantiles)
        edges = np.unique(edges)
        if len(edges) < 2:
            raise ModelError("rewards are constant; cannot bin for a CBN model")
        self._bin_edges = edges[:-1]  # searchsorted uses left edges
        bin_count = len(edges) - 1
        assignments = np.clip(
            np.searchsorted(self._bin_edges, rewards, side="right") - 1,
            0,
            bin_count - 1,
        )
        self._bin_means = {
            b: float(rewards[assignments == b].mean())
            for b in range(bin_count)
            if np.any(assignments == b)
        }
        # The dataset is coded straight from the columns: each distinct
        # context's features and each distinct decision's factors are
        # looked up once, then gathered per record.  Domains stay in
        # first-seen record order, as the learner infers them from rows.
        columns = trace.columns()
        context_codes, firsts = kernels.first_seen_codes(columns.context_codes)
        contexts = [columns.contexts[first] for first in firsts.tolist()]
        decision_codes, firsts = kernels.first_seen_codes(columns.decision_codes)
        factors = [
            self._decision_values(columns.decisions[first]) for first in firsts.tolist()
        ]
        codes: Dict[str, np.ndarray] = {}
        domains: Dict[str, Tuple[Hashable, ...]] = {}
        for name in self._feature_names:
            codes[name], domains[name] = _coded(
                [context[name] for context in contexts], context_codes
            )
        for position, name in enumerate(self._decision_factors):
            codes[name], domains[name] = _coded(
                [values[position] for values in factors], decision_codes
            )
        codes[REWARD_VARIABLE], firsts = kernels.first_seen_codes(assignments)
        domains[REWARD_VARIABLE] = tuple(assignments[firsts].tolist())
        self._network = self._learner.learn_codes(codes, domains)

    def reward_parents(self) -> Tuple[str, ...]:
        """Parents of the reward node in the learned CBN.

        An *incomplete* structure (missing a true dependency, as in
        Fig 4) shows up here — and tests assert on it.
        """
        return self.network.parents(REWARD_VARIABLE)

    def _predict(self, context: ClientContext, decision: Decision) -> float:
        # Exact inference repeats for every (context, decision) pair the
        # estimators ask about; contexts are categorical so the pairs
        # collapse to a few dozen distinct queries per trace.
        key = (context, decision)
        cached = self._prediction_cache.get(key)
        if cached is not None:
            return cached
        evidence: Dict[str, Hashable] = {
            name: context[name] for name in self._feature_names
        }
        for name, value in zip(
            self._decision_factors, self._decision_values(decision)
        ):
            evidence[name] = value
        # Drop evidence values outside the learned domains (unseen
        # categories): the CBN cannot condition on them.
        usable = {
            name: value
            for name, value in evidence.items()
            if value in self._network.domain(name)
        }
        posterior = self._network.query(REWARD_VARIABLE, usable)
        value = float(
            sum(
                probability * self._bin_means[bin_index]
                for bin_index, probability in posterior.items()
            )
        )
        self._prediction_cache[key] = value
        return value
