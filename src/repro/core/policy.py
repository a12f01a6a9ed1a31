"""Policies: mappings from client contexts to decision distributions.

Paper §2.1: *"a policy returns mu(d|c), the probability of choosing the
decision d for client c, and sum_d mu(d|c) = 1."*

All policies here are **stationary** — the distribution depends only on
the current context.  History-dependent policies live in
:mod:`repro.core.history`.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.random import choice_from_probabilities, ensure_rng
from repro.core.spaces import DecisionSpace
from repro.core.types import ClientContext, Decision
from repro.errors import PolicyError

_PROBABILITY_ATOL = 1e-6


def validate_distribution(
    distribution: Mapping[Decision, float],
    space: Optional[DecisionSpace] = None,
) -> Dict[Decision, float]:
    """Check a decision distribution and return it as a plain dict.

    Raises :class:`PolicyError` on negative probabilities, probabilities
    not summing to one, or decisions outside *space* (when given).
    """
    total = 0.0
    for decision, probability in distribution.items():
        if probability < -_PROBABILITY_ATOL:
            raise PolicyError(
                f"negative probability {probability} for decision {decision!r}"
            )
        if space is not None:
            space.validate(decision)
        total += probability
    if not math.isclose(total, 1.0, abs_tol=1e-4):
        raise PolicyError(f"decision probabilities sum to {total}, expected 1.0")
    return dict(distribution)


class Policy(abc.ABC):
    """Abstract stationary policy.

    Subclasses implement :meth:`probabilities`; sampling and propensity
    lookup are derived from it.
    """

    def __init__(self, space: DecisionSpace):
        self._space = space

    @property
    def space(self) -> DecisionSpace:
        """The decision space this policy acts over."""
        return self._space

    @abc.abstractmethod
    def probabilities(self, context: ClientContext) -> Dict[Decision, float]:
        """Full decision distribution ``mu(. | context)``.

        Must assign a probability to every decision in :attr:`space`
        (zero entries may be omitted) and sum to one.
        """

    def propensity(self, decision: Decision, context: ClientContext) -> float:
        """``mu(decision | context)`` — zero when the decision is never taken."""
        self._space.validate(decision)
        return self.probabilities(context).get(decision, 0.0)

    # -- batch API ----------------------------------------------------------
    #
    # The batch methods are the vectorization seam: estimators call them on
    # whole traces.  A family overrides probability_matrix alone, with numpy
    # that produces bit-identical floats to the loop default below — same
    # operations, in the same order, per element.  propensity_batch and
    # greedy_decision_batch are derived from the matrix, so a policy family
    # answers each batch question from one place.

    def propensity_batch(
        self,
        decisions: Sequence[Decision],
        contexts: Sequence[ClientContext],
    ) -> np.ndarray:
        """``mu(d_k | c_k)`` for aligned decision/context sequences.

        Each record's logged-decision entry of :meth:`probability_matrix`,
        after every decision is checked against the space.
        """
        if len(decisions) != len(contexts):
            raise PolicyError(
                f"{len(decisions)} decisions but {len(contexts)} contexts"
            )
        index_of = self._space.index_of
        columns = np.fromiter(
            (index_of(decision) for decision in decisions),
            dtype=np.intp,
            count=len(decisions),
        )
        matrix = self.probability_matrix(contexts)
        return matrix[np.arange(len(columns)), columns]

    def probability_matrix(self, contexts: Sequence[ClientContext]) -> np.ndarray:
        """``mu(d | c_k)`` as an ``(n, |space|)`` matrix in space order.

        Loop-based default; overrides must match it bit for bit.
        """
        decisions = self._space.decisions
        matrix = np.zeros((len(contexts), len(decisions)), dtype=float)
        for row, context in enumerate(contexts):
            distribution = self.probabilities(context)
            for column, decision in enumerate(decisions):
                matrix[row, column] = distribution.get(decision, 0.0)
        return matrix

    def greedy_decision_batch(
        self, contexts: Sequence[ClientContext]
    ) -> List[Decision]:
        """:meth:`greedy_decision` for every context.

        Implemented as a column scan over :meth:`probability_matrix` that
        replays the scalar scan exactly (same comparisons, same tolerance,
        same space-order tie-breaking), so it is bit-identical to the loop
        whenever the matrix is.
        """
        matrix = self.probability_matrix(contexts)
        count = len(contexts)
        best = np.full(count, -1.0)
        choice = np.zeros(count, dtype=np.intp)
        for column in range(matrix.shape[1]):
            better = matrix[:, column] > best + _PROBABILITY_ATOL
            choice[better] = column
            best[better] = matrix[better, column]
        decisions = self._space.decisions
        return [decisions[index] for index in choice]

    def sample(self, context: ClientContext, rng) -> Decision:
        """Draw one decision for *context* using *rng* (seed or Generator)."""
        generator = ensure_rng(rng)
        distribution = self.probabilities(context)
        decisions = list(distribution.keys())
        probabilities = [distribution[d] for d in decisions]
        return choice_from_probabilities(generator, decisions, probabilities)

    def is_deterministic_for(self, context: ClientContext) -> bool:
        """``True`` when the policy puts all mass on a single decision."""
        distribution = self.probabilities(context)
        return any(
            math.isclose(p, 1.0, abs_tol=_PROBABILITY_ATOL)
            for p in distribution.values()
        )

    def greedy_decision(self, context: ClientContext) -> Decision:
        """The most probable decision for *context* (ties broken by space order)."""
        distribution = self.probabilities(context)
        best_decision = None
        best_probability = -1.0
        for decision in self._space:
            probability = distribution.get(decision, 0.0)
            if probability > best_probability + _PROBABILITY_ATOL:
                best_decision = decision
                best_probability = probability
        return best_decision


class DeterministicPolicy(Policy):
    """Wraps a function ``context -> decision`` with probability one.

    Most production networking policies are deterministic ("designed to
    optimize performance or save cost", §4.1) — which is precisely what
    breaks IPS-style estimation when used as the *logging* policy.
    """

    def __init__(self, space: DecisionSpace, rule: Callable[[ClientContext], Decision]):
        super().__init__(space)
        self._rule = rule

    def probabilities(self, context: ClientContext) -> Dict[Decision, float]:
        decision = self._rule(context)
        self._space.validate(decision)
        return {decision: 1.0}

    def probability_matrix(self, contexts: Sequence[ClientContext]) -> np.ndarray:
        # One rule call and one validate per context, as probabilities()
        # does, then a one-hot row: the base loop's dict scan yields
        # exactly 1.0 in the chosen decision's column and 0.0 elsewhere.
        columns = np.empty(len(contexts), dtype=np.intp)
        for row, context in enumerate(contexts):
            decision = self._rule(context)
            self._space.validate(decision)
            columns[row] = self._space.index_of(decision)
        matrix = np.zeros((len(contexts), len(self._space)), dtype=float)
        matrix[np.arange(len(contexts)), columns] = 1.0
        return matrix


class UniformRandomPolicy(Policy):
    """Chooses uniformly at random — the fully randomised logging policy
    CFA's original evaluation assumes (§4.2)."""

    def probabilities(self, context: ClientContext) -> Dict[Decision, float]:
        probability = 1.0 / len(self._space)
        return {decision: probability for decision in self._space}

    def probability_matrix(self, contexts: Sequence[ClientContext]) -> np.ndarray:
        return np.full(
            (len(contexts), len(self._space)), 1.0 / len(self._space), dtype=float
        )


class EpsilonGreedyPolicy(Policy):
    """Follows a base policy with probability ``1 - epsilon`` and explores
    uniformly with probability ``epsilon``.

    This is the "introduce randomness where impact on overall performance
    is small" remedy of §4.1.
    """

    def __init__(self, base: Policy, epsilon: float):
        if not 0.0 <= epsilon <= 1.0:
            raise PolicyError(f"epsilon must lie in [0, 1], got {epsilon}")
        super().__init__(base.space)
        self._base = base
        self._epsilon = epsilon

    @property
    def epsilon(self) -> float:
        """The exploration probability."""
        return self._epsilon

    def probabilities(self, context: ClientContext) -> Dict[Decision, float]:
        exploration = self._epsilon / len(self._space)
        distribution = {decision: exploration for decision in self._space}
        for decision, probability in self._base.probabilities(context).items():
            distribution[decision] += (1.0 - self._epsilon) * probability
        return distribution

    def probability_matrix(self, contexts: Sequence[ClientContext]) -> np.ndarray:
        exploration = self._epsilon / len(self._space)
        base = self._base.probability_matrix(contexts)
        return exploration + (1.0 - self._epsilon) * base


class SoftmaxPolicy(Policy):
    """Boltzmann distribution over a per-decision score function.

    ``mu(d|c) ∝ exp(score(c, d) / temperature)``.  Lower temperatures
    approach the greedy policy; higher temperatures approach uniform.
    """

    def __init__(
        self,
        space: DecisionSpace,
        score: Callable[[ClientContext, Decision], float],
        temperature: float = 1.0,
    ):
        if temperature <= 0.0:
            raise PolicyError(f"temperature must be positive, got {temperature}")
        super().__init__(space)
        self._score = score
        self._temperature = temperature

    def probabilities(self, context: ClientContext) -> Dict[Decision, float]:
        scores = np.asarray(
            [self._score(context, decision) for decision in self._space], dtype=float
        )
        scaled = scores / self._temperature
        scaled -= scaled.max()  # numerical stability
        weights = np.exp(scaled)
        weights /= weights.sum()
        return {
            decision: float(weight)
            for decision, weight in zip(self._space, weights)
        }

    def probability_matrix(self, contexts: Sequence[ClientContext]) -> np.ndarray:
        decisions = self._space.decisions
        scores = np.empty((len(contexts), len(decisions)), dtype=float)
        for row, context in enumerate(contexts):
            for column, decision in enumerate(decisions):
                scores[row, column] = self._score(context, decision)
        scaled = scores / self._temperature
        scaled -= scaled.max(axis=1, keepdims=True)
        weights = np.exp(scaled)
        weights /= weights.sum(axis=1, keepdims=True)
        return weights


class MixturePolicy(Policy):
    """Convex combination of several policies over the same space."""

    def __init__(self, components: Sequence[Policy], weights: Sequence[float]):
        if len(components) != len(weights):
            raise PolicyError(
                f"{len(components)} components but {len(weights)} weights"
            )
        if not components:
            raise PolicyError("a mixture needs at least one component")
        if any(w < 0 for w in weights):
            raise PolicyError("mixture weights must be non-negative")
        total = float(sum(weights))
        if not math.isclose(total, 1.0, abs_tol=1e-6):
            raise PolicyError(f"mixture weights sum to {total}, expected 1.0")
        space = components[0].space
        for component in components[1:]:
            if component.space != space:
                raise PolicyError("mixture components must share a decision space")
        super().__init__(space)
        self._components = tuple(components)
        self._weights = tuple(float(w) for w in weights)

    def probabilities(self, context: ClientContext) -> Dict[Decision, float]:
        distribution: Dict[Decision, float] = {}
        for component, weight in zip(self._components, self._weights):
            if weight == 0.0:
                continue
            for decision, probability in component.probabilities(context).items():
                distribution[decision] = (
                    distribution.get(decision, 0.0) + weight * probability
                )
        return distribution

    def probability_matrix(self, contexts: Sequence[ClientContext]) -> np.ndarray:
        # Accumulates weight * component probability in component order —
        # the same additions, per element, as the scalar dict accumulation
        # (entries a component omits contribute an exact + 0.0).
        matrix = np.zeros((len(contexts), len(self._space)), dtype=float)
        for component, weight in zip(self._components, self._weights):
            if weight == 0.0:
                continue
            matrix = matrix + weight * component.probability_matrix(contexts)
        return matrix


class TabularPolicy(Policy):
    """Distribution looked up by a tuple of context features.

    The table maps ``context.values_for(key_features)`` to a decision
    distribution; a default distribution covers unseen keys.
    """

    def __init__(
        self,
        space: DecisionSpace,
        key_features: Sequence[str],
        table: Mapping[Tuple[Hashable, ...], Mapping[Decision, float]],
        default: Optional[Mapping[Decision, float]] = None,
    ):
        super().__init__(space)
        self._key_features = tuple(key_features)
        self._table = {
            key: validate_distribution(distribution, space)
            for key, distribution in table.items()
        }
        self._default = (
            validate_distribution(default, space) if default is not None else None
        )

    def probabilities(self, context: ClientContext) -> Dict[Decision, float]:
        return dict(self._row_for(context))

    def _row_for(self, context: ClientContext) -> Mapping[Decision, float]:
        key = context.values_for(self._key_features)
        distribution = self._table.get(key)
        if distribution is not None:
            return distribution
        if self._default is not None:
            return self._default
        raise PolicyError(
            f"no table entry for context key {key!r} and no default distribution"
        )

    def probability_matrix(self, contexts: Sequence[ClientContext]) -> np.ndarray:
        matrix = np.zeros((len(contexts), len(self._space)), dtype=float)
        column_of = {
            decision: column for column, decision in enumerate(self._space.decisions)
        }
        for row, context in enumerate(contexts):
            for decision, probability in self._row_for(context).items():
                matrix[row, column_of[decision]] = probability
        return matrix


class FunctionPolicy(Policy):
    """Wraps an arbitrary ``context -> distribution`` function.

    The returned distribution is validated on every call, so buggy
    user-supplied functions fail loudly rather than biasing estimates.
    """

    def __init__(
        self,
        space: DecisionSpace,
        function: Callable[[ClientContext], Mapping[Decision, float]],
    ):
        super().__init__(space)
        self._function = function

    def probabilities(self, context: ClientContext) -> Dict[Decision, float]:
        return validate_distribution(self._function(context), self._space)


class GreedyModelPolicy(Policy):
    """Deterministically picks the decision a reward model predicts best.

    This is the canonical "new policy" built from a data-driven prediction
    model (§1): fit a model on the trace, then act greedily on it.
    """

    def __init__(self, space: DecisionSpace, model) -> None:
        super().__init__(space)
        self._model = model

    def probabilities(self, context: ClientContext) -> Dict[Decision, float]:
        best_decision = None
        best_prediction = -np.inf
        for decision in self._space:
            prediction = float(self._model.predict(context, decision))
            if prediction > best_prediction:
                best_decision = decision
                best_prediction = prediction
        return {best_decision: 1.0}

    def probability_matrix(self, contexts: Sequence[ClientContext]) -> np.ndarray:
        # Strict ``>`` against the running best, scanning decisions in
        # space order — the same first-max tie-breaking as the scalar loop.
        count = len(contexts)
        best = np.full(count, -np.inf)
        choice = np.zeros(count, dtype=np.intp)
        for column, decision in enumerate(self._space.decisions):
            predictions = np.asarray(
                self._model.predict_batch(contexts, [decision] * count), dtype=float
            )
            better = predictions > best
            choice[better] = column
            best = np.where(better, predictions, best)
        matrix = np.zeros((count, len(self._space)), dtype=float)
        matrix[np.arange(count), choice] = 1.0
        return matrix
