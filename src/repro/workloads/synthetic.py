"""Generic synthetic contextual-decision workloads for the ablations.

A configurable ground-truth reward surface over categorical contexts and
discrete decisions, with controllable interaction strength (model
misspecification pressure), context dimensionality (curse of
dimensionality, §2.2.2/§3), logging randomness (§4.1), and noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.core.policy import (
    DeterministicPolicy,
    EpsilonGreedyPolicy,
    Policy,
    UniformRandomPolicy,
)
from repro.core.spaces import DecisionSpace
from repro.core.types import ClientContext, Decision, Trace, TraceRecord
from repro.errors import SimulationError
from repro.netsim.population import CategoricalFeature, ClientPopulation


@dataclass(frozen=True)
class SyntheticWorkload:
    """A reproducible synthetic decision problem.

    The true reward is

    ``r(c, d) = decision_effect[d] + Σ_f feature_effect[f, c_f]
                + interaction_scale · interaction[(c_key, d)]``

    where ``c_key`` is the tuple of all feature values, so interactions
    are completely unstructured (the hardest case for additive models).

    Parameters
    ----------
    n_features:
        Number of categorical context features.
    cardinality:
        Values per feature (context cells = cardinality ** n_features).
    n_decisions:
        Size of the decision space.
    interaction_scale:
        Strength of the unstructured context x decision interaction.
    noise_scale:
        Observation noise.
    effect_seed:
        Seed for the fixed random effect tables.
    """

    n_features: int = 3
    cardinality: int = 4
    n_decisions: int = 4
    interaction_scale: float = 0.5
    noise_scale: float = 0.3
    base_reward: float = 2.0
    effect_seed: int = 42

    def __post_init__(self) -> None:
        if self.n_features <= 0 or self.cardinality <= 1 or self.n_decisions <= 1:
            raise SimulationError(
                "need n_features >= 1, cardinality >= 2, n_decisions >= 2"
            )
        if self.interaction_scale < 0 or self.noise_scale < 0:
            raise SimulationError("scales must be non-negative")
        # Memo for the (deterministic) reward surface and the decision
        # space; the dataclass is frozen, so attach via object.__setattr__.
        object.__setattr__(self, "_reward_cache", {})
        object.__setattr__(
            self,
            "_space",
            DecisionSpace(tuple(f"d{i}" for i in range(self.n_decisions))),
        )

    # -- structure ---------------------------------------------------------------

    @property
    def feature_names(self) -> Tuple[str, ...]:
        """Feature names f0..f{n-1}."""
        return tuple(f"f{i}" for i in range(self.n_features))

    def space(self) -> DecisionSpace:
        """Decisions d0..d{n-1} (one shared instance)."""
        return self._space

    def population(self) -> ClientPopulation:
        """Uniform categorical population over the feature grid."""
        return ClientPopulation(
            [
                CategoricalFeature(
                    name, tuple(f"v{j}" for j in range(self.cardinality))
                )
                for name in self.feature_names
            ]
        )

    # -- ground truth ----------------------------------------------------------------

    def _effect_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.effect_seed)

    def true_mean_reward(self, context: ClientContext, decision: Decision) -> float:
        """Noise-free reward, computed from hash-indexed fixed effects.

        Effects are derived deterministically from (effect_seed, cell) so
        the surface is identical across calls without materialising the
        full (cells x decisions) table.
        """
        cache_key = (self._cell(context), self._space.index_of(decision))
        cached = self._reward_cache.get(cache_key)
        if cached is None:
            cached = float(self.reward_table([context], [decision])[0, 0])
            self._reward_cache[cache_key] = cached
        return cached

    def _cell(self, context: ClientContext) -> Tuple[int, ...]:
        return tuple(int(str(context[name])[1:]) for name in self.feature_names)

    def reward_table(self, contexts, decisions) -> np.ndarray:
        """:meth:`true_mean_reward` of every (context, decision) pair, as
        a ``(len(contexts), len(decisions))`` matrix.  Each decision and
        (feature, level) effect is drawn once; a cell's additions always
        run in one order, so every entry equals the scalar call's."""
        seed = self.effect_seed
        indices = [self._space.index_of(decision) for decision in decisions]
        decision_effects = [
            self.base_reward
            + float(np.random.default_rng([seed, index, 1]).normal(0.0, 1.0)) * 0.5
            for index in indices
        ]
        feature_effects: Dict[Tuple[int, int], float] = {}
        table = np.empty((len(contexts), len(indices)), dtype=float)
        for row, context in enumerate(contexts):
            cell = self._cell(context)
            for key in enumerate(cell):
                if key not in feature_effects:
                    rng = np.random.default_rng([seed, *key, 2])
                    feature_effects[key] = float(rng.normal(0.0, 0.3))
            for column, index in enumerate(indices):
                value = decision_effects[column]
                for key in enumerate(cell):
                    value += feature_effects[key]
                if self.interaction_scale > 0:
                    rng = np.random.default_rng([seed, index, *cell, 3])
                    value += self.interaction_scale * float(rng.normal(0.0, 1.0))
                table[row, column] = value
        return table

    # -- policies ---------------------------------------------------------------------

    def optimal_policy(self) -> Policy:
        """The true-best deterministic policy (greedy on the truth)."""
        space = self.space()

        def rule(context: ClientContext) -> Decision:
            best_decision, best_value = None, -np.inf
            for decision in space:
                value = self.true_mean_reward(context, decision)
                if value > best_value:
                    best_decision, best_value = decision, value
            return best_decision

        return DeterministicPolicy(space, rule)

    def fixed_policy(self, index: int = 0) -> Policy:
        """A context-independent deterministic policy (decision #index)."""
        space = self.space()
        decision = space.decisions[index % len(space)]
        return DeterministicPolicy(space, lambda c: decision)

    def logging_policy(self, epsilon: float = 0.2, base_index: int = 0) -> Policy:
        """Epsilon-greedy around a fixed decision — the typical
        "mostly-deterministic production policy with a little
        exploration" of §4.1."""
        return EpsilonGreedyPolicy(self.fixed_policy(base_index), epsilon)

    def uniform_policy(self) -> Policy:
        """Fully randomised logging."""
        return UniformRandomPolicy(self.space())

    # -- data -------------------------------------------------------------------------

    def iter_records(
        self,
        old_policy: Policy,
        n: int,
        rng: np.random.Generator,
    ):
        """Generate the *n* logged records of a trace, one at a time.

        This is the single source of the workload's sampling order —
        :meth:`generate_trace` collects it into a :class:`Trace` and
        :meth:`generate_to_shards` streams it to disk, so for the same
        *rng* state the two produce identical records.  Equal contexts
        are one interned object, so a trace's ``context_codes`` count
        distinct values (at most ``cardinality ** n_features``), not
        records.
        """
        if n <= 0:
            raise SimulationError(f"n must be positive, got {n}")
        population = self.population()
        interned: Dict[ClientContext, ClientContext] = {}
        for _ in range(n):
            context = population.sample(rng)
            context = interned.setdefault(context, context)
            decision = old_policy.sample(context, rng)
            reward = self.true_mean_reward(context, decision) + rng.normal(
                0.0, self.noise_scale
            )
            yield TraceRecord(
                context=context,
                decision=decision,
                reward=float(reward),
                propensity=old_policy.propensity(decision, context),
            )

    def generate_trace(
        self,
        old_policy: Policy,
        n: int,
        rng: np.random.Generator,
    ) -> Trace:
        """A logged trace of *n* records under *old_policy*."""
        return Trace(list(self.iter_records(old_policy, n, rng)))

    def generate_to_shards(
        self,
        old_policy: Policy,
        n: int,
        rng: np.random.Generator,
        directory,
        shard_size: Optional[int] = None,
    ):
        """Generate a logged trace of *n* records straight to disk.

        Streams :meth:`iter_records` through a
        :class:`~repro.store.ShardWriter`, so peak memory is one shard of
        records however large *n* is — a 10M-record trace never exists in
        RAM.  Returns the lazy :class:`~repro.store.ShardedTrace` reader
        over the written directory; the records are identical to
        ``generate_trace(old_policy, n, rng)`` for the same *rng* state.
        """
        from repro.store import ShardedTrace, write_shards
        from repro.store.format import DEFAULT_SHARD_SIZE

        write_shards(
            self.iter_records(old_policy, n, rng),
            directory,
            shard_size=DEFAULT_SHARD_SIZE if shard_size is None else shard_size,
        )
        return ShardedTrace(directory)

    def ground_truth_value(self, policy: Policy, trace: Trace) -> float:
        """Exact V(policy, T)."""
        total = 0.0
        for record in trace:
            for decision, probability in policy.probabilities(record.context).items():
                if probability > 0:
                    total += probability * self.true_mean_reward(
                        record.context, decision
                    )
        return total / len(trace)
