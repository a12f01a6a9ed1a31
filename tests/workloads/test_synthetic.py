"""Tests for the synthetic workload generator."""

import hashlib

import numpy as np
import pytest

from repro import core
from repro.errors import SimulationError
from repro.store.format import encode_shard, records_columns
from repro.workloads import SyntheticWorkload


class TestGroundTruth:
    def test_deterministic_surface(self):
        workload = SyntheticWorkload(effect_seed=3)
        context = core.ClientContext(f0="v1", f1="v2", f2="v0")
        a = workload.true_mean_reward(context, "d1")
        b = SyntheticWorkload(effect_seed=3).true_mean_reward(context, "d1")
        assert a == b

    def test_different_seeds_differ(self):
        context = core.ClientContext(f0="v1", f1="v2", f2="v0")
        a = SyntheticWorkload(effect_seed=1).true_mean_reward(context, "d1")
        b = SyntheticWorkload(effect_seed=2).true_mean_reward(context, "d1")
        assert a != b

    def test_interaction_scale_zero_is_additive(self):
        """With no interaction term, the decision ordering is the same in
        every context cell."""
        workload = SyntheticWorkload(interaction_scale=0.0)
        orderings = set()
        for i in range(3):
            for j in range(3):
                context = core.ClientContext(f0=f"v{i}", f1=f"v{j}", f2="v0")
                values = {
                    d: workload.true_mean_reward(context, d)
                    for d in workload.space()
                }
                orderings.add(tuple(sorted(values, key=values.get)))
        assert len(orderings) == 1

    def test_interactions_change_ordering(self):
        workload = SyntheticWorkload(interaction_scale=3.0)
        orderings = set()
        for i in range(4):
            for j in range(4):
                context = core.ClientContext(f0=f"v{i}", f1=f"v{j}", f2="v0")
                values = {
                    d: workload.true_mean_reward(context, d)
                    for d in workload.space()
                }
                orderings.add(tuple(sorted(values, key=values.get)))
        assert len(orderings) > 1


class TestPolicies:
    def test_optimal_policy_beats_fixed(self, rng):
        workload = SyntheticWorkload()
        old = workload.uniform_policy()
        trace = workload.generate_trace(old, 300, rng)
        best = workload.ground_truth_value(workload.optimal_policy(), trace)
        for index in range(len(workload.space())):
            fixed = workload.ground_truth_value(workload.fixed_policy(index), trace)
            assert best >= fixed - 1e-9

    def test_logging_policy_explores(self):
        workload = SyntheticWorkload()
        policy = workload.logging_policy(epsilon=0.4)
        context = core.ClientContext(f0="v0", f1="v0", f2="v0")
        distribution = policy.probabilities(context)
        assert min(distribution.values()) == pytest.approx(0.1)


class TestTraceGeneration:
    def test_trace_properties(self, rng):
        workload = SyntheticWorkload()
        trace = workload.generate_trace(workload.uniform_policy(), 250, rng)
        assert len(trace) == 250
        assert trace.has_propensities()
        assert set(trace.feature_names()) == {"f0", "f1", "f2"}

    def test_noise_around_truth(self, rng):
        workload = SyntheticWorkload(noise_scale=0.1)
        trace = workload.generate_trace(workload.uniform_policy(), 2000, rng)
        residuals = [
            record.reward - workload.true_mean_reward(record.context, record.decision)
            for record in trace
        ]
        assert np.mean(residuals) == pytest.approx(0.0, abs=0.02)
        assert np.std(residuals) == pytest.approx(0.1, abs=0.02)

    def test_zero_n_rejected(self, rng):
        workload = SyntheticWorkload()
        with pytest.raises(SimulationError):
            workload.generate_trace(workload.uniform_policy(), 0, rng)

    def test_validation(self):
        with pytest.raises(SimulationError):
            SyntheticWorkload(n_features=0)
        with pytest.raises(SimulationError):
            SyntheticWorkload(interaction_scale=-1.0)


class TestEstimatorIntegration:
    def test_dr_accurate_on_workload(self, rng):
        workload = SyntheticWorkload()
        old = workload.logging_policy(epsilon=0.5)
        new = workload.optimal_policy()
        trace = workload.generate_trace(old, 2000, rng)
        truth = workload.ground_truth_value(new, trace)
        dr = core.DoublyRobust(
            core.TabularMeanModel(key_features=("f0",))
        ).estimate(new, trace, old_policy=old)
        assert core.relative_error(truth, dr.value) < 0.05


class TestInternedContexts:
    """Equal contexts share one object; no record value or draw moves.

    The digests are the shard bytes the generator wrote before contexts
    were interned (same seed, same sizes)."""

    TRACE_SHA256 = "469cee9a164eca424ba2cfb939211ee667c60cf9e702e58850860ea4b615a5d6"
    SHARDS_SHA256 = "004f8bcb78f5f25cf1e8f91e0279ce7f6b1134b840b66251bb76a78e0e0cf6da"

    def test_trace_bytes_unchanged_and_contexts_shared(self):
        workload = SyntheticWorkload()
        trace = workload.generate_trace(
            workload.logging_policy(0.3), 3000, np.random.default_rng(11)
        )
        data, _ = encode_shard(records_columns(list(trace)), trace.feature_names())
        assert hashlib.sha256(data).hexdigest() == self.TRACE_SHA256
        assert len(set(map(id, trace.contexts()))) == 64
        assert int(trace.columns().context_codes.max()) == 63

    def test_shard_bytes_unchanged(self, tmp_path):
        workload = SyntheticWorkload()
        workload.generate_to_shards(
            workload.logging_policy(0.3),
            3000,
            np.random.default_rng(11),
            tmp_path,
            shard_size=1000,
        )
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == self.SHARDS_SHA256
