"""Fig 7a's ground truth, computed per distinct context, equals the
per-record loop bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cbn.scenario import WiseScenario
from repro.core.policy import UniformRandomPolicy


def per_record_loop(scenario, policy, trace) -> float:
    total = 0.0
    for record in trace:
        isp = record.context["isp"]
        for decision, probability in policy.probabilities(record.context).items():
            if probability > 0:
                total += probability * scenario.true_mean_response(isp, decision)
    return total / len(trace)


@pytest.mark.parametrize(
    "scenario",
    [WiseScenario(), WiseScenario(clients_per_arrow=37, noise_ms=3.0, new_policy_shift=0.3)],
)
@pytest.mark.parametrize("seed", range(6))
def test_equals_the_per_record_loop(scenario, seed):
    trace = scenario.generate_trace(np.random.default_rng(seed))
    for policy in (
        scenario.new_policy(),
        scenario.old_policy(),
        UniformRandomPolicy(scenario.space()),
    ):
        assert scenario.ground_truth_value(policy, trace) == per_record_loop(
            scenario, policy, trace
        )
