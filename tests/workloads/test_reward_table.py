"""``SyntheticWorkload.reward_table`` draws each fixed effect once and
still equals the scalar reward surface entry for entry."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.types import ClientContext
from repro.workloads.drift import LiveTrafficGenerator
from repro.workloads.synthetic import SyntheticWorkload

WORKLOADS = [
    SyntheticWorkload(),
    SyntheticWorkload(n_decisions=20, effect_seed=7),
    SyntheticWorkload(n_features=2, cardinality=5, interaction_scale=0.0),
]


def cells(workload):
    levels = [f"v{j}" for j in range(workload.cardinality)]
    return [
        ClientContext(dict(zip(workload.feature_names, combo)))
        for combo in itertools.product(levels, repeat=workload.n_features)
    ]


def scalar_surface(workload, contexts, decisions):
    """The reward surface as one draw per effect per call, uncached."""
    rows = []
    for context in contexts:
        cell = [int(str(context[name])[1:]) for name in workload.feature_names]
        row = []
        for decision in decisions:
            index = workload.space().index_of(decision)
            rng = np.random.default_rng([workload.effect_seed, index, 1])
            value = workload.base_reward + float(rng.normal(0.0, 1.0)) * 0.5
            for position, level in enumerate(cell):
                rng = np.random.default_rng([workload.effect_seed, position, level, 2])
                value += float(rng.normal(0.0, 0.3))
            if workload.interaction_scale > 0:
                rng = np.random.default_rng([workload.effect_seed, index, *cell, 3])
                value += workload.interaction_scale * float(rng.normal(0.0, 1.0))
            row.append(value)
        rows.append(row)
    return np.asarray(rows)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_table_equals_scalar_surface(workload):
    contexts = cells(workload)
    decisions = workload.space().decisions
    table = workload.reward_table(contexts, decisions)
    expected = scalar_surface(workload, contexts, decisions)
    assert table.tobytes() == expected.tobytes()
    fresh = SyntheticWorkload(
        **{name: getattr(workload, name) for name in workload.__dataclass_fields__}
    )
    scalar = [fresh.true_mean_reward(c, d) for c in contexts for d in decisions]
    assert scalar == table.ravel().tolist()


def test_reversed_decisions_permute_columns():
    workload = WORKLOADS[0]
    contexts = cells(workload)
    decisions = workload.space().decisions
    forward = workload.reward_table(contexts, decisions)
    backward = workload.reward_table(contexts[::-1], decisions[::-1])
    assert backward.tobytes() == forward[::-1, ::-1].tobytes()


def test_space_is_built_once():
    workload = SyntheticWorkload()
    assert workload.space() is workload.space()
    assert workload.space().decisions == ("d0", "d1", "d2", "d3")


def test_generator_table_is_the_scalar_surface():
    generator = LiveTrafficGenerator(SyntheticWorkload(n_decisions=6), seed=3)
    expected = scalar_surface(
        generator.workload, generator.cells, generator.decisions_vocabulary
    )
    assert generator._reward_table.tobytes() == expected.tobytes()
