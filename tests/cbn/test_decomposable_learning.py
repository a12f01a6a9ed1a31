"""The family-scoring hill-climb learns exactly what an exhaustive one does.

The reference below refits every candidate structure with the public
:func:`fit_parameters` and scores the whole network with :func:`bic_score`,
in the learner's move order and with its acceptance margin.  The learner
must return the same network — variable order, parents and CPT bytes — while
scoring each family once and building one network per ``learn`` call.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.cbn import learning
from repro.cbn.graph import BayesianNetwork
from repro.cbn.learning import StructureLearner, bic_score, fit_parameters
from repro.cbn.scenario import WiseScenario
from repro.cbn.wise import WiseRewardModel
from repro.errors import SimulationError


def _reference_learn(data, variables, domains=None, max_parents=3):
    structure = {v: [] for v in variables}
    best = bic_score(data, fit_parameters(data, structure, domains))
    while True:
        winner = None
        for source, target in itertools.permutations(variables, 2):
            for move in ("add", "remove", "reverse"):
                candidate = {v: list(ps) for v, ps in structure.items()}
                has_edge = source in candidate[target]
                if move == "add":
                    if has_edge or len(candidate[target]) >= max_parents:
                        continue
                    candidate[target].append(source)
                elif not has_edge:
                    continue
                else:
                    candidate[target].remove(source)
                    if move == "reverse":
                        if len(candidate[source]) >= max_parents:
                            continue
                        candidate[source].append(target)
                try:
                    score = bic_score(data, fit_parameters(data, candidate, domains))
                except SimulationError:  # a cycle
                    continue
                if score > best + 1e-9:
                    best, winner = score, candidate
        if winner is None:
            return fit_parameters(data, structure, domains)
        structure = winner


def _signature(network):
    return (
        network.variables,
        [network.parents(v) for v in network.variables],
        [network.dense_rows(v).tobytes() for v in network.variables],
    )


class _RecordingLearner(StructureLearner):
    """Records each coded dataset the WISE model learns from, decoded
    back into rows."""

    def __init__(self):
        super().__init__(max_parents=3)
        self.calls = []

    def learn_codes(self, codes, domains):
        variables = list(codes)
        rows = [
            {v: domains[v][codes[v][k]] for v in variables}
            for k in range(len(codes[variables[0]]))
        ]
        self.calls.append((rows, variables))
        return super().learn_codes(codes, domains)


def _wise_rows(seeds):
    scenario = WiseScenario()
    learner = _RecordingLearner()
    for seed in seeds:
        trace = scenario.generate_trace(np.random.default_rng(seed))
        WiseRewardModel(("frontend", "backend"), learner=learner).fit(trace)
    assert len(learner.calls) == len(seeds)
    return learner.calls


def _random_rows(seed, n=120):
    """4–5 categorical variables, each later one partly copying an earlier one."""
    rng = np.random.default_rng(seed)
    variables = [f"v{i}" for i in range(int(rng.integers(4, 6)))]
    columns = {}
    for i, variable in enumerate(variables):
        size = int(rng.integers(2, 4))
        column = rng.integers(0, size, size=n)
        if i:
            parent = columns[variables[int(rng.integers(0, i))]]
            column = np.where(rng.uniform(size=n) < 0.7, parent % size, column)
        columns[variable] = column
    rows = [{v: int(columns[v][k]) for v in variables} for k in range(n)]
    return rows, variables


@pytest.mark.parametrize("seed_block", range(5))
def test_same_network_on_wise_traces(seed_block):
    for rows, variables in _wise_rows(range(10 * seed_block, 10 * seed_block + 10)):
        assert _signature(StructureLearner().learn(rows, variables)) == _signature(
            _reference_learn(rows, variables)
        )


@pytest.mark.parametrize("max_parents", [1, 2, 3])
def test_same_network_on_random_data(max_parents):
    for seed in range(8):
        rows, variables = _random_rows(100 * max_parents + seed)
        learned = StructureLearner(max_parents=max_parents).learn(rows, variables)
        assert _signature(learned) == _signature(
            _reference_learn(rows, variables, max_parents=max_parents)
        )


def test_same_network_with_unobserved_domain_values():
    rows, variables = _random_rows(5)
    domains = {v: sorted({row[v] for row in rows}) + [7, 9] for v in variables}
    domains[variables[0]] = [9] + domains[variables[0]][:-1]
    learned = StructureLearner().learn(rows, variables, domains)
    assert learned.domain(variables[0])[0] == 9
    assert _signature(learned) == _signature(
        _reference_learn(rows, variables, domains)
    )


def test_each_family_scored_once_and_one_network_built(monkeypatch):
    (rows, variables), = _wise_rows([3])
    scored = Counter()
    added = Counter()
    family_score = learning._family_score
    add_variable = BayesianNetwork.add_variable

    def counting_score(encoded, variable, parents, smoothing):
        scored[(variable, parents)] += 1
        return family_score(encoded, variable, parents, smoothing)

    def counting_add(self, variable, *args, **kwargs):
        added[variable] += 1
        return add_variable(self, variable, *args, **kwargs)

    monkeypatch.setattr(learning, "_family_score", counting_score)
    monkeypatch.setattr(BayesianNetwork, "add_variable", counting_add)
    network = StructureLearner().learn(rows, variables)
    assert network.edges()
    assert len(scored) > len(variables)
    assert set(scored.values()) == {1}
    assert added == Counter(variables)
