"""The learner counts distinct rows and learns what a row-by-row learner does.

``learn_codes`` compresses the coded dataset to its distinct rows and their
multiplicities, tables each family from those rows and scores it as
``counts @ log(cpt)``.  The oracle below is the row path it replaced: every
family table accumulated one observation at a time with ``np.add.at`` and
scored as the sum of each observation's log probability, with the same
move order and acceptance margin.  The two must return the same network —
variables, parents and CPT bytes — on 1,000 Fig 7a WISE datasets and on
the edge cases.
"""

import itertools
import math

import numpy as np
import pytest

from repro.cbn.graph import BayesianNetwork
from repro.cbn.learning import StructureLearner, _validated_order, fit_parameters
from repro.cbn.scenario import WiseScenario
from repro.cbn.wise import WiseRewardModel
from repro.errors import SimulationError


def _row_cpt(codes, domains, variable, parents, smoothing):
    n = len(codes[variable])
    rows, flat = 1, np.zeros(n, dtype=np.intp)
    for parent in parents:
        size = len(domains[parent])
        rows *= size
        flat = flat * size + codes[parent]
    counts = np.full((rows, len(domains[variable])), smoothing, dtype=float)
    np.add.at(counts, (flat, codes[variable]), 1.0)
    return counts / counts.sum(axis=1, keepdims=True), flat


def _row_fit(codes, domains, structure, smoothing):
    network = BayesianNetwork()
    for variable in _validated_order(structure):
        parents = tuple(structure[variable])
        cpt, _ = _row_cpt(codes, domains, variable, parents, smoothing)
        keys = itertools.product(*(domains[p] for p in parents))
        network.add_variable(variable, domains[variable], parents, dict(zip(keys, cpt)))
    return network


def _row_learn(codes, domains, max_parents=3, max_iterations=100, smoothing=1.0):
    """The row-by-row hill-climb: one ``np.add.at`` per observation."""
    domains = {v: tuple(d) for v, d in domains.items()}
    n = len(next(iter(codes.values()), ()))
    memo = {}

    def score(structure):
        total = 0.0
        for variable, parents in structure.items():
            key = (variable, tuple(parents))
            if key not in memo:
                cpt, flat = _row_cpt(codes, domains, *key, smoothing)
                rows, size = cpt.shape
                memo[key] = float(np.log(cpt[flat, codes[variable]]).sum()) - (
                    0.5 * rows * (size - 1) * math.log(n)
                )
            total += memo[key]
        return total

    moves = StructureLearner(max_parents=max_parents)._moves
    structure = {v: [] for v in codes}
    best = score(structure)
    for _ in range(max_iterations):
        current = structure
        for candidate in moves(current):
            total = score(candidate)
            if total > best + 1e-9:
                best, structure = total, candidate
        if structure is current:
            break
    return _row_fit(codes, domains, structure, smoothing)


def _signature(network):
    return (
        network.variables,
        [network.parents(v) for v in network.variables],
        [network.dense_rows(v).tobytes() for v in network.variables],
    )


class _RecordingLearner(StructureLearner):
    """Keeps each coded dataset it learns from with the network it returns."""

    def __init__(self):
        super().__init__(max_parents=3)
        self.calls = []

    def learn_codes(self, codes, domains):
        network = super().learn_codes(codes, domains)
        self.calls.append((dict(codes), dict(domains), network))
        return network


@pytest.mark.parametrize("block", range(4))
def test_same_network_as_row_learner_on_wise_traces(block):
    scenario = WiseScenario()
    learner = _RecordingLearner()
    for seed in range(250 * block, 250 * block + 250):
        trace = scenario.generate_trace(np.random.default_rng(seed))
        WiseRewardModel(("frontend", "backend"), learner=learner).fit(trace)
    assert len(learner.calls) == 250
    for codes, domains, network in learner.calls:
        assert _signature(network) == _signature(_row_learn(codes, domains))


def _coded(seed, n=90, sizes=(2, 3, 2, 4)):
    rng = np.random.default_rng(seed)
    codes = {}
    for i, size in enumerate(sizes):
        column = rng.integers(0, size, size=n).astype(np.intp)
        if i:
            column = np.where(rng.uniform(size=n) < 0.6, codes[f"v{i - 1}"] % size, column)
        codes[f"v{i}"] = column
    domains = {v: tuple(range(size)) for v, size in zip(codes, sizes)}
    return codes, domains


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("max_parents", [1, 3])
def test_same_network_as_row_learner_on_random_codes(seed, max_parents):
    codes, domains = _coded(seed)
    learned = StructureLearner(max_parents=max_parents).learn_codes(codes, domains)
    assert learned.edges()
    assert _signature(learned) == _signature(
        _row_learn(codes, domains, max_parents=max_parents)
    )


def test_zero_variables_learn_an_empty_network():
    assert StructureLearner().learn_codes({}, {}).variables == ()
    assert StructureLearner().learn([{}, {}], []).variables == ()


def test_one_variable():
    codes = {"a": np.asarray([0, 1, 1, 2, 1], dtype=np.intp)}
    domains = {"a": ("x", "y", "z")}
    learned = StructureLearner().learn_codes(codes, domains)
    assert learned.variables == ("a",) and learned.parents("a") == ()
    assert _signature(learned) == _signature(_row_learn(codes, domains))


def test_domains_wider_than_the_data():
    codes, domains = _coded(7)
    wider = {v: domain + ("unseen", "never") for v, domain in domains.items()}
    learned = StructureLearner().learn_codes(codes, wider)
    assert learned.domain("v0")[-2:] == ("unseen", "never")
    assert _signature(learned) == _signature(_row_learn(codes, wider))


def test_max_iterations_zero_keeps_the_empty_structure():
    codes, domains = _coded(3)
    learned = StructureLearner(max_iterations=0).learn_codes(codes, domains)
    assert learned.edges() == []
    assert _signature(learned) == _signature(
        _row_learn(codes, domains, max_iterations=0)
    )


@pytest.mark.parametrize("smoothing", [1.0, 0.5, 2.0])
def test_fit_parameters_equals_row_counts(smoothing):
    codes, domains = _coded(11)
    rows = [
        {v: domains[v][codes[v][k]] for v in codes} for k in range(len(codes["v0"]))
    ]
    structure = {"v0": [], "v1": ["v0"], "v2": ["v0", "v1"], "v3": ["v2"]}
    fitted = fit_parameters(rows, structure, domains, smoothing=smoothing)
    assert _signature(fitted) == _signature(_row_fit(codes, domains, structure, smoothing))


def test_empty_data_raises():
    with pytest.raises(SimulationError, match="empty data"):
        StructureLearner().learn_codes({"a": np.zeros(0, dtype=np.intp)}, {"a": (0, 1)})
    with pytest.raises(SimulationError, match="empty data"):
        StructureLearner().learn([], ["a"])
    with pytest.raises(SimulationError, match="empty data"):
        fit_parameters([], {"a": []})
