"""Tests for CPT fitting and BIC structure learning."""

import numpy as np
import pytest

from repro.cbn.graph import BayesianNetwork
from repro.cbn.learning import StructureLearner, bic_score, fit_parameters, log_likelihood
from repro.errors import SimulationError


def _chain_data(rng, n=500):
    """x -> y: y copies x with 10% flips."""
    data = []
    for _ in range(n):
        x = "a" if rng.uniform() < 0.5 else "b"
        y = x if rng.uniform() < 0.9 else ("b" if x == "a" else "a")
        data.append({"x": x, "y": y})
    return data


class TestFitParameters:
    def test_recovers_conditional_probabilities(self):
        rng = np.random.default_rng(0)
        data = _chain_data(rng, n=3000)
        network = fit_parameters(data, {"x": [], "y": ["x"]})
        table_row = network.query("y", {"x": "a"})
        assert table_row["a"] == pytest.approx(0.9, abs=0.03)

    def test_smoothing_avoids_zero(self):
        data = [{"x": "a", "y": "a"}] * 10
        network = fit_parameters(
            data, {"x": [], "y": ["x"]}, domains={"x": ["a", "b"], "y": ["a", "b"]}
        )
        assert network.query("y", {"x": "b"})["b"] > 0.0

    def test_cycle_rejected(self):
        data = [{"x": "a", "y": "a"}]
        with pytest.raises(SimulationError):
            fit_parameters(data, {"x": ["y"], "y": ["x"]})

    def test_unknown_parent_rejected(self):
        with pytest.raises(SimulationError):
            fit_parameters([{"x": "a"}], {"x": ["ghost"]})

    def test_empty_data_rejected(self):
        with pytest.raises(SimulationError):
            fit_parameters([], {"x": []})


class TestScores:
    def test_log_likelihood_negative_finite(self):
        rng = np.random.default_rng(0)
        data = _chain_data(rng, n=200)
        network = fit_parameters(data, {"x": [], "y": ["x"]})
        ll = log_likelihood(data, network)
        assert np.isfinite(ll)
        assert ll < 0

    def test_dependent_structure_scores_higher(self):
        rng = np.random.default_rng(0)
        data = _chain_data(rng, n=500)
        independent = fit_parameters(data, {"x": [], "y": []})
        dependent = fit_parameters(data, {"x": [], "y": ["x"]})
        assert bic_score(data, dependent) > bic_score(data, independent)

    def test_bic_penalises_parameters_on_independent_data(self):
        rng = np.random.default_rng(0)
        data = [
            {"x": "a" if rng.uniform() < 0.5 else "b",
             "y": "a" if rng.uniform() < 0.5 else "b"}
            for _ in range(500)
        ]
        independent = fit_parameters(data, {"x": [], "y": []})
        dependent = fit_parameters(data, {"x": [], "y": ["x"]})
        assert bic_score(data, independent) > bic_score(data, dependent)


class TestStructureLearner:
    def test_learns_dependency(self):
        rng = np.random.default_rng(1)
        data = _chain_data(rng, n=800)
        network = StructureLearner().learn(data, ["x", "y"])
        edges = set(network.edges())
        assert ("x", "y") in edges or ("y", "x") in edges

    def test_learns_independence(self):
        rng = np.random.default_rng(1)
        data = [
            {"x": "a" if rng.uniform() < 0.5 else "b",
             "y": "a" if rng.uniform() < 0.5 else "b"}
            for _ in range(800)
        ]
        network = StructureLearner().learn(data, ["x", "y"])
        assert network.edges() == []

    def test_small_data_misses_weak_interaction(self):
        """The Fig 4 failure mode in miniature: with heavily confounded
        small data, the learner drops a true parent."""
        rng = np.random.default_rng(3)
        data = []
        # z = x AND y, but x == y in 99% of records (confounded logging).
        for _ in range(300):
            x = "t" if rng.uniform() < 0.5 else "f"
            y = x if rng.uniform() < 0.99 else ("f" if x == "t" else "t")
            z = "t" if (x == "t" and y == "t") else "f"
            data.append({"x": x, "y": y, "z": z})
        network = StructureLearner().learn(data, ["x", "y", "z"])
        parents = set(network.parents("z"))
        assert parents != {"x", "y"}  # cannot identify both true parents

    def test_max_parents_respected(self):
        rng = np.random.default_rng(0)
        data = []
        for _ in range(400):
            bits = [("t" if rng.uniform() < 0.5 else "f") for _ in range(4)]
            target = "t" if bits.count("t") >= 2 else "f"
            data.append(
                {"a": bits[0], "b": bits[1], "c": bits[2], "d": bits[3], "z": target}
            )
        network = StructureLearner(max_parents=2).learn(
            data, ["a", "b", "c", "d", "z"]
        )
        for variable in network.variables:
            assert len(network.parents(variable)) <= 2

    def test_empty_data_rejected(self):
        with pytest.raises(SimulationError):
            StructureLearner().learn([], ["x"])

    def test_parameter_validation(self):
        with pytest.raises(SimulationError):
            StructureLearner(max_parents=0)

    def test_nonpositive_smoothing_rejected(self):
        with pytest.raises(SimulationError, match="smoothing"):
            StructureLearner(smoothing=0)
        with pytest.raises(SimulationError, match="smoothing"):
            StructureLearner(smoothing=-0.5)

    def test_negative_max_iterations_rejected(self):
        with pytest.raises(SimulationError, match="max_iterations"):
            StructureLearner(max_iterations=-1)

    def test_zero_iterations_learns_empty_graph(self):
        data = _chain_data(np.random.default_rng(1), n=200)
        network = StructureLearner(max_iterations=0).learn(data, ["x", "y"])
        assert network.edges() == []
