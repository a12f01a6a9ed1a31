"""Tests for Bayesian network structure, sampling, and inference."""

import numpy as np
import pytest

from repro.cbn.graph import BayesianNetwork, ConditionalTable
from repro.errors import SimulationError


def sprinkler_network():
    """The classic rain/sprinkler/wet-grass network."""
    network = BayesianNetwork()
    network.add_variable("rain", ("yes", "no"), rows={(): (0.2, 0.8)})
    network.add_variable(
        "sprinkler",
        ("on", "off"),
        parents=("rain",),
        rows={("yes",): (0.01, 0.99), ("no",): (0.4, 0.6)},
    )
    network.add_variable(
        "wet",
        ("wet", "dry"),
        parents=("sprinkler", "rain"),
        rows={
            ("on", "yes"): (0.99, 0.01),
            ("on", "no"): (0.9, 0.1),
            ("off", "yes"): (0.8, 0.2),
            ("off", "no"): (0.0, 1.0),
        },
    )
    return network


class TestConditionalTable:
    def test_row_normalised(self):
        table = ConditionalTable("v", ("a", "b"), (), {(): (0.3, 0.7)})
        np.testing.assert_allclose(table.row(()), [0.3, 0.7])

    def test_bad_row_sum_rejected(self):
        with pytest.raises(SimulationError):
            ConditionalTable("v", ("a", "b"), (), {(): (0.3, 0.3)})

    def test_negative_probability_rejected(self):
        with pytest.raises(SimulationError):
            ConditionalTable("v", ("a", "b"), (), {(): (-0.1, 1.1)})

    def test_wrong_width_rejected(self):
        with pytest.raises(SimulationError):
            ConditionalTable("v", ("a", "b"), (), {(): (1.0,)})

    def test_row_checks_match_isclose(self):
        # The row-sum check is np.isclose(total, 1.0, atol=1e-6); rows are
        # stored as array / total.
        totals = [float("nan"), float("inf"), 1.0]
        for edge in (1.0 - 1.1e-5, 1.0 + 1.1e-5):
            value = edge
            for _ in range(3):
                value = np.nextafter(value, 0.0)
            for _ in range(7):
                totals.append(float(value))
                value = np.nextafter(value, 2.0)
        for total in totals:
            row = np.array([0.25, total - 0.25])
            if np.isclose(row.sum(), 1.0, atol=1e-6):
                table = ConditionalTable("v", ("a", "b"), (), {(): row})
                assert table.row(()).tobytes() == (row / row.sum()).tobytes()
            else:
                with pytest.raises(SimulationError, match="sums to"):
                    ConditionalTable("v", ("a", "b"), (), {(): row})

    def test_first_offending_row_is_named(self):
        rows = {
            ("x",): (0.5, 0.5),
            ("y",): (0.5, float("nan")),
            ("z",): (-0.5, 1.5),
        }
        with pytest.raises(SimulationError, match=r"\('y',\) sums to nan"):
            ConditionalTable("v", ("a", "b"), ("p",), rows)
        rows[("y",)] = (float("nan"), -1.0)
        with pytest.raises(SimulationError, match="negative probability"):
            ConditionalTable("v", ("a", "b"), ("p",), rows)

    def test_probability_lookup(self):
        table = ConditionalTable("v", ("a", "b"), (), {(): (0.3, 0.7)})
        assert table.probability("b", ()) == pytest.approx(0.7)
        with pytest.raises(SimulationError):
            table.probability("z", ())
        with pytest.raises(SimulationError):
            table.row(("unknown",))


class TestNetworkConstruction:
    def test_parents_must_exist(self):
        network = BayesianNetwork()
        with pytest.raises(SimulationError):
            network.add_variable(
                "child", ("a",), parents=("ghost",), rows={("x",): (1.0,)}
            )

    def test_duplicate_variable_rejected(self):
        network = BayesianNetwork()
        network.add_variable("v", ("a", "b"), rows={(): (0.5, 0.5)})
        with pytest.raises(SimulationError):
            network.add_variable("v", ("a", "b"), rows={(): (0.5, 0.5)})

    def test_incomplete_cpt_rejected(self):
        network = BayesianNetwork()
        network.add_variable("p", ("x", "y"), rows={(): (0.5, 0.5)})
        with pytest.raises(SimulationError):
            network.add_variable(
                "c", ("a", "b"), parents=("p",), rows={("x",): (0.5, 0.5)}
            )

    def test_edges(self):
        network = sprinkler_network()
        edges = set(network.edges())
        assert ("rain", "sprinkler") in edges
        assert ("sprinkler", "wet") in edges
        assert ("rain", "wet") in edges


class TestJointAndSampling:
    def test_joint_probability(self):
        network = sprinkler_network()
        probability = network.joint_probability(
            {"rain": "yes", "sprinkler": "off", "wet": "wet"}
        )
        assert probability == pytest.approx(0.2 * 0.99 * 0.8)

    def test_joint_requires_full_assignment(self):
        with pytest.raises(SimulationError):
            sprinkler_network().joint_probability({"rain": "yes"})

    def test_joint_sums_to_one(self):
        network = sprinkler_network()
        total = 0.0
        for rain in ("yes", "no"):
            for sprinkler in ("on", "off"):
                for wet in ("wet", "dry"):
                    total += network.joint_probability(
                        {"rain": rain, "sprinkler": sprinkler, "wet": wet}
                    )
        assert total == pytest.approx(1.0)

    def test_sampling_marginals(self):
        network = sprinkler_network()
        rng = np.random.default_rng(0)
        samples = [network.sample(rng) for _ in range(4000)]
        rain_rate = np.mean([s["rain"] == "yes" for s in samples])
        assert rain_rate == pytest.approx(0.2, abs=0.03)

    def test_sampling_with_evidence_clamps(self):
        network = sprinkler_network()
        rng = np.random.default_rng(0)
        sample = network.sample(rng, evidence={"rain": "yes"})
        assert sample["rain"] == "yes"


class TestInference:
    def test_prior_query(self):
        posterior = sprinkler_network().query("rain")
        assert posterior["yes"] == pytest.approx(0.2)

    def test_evidence_updates_posterior(self):
        network = sprinkler_network()
        prior = network.query("rain")["yes"]
        posterior = network.query("rain", {"wet": "wet"})["yes"]
        assert posterior > prior  # wet grass makes rain more likely

    def test_explaining_away(self):
        network = sprinkler_network()
        rain_given_wet = network.query("rain", {"wet": "wet"})["yes"]
        rain_given_wet_and_sprinkler = network.query(
            "rain", {"wet": "wet", "sprinkler": "on"}
        )["yes"]
        assert rain_given_wet_and_sprinkler < rain_given_wet

    def test_query_of_evidence_variable(self):
        posterior = sprinkler_network().query("rain", {"rain": "no"})
        assert posterior == {"yes": 0.0, "no": 1.0}

    def test_zero_probability_evidence_rejected(self):
        network = BayesianNetwork()
        network.add_variable("a", ("x", "y"), rows={(): (1.0, 0.0)})
        with pytest.raises(SimulationError):
            network.query("a", {"a": "z"})

    def test_expected_value(self):
        network = sprinkler_network()
        value = network.expected_value("rain", {"yes": 1.0, "no": 0.0})
        assert value == pytest.approx(0.2)

    def test_expected_value_missing_mapping(self):
        with pytest.raises(SimulationError):
            sprinkler_network().expected_value("rain", {"yes": 1.0})
