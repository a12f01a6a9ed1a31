"""``choice_from_probabilities`` checks the sum in scalar arithmetic, yet
draws exactly as ``rng.choice`` over the normalised array."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.random import choice_from_probabilities

DISTRIBUTIONS = [
    [1.0],
    [0.9, 0.1],
    [0.25] * 4,
    [1 / 3, 1 / 3, 1 / 3],
    list(np.full(11, 1 / 11)),  # past numpy's 8-way pairwise unrolling
    [0.1, 0.2, 0.3, 0.4 + 5e-6],  # off by less than the tolerance
]


@pytest.mark.parametrize("probabilities", DISTRIBUTIONS)
def test_draws_match_the_reference(probabilities):
    items = list(range(len(probabilities)))
    ours, reference = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        p = np.asarray(probabilities)
        expected = items[int(reference.choice(len(items), p=p / np.sum(probabilities)))]
        assert choice_from_probabilities(ours, items, probabilities) == expected


@pytest.mark.parametrize(
    "probabilities",
    [[0.5, 0.5 + 2e-5], [0.5, 0.5 - 2e-5], [0.5, float("nan")], [0.5, float("inf")]],
)
def test_sums_outside_the_tolerance_are_refused(probabilities):
    assert not np.isclose(np.sum(probabilities), 1.0, atol=1e-6)
    with pytest.raises(ValueError, match="probabilities sum to"):
        choice_from_probabilities(np.random.default_rng(0), ["a", "b"], probabilities)


def test_tolerance_edge_matches_isclose():
    for offset in (1.09e-5, 1.1e-5, 1.11e-5):
        probabilities = [0.5, 0.5 + offset]
        accepted = bool(np.isclose(np.sum(probabilities), 1.0, atol=1e-6))
        try:
            choice_from_probabilities(np.random.default_rng(0), ["a", "b"], probabilities)
        except ValueError:
            assert not accepted
        else:
            assert accepted
