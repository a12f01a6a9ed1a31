"""Randomness helpers shared across the library.

Every stochastic component in :mod:`repro` accepts either an integer seed,
a :class:`numpy.random.Generator`, or ``None`` (fresh entropy).  These
helpers normalise that convention and provide deterministic stream
splitting so that independent subsystems (e.g. the workload generator and
the policy sampler of one experiment run) never share a stream.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *seed*.

    ``None`` draws fresh OS entropy; an ``int`` or ``SeedSequence`` seeds a
    new PCG64 generator; an existing generator is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split *rng* into *count* statistically independent child generators.

    The parent generator is advanced (by drawing the child seeds from it),
    so repeated calls yield different children.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def seed_stream(root_seed: int) -> Iterator[int]:
    """Yield an unbounded deterministic stream of integer seeds.

    Used by experiment harnesses to give each repetition its own seed that
    is reproducible from a single ``root_seed``.
    """
    sequence = np.random.SeedSequence(root_seed)
    while True:
        (child,) = sequence.spawn(1)
        yield int(child.generate_state(1)[0])


def choice_from_probabilities(
    rng: np.random.Generator,
    items: list,
    probabilities: list[float],
) -> object:
    """Sample one of *items* according to *probabilities*.

    Unlike ``rng.choice`` this works for items of arbitrary (non-array)
    type such as tuples, and validates the distribution.
    """
    if len(items) != len(probabilities):
        raise ValueError(
            f"{len(items)} items but {len(probabilities)} probabilities"
        )
    p = np.asarray(probabilities, dtype=float)
    total = float(p.sum())
    # np.isclose(total, 1.0, atol=1e-6) in scalar arithmetic; nan fails it.
    if not abs(total - 1.0) <= 1e-6 + 1e-5:
        raise ValueError(f"probabilities sum to {total}, expected 1.0")
    index = rng.choice(len(items), p=p / total)
    return items[int(index)]
