"""Drift-injection traffic: the million-user live workload generator.

The paper's §4.3 open directions — system-state drift and
decision–reward coupling — need *streams*, not closed traces.
:class:`LiveTrafficGenerator` turns a :class:`SyntheticWorkload` into an
unbounded columnar record stream (:class:`~repro.live.chunks.StreamBatch`
chunks, no per-record Python objects) with four scenarios:

``stationary``
    The workload as-is: a drift-free control at maximum ingest rate.
``diurnal``
    Virtual time advances with record index; rewards scale by the
    time-of-day factor (peak hours 20% worse, off-peak 10% better —
    the same ``peak``/``normal``/``off-peak`` factors as
    :class:`~repro.workloads.diurnal.DiurnalWorkload`), so the stream
    cycles through regimes the change-point detector should re-match.
``flash-crowd``
    During a configurable record window, arrivals skew hard toward a
    "crowd" subset of context cells and rewards drop (overload), then
    recover — one clean regime excursion.
``coupled``
    Decision–reward coupling: each batch's reward factor per decision
    depends on the *previous* batch's decision shares (popular
    decisions degrade), the feedback loop of §4.3.  Causality is
    one-batch-lagged, so generation stays vectorised and deterministic.

Logged propensities always reflect the actual logging policy (scenarios
perturb arrivals and rewards, never the logging distribution), so live
estimates stay well-defined throughout.

All draws flow from one seeded ``np.random.Generator``; for a fixed
seed the emitted records are a pure function of (workload, scenario,
chunk_records) — the captured stream replays bit-identically, which is
what lets the stream-smoke CI job check live-vs-offline equality.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core.policy import Policy
from repro.core.types import ClientContext
from repro.errors import SimulationError
from repro.live.chunks import StreamBatch
from repro.live.policies import GridPolicy
from repro.workloads.diurnal import DEFAULT_FACTORS
from repro.workloads.synthetic import SyntheticWorkload

#: The supported drift-injection scenarios.
DRIFT_SCENARIOS = ("stationary", "diurnal", "flash-crowd", "coupled")

#: Diurnal hour bands (start-inclusive, end-exclusive) per regime label.
#: Factors come from :data:`~repro.workloads.diurnal.DEFAULT_FACTORS`.
DIURNAL_BANDS = (
    ("off-peak", 2.0, 6.0),
    ("peak", 18.0, 22.0),
)

#: Default chunk size: matches the store tier's chunk granularity.
DEFAULT_CHUNK_RECORDS = 65_536


class LiveTrafficGenerator:
    """An unbounded columnar record stream over a synthetic workload.

    Parameters
    ----------
    workload:
        The ground-truth reward surface and context grid.
    scenario:
        One of :data:`DRIFT_SCENARIOS`.
    epsilon:
        Exploration of the logging policy (epsilon-greedy around
        decision 0, as in :meth:`SyntheticWorkload.logging_policy`).
    seed:
        Seed for the stream's single RNG.
    chunk_records:
        Records per emitted :class:`StreamBatch`.
    arrivals_per_hour:
        Virtual-clock rate: how many records one virtual hour spans
        (diurnal regime cycling is per *record index*, not wall time).
    flash_start / flash_duration:
        The flash-crowd record window (absolute record indices).
    flash_factor / coupling:
        Reward multipliers: flash-crowd overload severity, and the
        strength of the coupled-rewards feedback.
    """

    def __init__(
        self,
        workload: Optional[SyntheticWorkload] = None,
        scenario: str = "stationary",
        epsilon: float = 0.2,
        seed: int = 0,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        arrivals_per_hour: float = 250_000.0,
        flash_start: int = 400_000,
        flash_duration: int = 300_000,
        flash_factor: float = 0.7,
        coupling: float = 0.6,
    ):
        if scenario not in DRIFT_SCENARIOS:
            raise SimulationError(
                f"unknown scenario {scenario!r}; expected one of {DRIFT_SCENARIOS}"
            )
        if chunk_records <= 0:
            raise SimulationError(
                f"chunk_records must be positive, got {chunk_records}"
            )
        if arrivals_per_hour <= 0:
            raise SimulationError(
                f"arrivals_per_hour must be positive, got {arrivals_per_hour}"
            )
        self.workload = workload if workload is not None else SyntheticWorkload()
        self.scenario = scenario
        self.chunk_records = int(chunk_records)
        self.arrivals_per_hour = float(arrivals_per_hour)
        self.flash_start = int(flash_start)
        self.flash_duration = int(flash_duration)
        self.flash_factor = float(flash_factor)
        self.coupling = float(coupling)
        self._rng = np.random.default_rng(seed)
        self._seed = seed

        space = self.workload.space()
        self.space = space
        #: Shared vocabulary tuples — batch fast paths check *identity*.
        self.decisions_vocabulary: Tuple = space.decisions
        self.cells: Tuple[ClientContext, ...] = self._build_cells()
        self.feature_names = tuple(sorted(self.workload.feature_names))

        self._logging_policy = GridPolicy(
            self.workload.logging_policy(epsilon=epsilon),
            self.cells,
            decisions_vocabulary=self.decisions_vocabulary,
        )
        matrix = self._logging_policy.matrix
        self._decision_cdf = np.cumsum(matrix, axis=1)
        # Guard against rounding: the final cdf column is exactly 1 so a
        # uniform draw can never index past the last decision.
        self._decision_cdf[:, -1] = 1.0
        self._reward_table = self.workload.reward_table(
            self.cells, self.decisions_vocabulary
        )
        self._base_cell_cdf = self._cell_cdf(np.ones(len(self.cells)))
        self._crowd_cell_cdf = self._cell_cdf(self._crowd_weights())
        # coupled-rewards state: decision shares of the previous batch
        # (uniform before any data — no feedback on the first batch).
        self._previous_shares = np.full(
            len(self.decisions_vocabulary),
            1.0 / len(self.decisions_vocabulary),
        )
        self._emitted = 0

    # -- structure ---------------------------------------------------------

    def _build_cells(self) -> Tuple[ClientContext, ...]:
        values = tuple(f"v{j}" for j in range(self.workload.cardinality))
        names = self.workload.feature_names
        cells = []
        for combo in itertools.product(values, repeat=len(names)):
            cells.append(ClientContext(dict(zip(names, combo))))
        return tuple(cells)

    def _cell_cdf(self, weights: np.ndarray) -> np.ndarray:
        cdf = np.cumsum(weights / weights.sum())
        cdf[-1] = 1.0
        return cdf

    def _crowd_weights(self) -> np.ndarray:
        # The flash crowd concentrates on the first quarter of the cell
        # grid (deterministic, so offline analysis can identify it).
        weights = np.ones(len(self.cells))
        crowd = max(1, len(self.cells) // 4)
        weights[:crowd] = 8.0
        return weights

    # -- policies ----------------------------------------------------------

    @property
    def logging_policy(self) -> GridPolicy:
        """The (grid-snapshotted) logging policy generating the stream."""
        return self._logging_policy

    def candidate_policy(self, base_index: int, epsilon: float = 0.05) -> GridPolicy:
        """A candidate policy to value live: epsilon-greedy around a
        fixed decision, snapshotted onto this generator's grid (so its
        batch evaluation rides the coded fast path)."""
        return GridPolicy(
            self.workload.logging_policy(epsilon=epsilon, base_index=base_index),
            self.cells,
            decisions_vocabulary=self.decisions_vocabulary,
        )

    def candidate_policies(
        self, count: int = 2, epsilon: float = 0.05
    ) -> Dict[str, GridPolicy]:
        """*count* named candidate policies (``policy-d0``, ``policy-d1``, ...)."""
        if count < 1:
            raise SimulationError(f"need at least one candidate, got {count}")
        return {
            f"policy-d{index}": self.candidate_policy(index, epsilon=epsilon)
            for index in range(count)
        }

    # -- generation --------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Records emitted so far."""
        return self._emitted

    def next_batch(self, size: Optional[int] = None) -> StreamBatch:
        """Generate the next chunk of the stream (vectorised, no per-record
        Python work)."""
        m = self.chunk_records if size is None else int(size)
        if m <= 0:
            raise SimulationError(f"batch size must be positive, got {m}")
        rng = self._rng
        start = self._emitted
        indices = start + np.arange(m)
        hours = (indices / self.arrivals_per_hour) % 24.0

        # Arrival mix: flash-crowd records inside the window draw cells
        # from the skewed cdf, everything else from the base cdf.
        cell_draws = rng.random(m)
        cells = np.searchsorted(self._base_cell_cdf, cell_draws, side="left")
        states = None
        if self.scenario == "flash-crowd":
            in_crowd = (indices >= self.flash_start) & (
                indices < self.flash_start + self.flash_duration
            )
            if in_crowd.any():
                crowd_cells = np.searchsorted(
                    self._crowd_cell_cdf, cell_draws, side="left"
                )
                cells = np.where(in_crowd, crowd_cells, cells)

        # Decisions from the logging policy's per-cell cdf rows.
        decision_draws = rng.random(m)
        cdf_rows = self._decision_cdf[cells]
        decisions = (decision_draws[:, None] >= cdf_rows).sum(axis=1)
        decisions = decisions.astype(np.intp)
        cells = cells.astype(np.intp)

        propensities = self._logging_policy.matrix[cells, decisions]
        means = self._reward_table[cells, decisions]

        if self.scenario == "diurnal":
            factor = np.full(m, DEFAULT_FACTORS["normal"])
            codes = np.zeros(m, dtype=np.int8)
            for code, (label, lo, hi) in enumerate(DIURNAL_BANDS, start=1):
                band = (hours >= lo) & (hours < hi)
                factor[band] = DEFAULT_FACTORS[label]
                codes[band] = code
            labels = np.empty(len(DIURNAL_BANDS) + 1, dtype=object)
            labels[0] = "normal"
            for code, (label, _, _) in enumerate(DIURNAL_BANDS, start=1):
                labels[code] = label
            states = np.take(labels, codes)
            means = means * factor
        elif self.scenario == "flash-crowd":
            if in_crowd.any():
                means = np.where(in_crowd, means * self.flash_factor, means)
        elif self.scenario == "coupled":
            uniform = 1.0 / len(self.decisions_vocabulary)
            # Popular decisions degrade: a decision at share s loses
            # coupling·(s − uniform) of its mean reward (and a rarely
            # taken one gains a little) — bounded in (1−coupling, 1+c·u].
            per_decision = 1.0 - self.coupling * (self._previous_shares - uniform)
            means = means * per_decision[decisions]

        rewards = means + rng.normal(0.0, self.workload.noise_scale, m)

        if self.scenario == "coupled":
            counts = np.bincount(
                decisions, minlength=len(self.decisions_vocabulary)
            )
            self._previous_shares = counts / m

        self._emitted = start + m
        return StreamBatch(
            cells,
            decisions,
            rewards,
            propensities,
            hours,
            self.cells,
            self.decisions_vocabulary,
            self.feature_names,
            states=states,
        )

    def iter_batches(self, max_records: Optional[int] = None) -> Iterator[StreamBatch]:
        """Stream batches until *max_records* (or forever when None).

        The final batch is truncated so exactly *max_records* records are
        emitted — a frozen prefix of the infinite stream.
        """
        remaining = max_records
        while remaining is None or remaining > 0:
            size = self.chunk_records
            if remaining is not None:
                size = min(size, remaining)
                remaining -= size
            yield self.next_batch(size)
