"""The Fig 4 CDN-configuration scenario (ISP x frontend x backend).

Paper §2.2.1 and §4.2: requests from ISP-1 and ISP-2 choose a frontend
(FE-1/FE-2) and a backend (BE-1/BE-2).  Ground truth: an ISP-1 request is
slow *only* on the (FE-1, BE-1) pair; everything else is fast.  The
logging policy routes almost all traffic along two arrows —
(ISP-1 → FE-1, BE-1) and (ISP-2 → FE-2, BE-2) — with only a handful of
probe clients elsewhere ("500 clients for each measurement (arrow) ...
and 5 clients for each remaining choice"), so FE and BE are almost
perfectly correlated in the trace and a structure learner links response
time to just one of them.  The new policy moves 50% of ISP-1 clients to
(FE-1, BE-2), the configuration the learned CBN mispredicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro import kernels
from repro.core.policy import Policy, TabularPolicy
from repro.core.spaces import ProductDecisionSpace
from repro.core.types import (
    ClientContext,
    Decision,
    Trace,
    TraceColumns,
    TraceRecord,
)
from repro.errors import SimulationError

ISPS = ("isp-1", "isp-2")
FRONTENDS = ("fe-1", "fe-2")
BACKENDS = ("be-1", "be-2")


@dataclass(frozen=True)
class WiseScenario:
    """Parameters of the Fig 4 / Fig 7a experiment.

    Defaults follow §4.2 verbatim where stated (500 per arrow, 5 per
    remaining combination, 50% shift of ISP-1 clients); response-time
    levels and noise are our documented choices.
    """

    clients_per_arrow: int = 500
    clients_per_rare_combo: int = 5
    long_response_ms: float = 300.0
    short_response_ms: float = 100.0
    noise_ms: float = 15.0
    new_policy_shift: float = 0.5

    def __post_init__(self) -> None:
        if self.clients_per_arrow <= 0 or self.clients_per_rare_combo <= 0:
            raise SimulationError("client counts must be positive")
        if self.long_response_ms <= self.short_response_ms:
            raise SimulationError("long response time must exceed short")
        if self.noise_ms < 0:
            raise SimulationError("noise must be non-negative")
        if not 0.0 < self.new_policy_shift <= 1.0:
            raise SimulationError(
                f"new_policy_shift must lie in (0, 1], got {self.new_policy_shift}"
            )

    # -- ground truth ---------------------------------------------------------

    def true_mean_response(self, isp: str, decision: Decision) -> float:
        """Noise-free mean response time of (isp, fe, be)."""
        fe, be = decision
        if isp == "isp-1" and fe == "fe-1" and be == "be-1":
            return self.long_response_ms
        return self.short_response_ms

    def space(self) -> ProductDecisionSpace:
        """The (frontend, backend) decision space."""
        return ProductDecisionSpace(frontend=FRONTENDS, backend=BACKENDS)

    # -- policies -------------------------------------------------------------

    def _arrow_of(self, isp: str) -> Decision:
        return ("fe-1", "be-1") if isp == "isp-1" else ("fe-2", "be-2")

    def old_policy(self) -> Policy:
        """The logging policy implied by the paper's client counts.

        Per ISP, the dominant "arrow" configuration gets probability
        proportional to 500 and each of the other three combinations
        proportional to 5.
        """
        space = self.space()
        table: Dict[Tuple, Dict[Decision, float]] = {}
        for isp in ISPS:
            arrow = self._arrow_of(isp)
            total = self.clients_per_arrow + 3 * self.clients_per_rare_combo
            distribution = {
                decision: (
                    self.clients_per_arrow / total
                    if decision == arrow
                    else self.clients_per_rare_combo / total
                )
                for decision in space
            }
            table[(isp,)] = distribution
        return TabularPolicy(space, key_features=("isp",), table=table)

    def new_policy(self) -> Policy:
        """"The same traffic pattern, except that 50% of ISP-1 clients
        use FE-1 and BE-2" (§4.2)."""
        space = self.space()
        old = self.old_policy()
        shifted = ("fe-1", "be-2")
        table: Dict[Tuple, Dict[Decision, float]] = {}
        for isp in ISPS:
            context = ClientContext(isp=isp)
            base = old.probabilities(context)
            if isp == "isp-1":
                # The shifted configuration takes `new_policy_shift` of the
                # mass; the rest is split among the other decisions in
                # proportion to the old policy.
                remaining = 1.0 - self.new_policy_shift
                mass_elsewhere = sum(p for d, p in base.items() if d != shifted)
                distribution = {
                    decision: remaining * base[decision] / mass_elsewhere
                    for decision in space
                    if decision != shifted
                }
                distribution[shifted] = self.new_policy_shift
            else:
                distribution = dict(base)
            table[(isp,)] = distribution
        return TabularPolicy(space, key_features=("isp",), table=table)

    # -- trace generation -------------------------------------------------------

    def generate_trace(self, rng: np.random.Generator) -> Trace:
        """One trace with exactly the paper's per-combination counts.

        Record order is shuffled; propensities come from
        :meth:`old_policy` so IPS/DR corrections are exact.  The noise is
        one draw in (isp, decision, count) order, and rewards and
        propensities are checked as whole columns; the first record
        :class:`TraceRecord` would reject is rebuilt through it, so a bad
        value raises the same error at the same record.  The shuffle is
        one ``rng.permutation`` (the draws of ``rng.shuffle`` on the
        record list) gathered into :class:`TraceColumns`; the trace is
        born from them and builds no record unless one is asked for.
        """
        old = self.old_policy()
        contexts, decisions, isp_index, decision_index = [], [], [], []
        means, propensities, counts = [], [], []
        for i, isp in enumerate(ISPS):
            context = ClientContext(isp=isp)
            arrow = self._arrow_of(isp)
            for j, decision in enumerate(self.space()):
                contexts.append(context)
                decisions.append(decision)
                isp_index.append(i)
                decision_index.append(j)
                means.append(self.true_mean_response(isp, decision))
                propensities.append(old.propensity(decision, context))
                counts.append(
                    self.clients_per_arrow
                    if decision == arrow
                    else self.clients_per_rare_combo
                )
        owners = np.repeat(np.arange(len(counts)), counts)
        noise = rng.normal(0.0, self.noise_ms, size=len(owners))
        rewards = np.maximum(np.asarray(means)[owners] + noise, 1.0)
        logged = np.asarray(propensities, dtype=float)[owners]
        bad = ~((logged > 0.0) & (logged <= 1.0 + 1e-12)) | ~np.isfinite(rewards)
        if bad.any():
            index = int(np.flatnonzero(bad)[0])
            owner = owners[index]
            TraceRecord(
                contexts[owner],
                decisions[owner],
                float(rewards[index]),
                propensities[owner],
            )
        order = rng.permutation(len(owners))
        cells = owners[order]
        cell_list = cells.tolist()
        decision_column = tuple(map(decisions.__getitem__, cell_list))
        decision_codes, firsts = kernels.first_seen_codes(
            np.asarray(decision_index)[cells]
        )
        context_codes, _ = kernels.first_seen_codes(np.asarray(isp_index)[cells])
        return Trace._from_columns(
            TraceColumns(
                rewards[order],
                logged[order],
                np.full(len(owners), np.nan),
                decision_column,
                tuple(map(contexts.__getitem__, cell_list)),
                decision_codes,
                tuple(map(decision_column.__getitem__, firsts.tolist())),
                feature_names=contexts[0].keys(),
                context_codes=context_codes,
            )
        )

    def ground_truth_value(self, policy: Policy, trace: Trace) -> float:
        """Exact V(policy, T) using the noise-free mean response times.

        Each distinct context's ``p · mean`` terms are computed once and
        gathered per record; ``np.cumsum`` adds them left to right, the
        same additions as a per-record loop from ``0.0``.
        """
        columns = trace.columns()
        codes, firsts = kernels.first_seen_codes(columns.context_codes)
        terms = [
            np.asarray(
                [
                    p * self.true_mean_response(context["isp"], decision)
                    for decision, p in policy.probabilities(context).items()
                    if p > 0
                ],
                dtype=float,
            )
            for context in (columns.contexts[first] for first in firsts.tolist())
        ]
        flat = np.concatenate([terms[code] for code in codes.tolist()])
        return float(np.cumsum(flat)[-1]) / len(trace)
