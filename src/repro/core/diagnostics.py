"""Pre-flight diagnostics for trace-driven evaluation.

Before trusting any estimate, the paper's pitfalls (§2.2) suggest
checking (a) how much *overlap* there is between the old and new policy,
(b) how much *randomness* the logging policy actually had, and (c) how
thin the coverage of specific subpopulations is.  This module computes
those checks and renders them as a human-readable report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.core.estimators.base import checked_importance_ratio, weight_diagnostics
from repro.core.policy import Policy
from repro.core.propensity import PropensityModel, PropensitySource
from repro.core.types import Decision, Trace
from repro.errors import PropensityError


@dataclass(frozen=True)
class OverlapReport:
    """Summary of the old/new policy overlap on a trace.

    Attributes
    ----------
    n:
        Records covered (the survivors, on a quarantining reader).
    ess:
        Kish effective sample size of the importance weights; ``ess << n``
        is the high-variance regime of §2.2.2.
    match_fraction:
        Fraction of records whose logged decision is the new policy's
        greedy decision (the CFA matching coverage of Fig 5).
    max_weight, mean_weight:
        Importance-weight tail indicators.
    zero_weight_fraction:
        Records the new policy would never take (wasted by IPS).
    min_propensity:
        Smallest logging propensity among used records — the denominator
        the paper warns about ("term in the denominator ... will be very
        small", §4.1).
    decision_coverage:
        Per-decision record counts in the trace.
    warnings:
        Human-readable red flags.
    """

    n: int
    ess: float
    match_fraction: float
    max_weight: float
    mean_weight: float
    zero_weight_fraction: float
    min_propensity: float
    decision_coverage: Dict[Decision, int] = field(default_factory=dict)
    warnings: Tuple[str, ...] = ()

    def healthy(self) -> bool:
        """``True`` when no warnings fired."""
        return not self.warnings

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"overlap report over n={self.n} records",
            f"  effective sample size : {self.ess:10.1f} ({self.ess / self.n:6.1%} of n)",
            f"  exact-match fraction  : {self.match_fraction:10.3f}",
            f"  importance weights    : mean={self.mean_weight:.3f} max={self.max_weight:.3f}",
            f"  zero-weight fraction  : {self.zero_weight_fraction:10.3f}",
            f"  min logged propensity : {self.min_propensity:10.6f}",
        ]
        if self.warnings:
            lines.append("  warnings:")
            lines.extend(f"    - {warning}" for warning in self.warnings)
        else:
            lines.append("  no warnings")
        return "\n".join(lines)


def overlap_columns(
    new_policy: Policy, chunk: Trace, source: PropensitySource, cursor: int
) -> Tuple[np.ndarray, np.ndarray, int, Counter]:
    """One chunk's overlap columns, starting at absolute record *cursor*:
    the logging and new-policy propensities of the logged decisions, the
    count of greedy matches (decided once per distinct (context, decision
    code) pair) and the per-decision counts, first seen first."""
    columns = chunk.columns()
    try:
        old = source.propensity_batch(chunk)
    except PropensityError:  # replay the scalar loop to name the absolute record
        for index, record in enumerate(chunk):
            source.propensity(record, cursor + index)
        raise
    new = new_policy.propensity_batch(columns.decisions, columns.contexts)
    decisions, codes = columns.decisions, columns.decision_codes
    pairs, firsts = kernels.first_seen_codes(columns.context_codes, codes)
    greedy = new_policy.greedy_decision_batch(columns.contexts, firsts)
    hits = [decisions[first] == best for first, best in zip(firsts.tolist(), greedy)]
    matches = int(np.bincount(pairs) @ np.asarray(hits, dtype=np.intp))
    seen, firsts = kernels.first_seen_codes(codes)
    coverage: Counter = Counter()
    for first, count in zip(firsts.tolist(), np.bincount(seen).tolist()):
        coverage[decisions[first]] += count
    return old, new, matches, coverage


def overlap_report(
    new_policy: Policy,
    trace: Trace,
    old_policy: Optional[Policy] = None,
    propensity_model: Optional[PropensityModel] = None,
    ess_warning_fraction: float = 0.1,
    weight_warning: float = 50.0,
) -> OverlapReport:
    """Compute an :class:`OverlapReport` for evaluating *new_policy* on *trace*.

    The columns come from one streaming pass (an ``api.compare`` panel's
    :class:`repro.store.streaming.PanelPass`, else one of their own; an
    in-memory trace is one chunk), gathered per record and reduced once
    so every chunking agrees; a chunked trace is never materialised, and
    a quarantining reader's accounted shortfall is reported over the
    surviving records.
    """
    # Imported lazily — repro.store depends on repro.core.
    from repro.store.streaming import PanelPass

    panel = PanelPass.covering(new_policy, trace, old_policy, propensity_model)
    old, new, matches, coverage = panel.overlap_columns()
    n = len(old)
    stats = weight_diagnostics(checked_importance_ratio(new, old))
    warnings: List[str] = []
    if stats["ess"] < ess_warning_fraction * n:
        warnings.append(
            f"effective sample size {stats['ess']:.1f} is below {ess_warning_fraction:.0%} "
            f"of n={n}; IPS/DR corrections will be high-variance (paper §2.2.2)"
        )
    if stats["max_weight"] > weight_warning:
        warnings.append(
            f"max importance weight {stats['max_weight']:.1f} exceeds "
            f"{weight_warning}; a few records dominate the estimate (paper §4.1)"
        )
    if stats["zero_weight_fraction"] > 0.9:
        warnings.append(
            f"{stats['zero_weight_fraction']:.0%} of records have zero weight under "
            "the new policy; overlap is nearly empty (paper Fig 5)"
        )
    if matches == 0:
        warnings.append(
            "no record's logged decision matches the new policy's choice; "
            "matching-style evaluation is impossible (paper Fig 5)"
        )
    return OverlapReport(
        n=n,
        match_fraction=matches / n,
        min_propensity=float(old.min()),
        decision_coverage=dict(coverage),
        warnings=tuple(warnings),
        **stats,
    )


@dataclass(frozen=True)
class RandomnessReport:
    """How stochastic the *logging* policy actually was (§4.1).

    A deterministic logging policy (``min_entropy == 0`` everywhere and
    every propensity 1.0) cannot support IPS/DR at all for decisions it
    never took.
    """

    n: int
    mean_entropy: float
    min_entropy: float
    deterministic_fraction: float

    def render(self) -> str:
        """One-line summary."""
        return (
            f"logging randomness: mean entropy {self.mean_entropy:.3f} nats, "
            f"min {self.min_entropy:.3f}, deterministic on "
            f"{self.deterministic_fraction:.0%} of contexts"
        )


def randomness_report(old_policy: Policy, trace: Trace) -> RandomnessReport:
    """Entropy statistics of *old_policy* over the trace's contexts."""
    entropies = []
    for record in trace:
        distribution = old_policy.probabilities(record.context)
        probabilities = np.asarray([p for p in distribution.values() if p > 0], dtype=float)
        entropies.append(float(-(probabilities * np.log(probabilities)).sum()))
    entropies_array = np.asarray(entropies)
    return RandomnessReport(
        n=len(trace),
        mean_entropy=float(entropies_array.mean()),
        min_entropy=float(entropies_array.min()),
        deterministic_fraction=int((entropies_array < 1e-9).sum()) / len(trace),
    )
