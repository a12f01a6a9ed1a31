"""Graceful estimator degradation: the fallback chain.

Jiang & Li and Farajtabar et al. both sell DR on *graceful degradation*
— when one ingredient (model or propensities) is broken, the estimator
leans on the other.  :class:`EstimatorFallbackChain` applies the same
principle one level up: given an ordered chain such as DR → SNIPS → DM,
it answers with the first link whose input contracts hold, records every
hop it took to get there, and **never degrades silently** — the hops are
written into the result's diagnostics and surfaced by
:meth:`repro.experiments.harness.ExperimentResult.render` and
:meth:`repro.core.reporting.EvaluationReport.render`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.estimators.base import EstimateResult, OffPolicyEstimator
from repro.core.policy import Policy
from repro.core.propensity import PropensityModel, PropensitySource
from repro.core.types import Trace
from repro.errors import EstimatorError, FallbackExhaustedError
from repro.obs.spans import increment, span

#: Key under which chain metadata lands in ``EstimateResult.diagnostics``.
FALLBACK_DIAGNOSTIC = "fallback"


@dataclass(frozen=True)
class FallbackHop:
    """One link that failed and was fallen through.

    Attributes
    ----------
    link:
        The failing estimator's name.
    error_type, message:
        What it raised.
    declared_modes:
        The link's :attr:`~repro.core.estimators.base.OffPolicyEstimator.failure_modes`,
        so reports can say whether the failure was an anticipated one.
    """

    link: str
    error_type: str
    message: str
    declared_modes: Tuple[str, ...] = ()

    def to_json(self) -> Dict[str, Any]:
        """JSON-serialisable representation (for diagnostics/ledgers)."""
        return {
            "link": self.link,
            "error_type": self.error_type,
            "message": self.message,
            "declared_modes": list(self.declared_modes),
        }


class EstimatorFallbackChain(OffPolicyEstimator):
    """Try estimators in order; answer with the first that succeeds.

    Each link is attempted with the full inputs; a link raising
    :class:`EstimatorError` (no overlap, singular fit, propensity
    violation, ...) is recorded as a :class:`FallbackHop` and the next
    link is tried.  The successful link's result is returned with a
    ``diagnostics["fallback"]`` entry::

        {"answered_by": "snips", "chain": ["dr", "snips", "dm"],
         "hops": [{"link": "dr", "error_type": "PropensityError", ...}]}

    If every link fails, :class:`FallbackExhaustedError` is raised with
    every hop enumerated — degradation is reported, never masked.
    """

    # The chain defers propensity resolution to its links: a DM tail
    # must stay usable even when the propensity column is the thing
    # that is broken.
    requires_propensities = False

    def __init__(self, links: Sequence[OffPolicyEstimator]):
        if not links:
            raise EstimatorError("fallback chain needs at least one estimator")
        for link in links:
            if not isinstance(link, OffPolicyEstimator):
                raise EstimatorError(
                    f"fallback chain links must be estimators, got "
                    f"{type(link).__name__}"
                )
        self._links: Tuple[OffPolicyEstimator, ...] = tuple(links)

    @property
    def name(self) -> str:
        return "chain(" + ">".join(link.name for link in self._links) + ")"

    @property
    def links(self) -> Tuple[OffPolicyEstimator, ...]:
        """The chain's estimators, in fall-through order."""
        return self._links

    def estimate(
        self,
        new_policy: Policy,
        trace: Trace,
        old_policy: Optional[Policy] = None,
        propensity_model: Optional[PropensityModel] = None,
        propensity_floor: Optional[float] = None,
    ) -> EstimateResult:
        """Estimate via the first link whose contracts hold."""
        hops: List[FallbackHop] = []
        with span("fallback_chain", chain=self.name):
            for link in self._links:
                try:
                    result = link.estimate(
                        new_policy,
                        trace,
                        old_policy=old_policy,
                        propensity_model=propensity_model,
                        propensity_floor=propensity_floor,
                    )
                except EstimatorError as failure:
                    hops.append(
                        FallbackHop(
                            link=link.name,
                            error_type=type(failure).__name__,
                            message=str(failure),
                            declared_modes=link.failure_modes,
                        )
                    )
                    # Telemetry side channel: every hop is countable in
                    # aggregate (total and per failing link), not just
                    # visible in one result's diagnostics.
                    increment("ope.fallback.hops")
                    increment(f"ope.fallback.hops.{link.name}")
                    continue
                diagnostics = dict(result.diagnostics)
                diagnostics[FALLBACK_DIAGNOSTIC] = {
                    "answered_by": link.name,
                    "chain": [l.name for l in self._links],
                    "hops": [hop.to_json() for hop in hops],
                }
                return replace(result, diagnostics=diagnostics)
        detail = "; ".join(
            f"{hop.link}: {hop.error_type}({hop.message})" for hop in hops
        )
        raise FallbackExhaustedError(
            f"every link of {self.name} failed — {detail}"
        )


def fallback_metadata(result: EstimateResult) -> Optional[Dict[str, Any]]:
    """The chain metadata of *result*, or ``None`` if it did not come
    from a fallback chain."""
    metadata = result.diagnostics.get(FALLBACK_DIAGNOSTIC)
    if isinstance(metadata, dict):
        return metadata
    return None


def degradation_label(result: EstimateResult) -> Optional[str]:
    """Which link answered, when *result* actually degraded.

    Returns ``None`` both for non-chain results and for chain results
    answered by the first link (no degradation happened).
    """
    metadata = fallback_metadata(result)
    if metadata is None or not metadata.get("hops"):
        return None
    return str(metadata["answered_by"])
