"""One-stop evaluation reports.

Bundles everything a practitioner should look at before trusting a
trace-driven estimate — the value estimates from several estimators,
overlap/randomness diagnostics, and bootstrap uncertainty — into a
single structured result with a text rendering.  This is the "principled
platform for networking trace-driven evaluation" (§3) as an artifact:
one call, one reviewable report.

The report *builder* lives in :mod:`repro.api`
(:func:`repro.api.evaluate` / :func:`repro.api.compare`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.core.bootstrap import BootstrapResult
from repro.core.diagnostics import OverlapReport
from repro.core.estimators import EstimateResult
from repro.core.serialize import decode_value, encode_value, float_list
from repro.errors import TraceError

#: Payload discriminator for serialised reports.
REPORT_KIND = "repro.evaluation-report"

#: Serialisation format version; bump on breaking payload changes.
REPORT_VERSION = 1


def _require_report_mapping(payload: Any, what: str) -> Mapping[str, Any]:
    """*payload* as a mapping, or a :class:`TraceError` naming *what*."""
    if not isinstance(payload, Mapping):
        raise TraceError(
            f"{what} must be a mapping, got {type(payload).__name__}"
        )
    return payload


@dataclass(frozen=True)
class EvaluationReport:
    """A complete evaluation of one candidate policy on one trace.

    ``overlap`` is ``None`` when the evaluation was run with
    ``diagnostics=False`` (hot paths that only need the value estimate).
    """

    estimates: Dict[str, EstimateResult]
    overlap: Optional[OverlapReport]
    bootstrap: Optional[BootstrapResult]
    recommended: str
    failed: Dict[str, str] = field(default_factory=dict)

    @property
    def value(self) -> float:
        """The recommended estimator's value."""
        return self.estimates[self.recommended].value

    @property
    def result(self) -> EstimateResult:
        """The recommended estimator's full :class:`EstimateResult`
        (contributions, standard error, diagnostics)."""
        return self.estimates[self.recommended]

    def render(self) -> str:
        """Multi-section text report."""
        lines = ["=== trace-driven evaluation report ===", ""]
        if self.overlap is not None:
            lines.append(self.overlap.render())
            lines.append("")
        lines.append(f"{'estimator':<12} {'estimate':>10} {'stderr':>8} {'n':>6}")
        for name, result in self.estimates.items():
            stderr = (
                f"{result.std_error:8.4f}" if np.isfinite(result.std_error) else "     n/a"
            )
            marker = "  <- recommended" if name == self.recommended else ""
            # A fallback-chain result that degraded names the link that
            # actually answered — degradation is reported, never hidden.
            fallback = result.diagnostics.get("fallback")
            if isinstance(fallback, dict) and fallback.get("hops"):
                hops = ", ".join(
                    f"{hop['link']}: {hop['error_type']}"
                    for hop in fallback["hops"]
                )
                marker += (
                    f"  (degraded to {fallback['answered_by']} after {hops})"
                )
            # A degraded sharded read names its sample loss the same way:
            # the estimate stands on fewer records and the report says so.
            quarantine = result.diagnostics.get("store_quarantine")
            if isinstance(quarantine, dict) and quarantine.get("dropped_shards"):
                marker += (
                    f"  (store quarantine: lost "
                    f"{quarantine['dropped_records']}/"
                    f"{quarantine['total_records']} records in "
                    f"{quarantine['dropped_shards']} shard(s))"
                )
            lines.append(
                f"{name:<12} {result.value:10.4f} {stderr} {result.n:6d}{marker}"
            )
        for name, reason in self.failed.items():
            lines.append(f"{name:<12} {'failed':>10}  ({reason})")
        if self.bootstrap is not None:
            lines.append("")
            lines.append(f"bootstrap ({self.recommended}): {self.bootstrap.render()}")
        return "\n".join(lines)

    # -- JSON round trip ------------------------------------------------
    #
    # The serve tier ships reports over HTTP, so the JSON form must be
    # lossless: from_json(to_json(report)) reproduces every float bit
    # for bit (including nan standard errors, fallback-hop diagnostics,
    # and store-quarantine markers).  Tagged encoding details live in
    # repro.core.serialize.

    def to_json_dict(self) -> Dict[str, Any]:
        """The report as a JSON-serialisable dict (strict JSON: no
        ``NaN`` literals — non-finite floats are tagged)."""
        estimates = {
            name: {
                "value": encode_value(result.value),
                "method": result.method,
                "n": int(result.n),
                "std_error": encode_value(result.std_error),
                "contributions": float_list(result.contributions),
                "diagnostics": encode_value(result.diagnostics),
            }
            for name, result in self.estimates.items()
        }
        overlap = None
        if self.overlap is not None:
            overlap = {
                "n": int(self.overlap.n),
                "ess": encode_value(self.overlap.ess),
                "match_fraction": encode_value(self.overlap.match_fraction),
                "max_weight": encode_value(self.overlap.max_weight),
                "mean_weight": encode_value(self.overlap.mean_weight),
                "zero_weight_fraction": encode_value(
                    self.overlap.zero_weight_fraction
                ),
                "min_propensity": encode_value(self.overlap.min_propensity),
                "decision_coverage": encode_value(
                    dict(self.overlap.decision_coverage)
                ),
                "warnings": list(self.overlap.warnings),
            }
        bootstrap = None
        if self.bootstrap is not None:
            bootstrap = {
                "point_estimate": encode_value(self.bootstrap.point_estimate),
                "lower": encode_value(self.bootstrap.lower),
                "upper": encode_value(self.bootstrap.upper),
                "std": encode_value(self.bootstrap.std),
                "replicates": float_list(self.bootstrap.replicates),
                "confidence": encode_value(self.bootstrap.confidence),
            }
        return {
            "kind": REPORT_KIND,
            "version": REPORT_VERSION,
            "recommended": self.recommended,
            "estimates": estimates,
            "failed": dict(self.failed),
            "overlap": overlap,
            "bootstrap": bootstrap,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """:meth:`to_json_dict` as strict JSON text (sorted keys)."""
        return json.dumps(
            self.to_json_dict(), indent=indent, sort_keys=True, allow_nan=False
        )

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "EvaluationReport":
        """Rebuild a report from :meth:`to_json_dict` output.

        Raises :class:`~repro.errors.TraceError` on payloads that are
        not version-compatible serialised reports.
        """
        payload = _require_report_mapping(payload, "evaluation-report payload")
        kind = payload.get("kind")
        if kind != REPORT_KIND:
            raise TraceError(
                f"payload kind {kind!r} is not {REPORT_KIND!r}"
            )
        version = payload.get("version")
        if version != REPORT_VERSION:
            raise TraceError(
                f"unsupported evaluation-report version {version!r} "
                f"(this build reads version {REPORT_VERSION})"
            )
        estimates: Dict[str, EstimateResult] = {}
        for name, entry in _require_report_mapping(
            payload.get("estimates", {}), "estimates section"
        ).items():
            entry = _require_report_mapping(entry, f"estimate {name!r}")
            estimates[name] = EstimateResult(
                value=float(decode_value(entry["value"])),
                method=str(entry["method"]),
                n=int(entry["n"]),
                contributions=np.asarray(
                    decode_value(list(entry["contributions"])), dtype=float
                ),
                std_error=float(decode_value(entry["std_error"])),
                diagnostics=decode_value(dict(entry.get("diagnostics", {}))),
            )
        overlap = None
        overlap_payload = payload.get("overlap")
        if overlap_payload is not None:
            overlap_payload = _require_report_mapping(
                overlap_payload, "overlap section"
            )
            overlap = OverlapReport(
                n=int(overlap_payload["n"]),
                ess=float(decode_value(overlap_payload["ess"])),
                match_fraction=float(
                    decode_value(overlap_payload["match_fraction"])
                ),
                max_weight=float(decode_value(overlap_payload["max_weight"])),
                mean_weight=float(decode_value(overlap_payload["mean_weight"])),
                zero_weight_fraction=float(
                    decode_value(overlap_payload["zero_weight_fraction"])
                ),
                min_propensity=float(
                    decode_value(overlap_payload["min_propensity"])
                ),
                decision_coverage={
                    decision: int(count)
                    for decision, count in decode_value(
                        overlap_payload.get("decision_coverage", {})
                    ).items()
                },
                warnings=tuple(
                    str(warning)
                    for warning in overlap_payload.get("warnings", [])
                ),
            )
        bootstrap = None
        bootstrap_payload = payload.get("bootstrap")
        if bootstrap_payload is not None:
            bootstrap_payload = _require_report_mapping(
                bootstrap_payload, "bootstrap section"
            )
            bootstrap = BootstrapResult(
                point_estimate=float(
                    decode_value(bootstrap_payload["point_estimate"])
                ),
                lower=float(decode_value(bootstrap_payload["lower"])),
                upper=float(decode_value(bootstrap_payload["upper"])),
                std=float(decode_value(bootstrap_payload["std"])),
                replicates=np.asarray(
                    decode_value(list(bootstrap_payload["replicates"])),
                    dtype=float,
                ),
                confidence=float(decode_value(bootstrap_payload["confidence"])),
            )
        recommended = payload.get("recommended")
        if not isinstance(recommended, str) or recommended not in estimates:
            raise TraceError(
                f"recommended estimator {recommended!r} is not among the "
                f"estimates {sorted(estimates)}"
            )
        return cls(
            estimates=estimates,
            overlap=overlap,
            bootstrap=bootstrap,
            recommended=recommended,
            failed={
                str(name): str(reason)
                for name, reason in _require_report_mapping(
                    payload.get("failed", {}), "failed section"
                ).items()
            },
        )

    @classmethod
    def from_json(cls, text: str) -> "EvaluationReport":
        """Rebuild a report from :meth:`to_json` text."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise TraceError(
                f"evaluation-report payload is not valid JSON: {error}"
            ) from None
        return cls.from_json_dict(payload)
