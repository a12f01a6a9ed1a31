"""``repro.api`` — the unified evaluation facade.

One import, two calls::

    from repro import api

    report = api.evaluate(trace, policy, estimator="dr")
    print(report.value)

    panel = api.compare(trace, policy, estimators=["dm", "snips", "dr"])
    print(panel.render())

:func:`evaluate` runs one named estimator and returns an
:class:`~repro.core.reporting.EvaluationReport`; :func:`compare` runs a
panel of estimators through the same report.  Estimators are looked up by
name in :data:`repro.api.registry.default_registry`; passing an
:class:`~repro.core.estimators.OffPolicyEstimator` instance instead of a
name is always allowed for custom configurations.

The facade adds nothing numerically: it builds the same estimator objects
and calls the same ``estimate()`` entry point a direct caller would, so
facade results are bit-identical to direct calls (a property the test
suite asserts).  Every call is wrapped in an observability span, so
``repro trace`` and ``--telemetry`` attribute work to ``api.evaluate`` /
``api.compare`` frames.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

from repro.api.registry import Registry, default_registry
from repro.api.specs import (
    EstimatorConfig,
    PolicySpec,
    TraceRef,
    _adapt_estimator,
    install_builtin_policies,
    resolve_estimator_config,
    resolve_policy_spec,
)
from repro.core.bootstrap import BootstrapResult, bootstrap_ci
from repro.core.diagnostics import overlap_report
from repro.core.estimators import EstimateResult, OffPolicyEstimator
from repro.core.models.base import RewardModel
from repro.core.policy import Policy
from repro.core.propensity import PropensityModel
from repro.core.reporting import EvaluationReport
from repro.core.types import Trace
from repro.errors import EstimatorError
from repro.obs.spans import span
from repro.store.streaming import PanelPass

__all__ = [
    "EstimatorConfig",
    "EvaluationReport",
    "PolicySpec",
    "Registry",
    "TraceRef",
    "compare",
    "default_registry",
    "evaluate",
    "install_builtin_policies",
    "resolve_estimator_config",
    "resolve_policy_spec",
]

#: What callers may pass as ``policy=``: a built :class:`Policy`, a
#: :class:`PolicySpec`, or its mapping form.
PolicyLike = Union[Policy, PolicySpec, Mapping]

#: What callers may pass as ``estimator=``: a registry name, a built
#: estimator, an :class:`EstimatorConfig`, or its mapping form.
EstimatorLike = Union[str, OffPolicyEstimator, EstimatorConfig, Mapping]

#: What callers may pass as ``propensities=``: the logging policy (as an
#: object or policy spec), a fitted propensity model, or ``None`` (use
#: the trace's logged per-record propensities).
PropensitySpec = Union[Policy, PolicySpec, Mapping, PropensityModel, None]


def _split_propensities(
    propensities: PropensitySpec,
    registry: Registry,
) -> tuple[Optional[Policy], Optional[PropensityModel]]:
    """Map the polymorphic ``propensities=`` argument onto the
    ``old_policy=`` / ``propensity_model=`` pair the estimator entry
    points take (resolution priority is identical either way)."""
    if propensities is None:
        return None, None
    if isinstance(propensities, PropensityModel):
        return None, propensities
    if isinstance(propensities, Policy):
        return propensities, None
    if isinstance(propensities, (PolicySpec, Mapping)):
        return resolve_policy_spec(propensities, registry=registry), None
    raise EstimatorError(
        "propensities= must be a Policy (the logging policy), a policy "
        "spec (PolicySpec or mapping), a PropensityModel, or None; got "
        f"{type(propensities).__name__}"
    )


def _resolve_policy(policy: PolicyLike, registry: Registry) -> Policy:
    """Build (or pass through) the candidate policy for one call."""
    return resolve_policy_spec(policy, registry=registry)


def _resolve_estimator(
    estimator: EstimatorLike,
    model: Optional[RewardModel],
    clip: Optional[float],
    registry: Registry,
) -> OffPolicyEstimator:
    """Build (or pass through) the estimator for one :func:`evaluate`."""
    if isinstance(estimator, OffPolicyEstimator):
        if model is not None or clip is not None:
            raise EstimatorError(
                "model=/clip= only apply when the estimator is given by "
                "name; a pre-built estimator instance already carries its "
                "configuration"
            )
        return estimator
    if isinstance(estimator, (EstimatorConfig, Mapping)):
        if model is not None or clip is not None:
            raise EstimatorError(
                "model=/clip= only apply when the estimator is given by "
                "name; an estimator config carries its own model/clip "
                "options"
            )
        return resolve_estimator_config(estimator, registry=registry)
    return _adapt_estimator(
        registry.build_estimator(estimator, model=model, clip=clip)
    )


def evaluate(
    trace: Trace,
    policy: PolicyLike,
    estimator: EstimatorLike = "dr",
    *,
    model: Optional[RewardModel] = None,
    propensities: PropensitySpec = None,
    propensity_floor: Optional[float] = None,
    clip: Optional[float] = None,
    diagnostics: bool = True,
    bootstrap_replicates: int = 0,
    rng=None,
    registry: Optional[Registry] = None,
) -> EvaluationReport:
    """Evaluate *policy* on *trace* with one named estimator.

    Parameters
    ----------
    trace, policy:
        The logged trace and the candidate (new) policy to evaluate.
        *policy* may be a built :class:`Policy`, a
        :class:`~repro.api.specs.PolicySpec`, or its mapping form
        (``{"kind": "uniform", "options": {"space": [...]}}``) —
        spec-built policies are bit-identical to hand-built ones.
    estimator:
        A registry name (``"dm"``, ``"ips"``, ``"clipped-ips"``,
        ``"snips"``, ``"matching"``, ``"dr"``, ``"sndr"``,
        ``"switch-dr"``, ``"replay-dr"``), a pre-built estimator
        instance, an :class:`~repro.api.specs.EstimatorConfig`, or its
        mapping form (``{"name": "dr", "options": {"clip": 10.0}}``).
    model:
        Reward model for model-based estimators; omitted, the estimator
        gets a fresh :class:`~repro.core.models.tabular.TabularMeanModel`.
    propensities:
        Where old-policy propensities come from: the logging
        :class:`Policy`, a fitted :class:`PropensityModel`, or ``None``
        to use the trace's logged per-record propensities.
    propensity_floor:
        Optional clip on tiny positive propensities (see
        :class:`~repro.core.propensity.FlooredPropensitySource`).
    clip:
        Canonical weight threshold for estimators that support it.
    diagnostics:
        Compute the overlap section with
        :func:`~repro.core.diagnostics.overlap_report`.  On a chunked
        trace (never materialised) its columns come from the estimate's
        own pass over the chunks, so diagnostics cost no second read.  On
        a reader opened with ``on_corruption="quarantine"`` it covers the
        surviving records, like the estimate.  ``False`` leaves
        ``overlap`` as ``None``.
    bootstrap_replicates:
        0 disables the bootstrap section.
    registry:
        Alternate :class:`Registry` (defaults to the module-level one).

    Returns the single-estimator :class:`EvaluationReport`;
    ``report.value`` is the estimate.  Estimator failures propagate as
    :class:`~repro.errors.EstimatorError` (there is no panel to fall
    back on — use :func:`compare` for graceful degradation).
    """
    registry = registry or default_registry
    policy = _resolve_policy(policy, registry)
    old_policy, propensity_model = _split_propensities(propensities, registry)
    built = _resolve_estimator(estimator, model, clip, registry)
    with span("api.evaluate", estimator=built.name):
        return _panel_report(
            trace,
            policy,
            {built.name: built},
            old_policy=old_policy,
            propensity_model=propensity_model,
            propensity_floor=propensity_floor,
            diagnostics=diagnostics,
            bootstrap_replicates=bootstrap_replicates,
            rng=rng,
        )


def compare(
    trace: Trace,
    policy: PolicyLike,
    estimators: Sequence[EstimatorLike] = ("dm", "snips", "dr"),
    *,
    model: Optional[RewardModel] = None,
    propensities: PropensitySpec = None,
    clip: Optional[float] = None,
    extra_estimators: Optional[Dict[str, OffPolicyEstimator]] = None,
    diagnostics: bool = True,
    bootstrap_replicates: int = 0,
    rng=None,
    registry: Optional[Registry] = None,
) -> EvaluationReport:
    """Evaluate *policy* on *trace* with a panel of estimators.

    The default panel is DM, SNIPS and DR.  The model-based estimators
    named here share one reward model — *model* when given, else one
    fresh :class:`~repro.core.models.tabular.TabularMeanModel` — which
    is fit once and reused (two fits on the same trace would give the
    same tables); estimators that fail with
    :class:`~repro.errors.EstimatorError` are reported in ``failed``
    rather than aborting the panel; ``"dr"`` is recommended when it
    survived, else the first surviving estimator; the optional bootstrap
    resamples the recommended panel member.

    *estimators* entries are registry names, pre-built instances
    (labelled by their ``name``), or estimator configs
    (:class:`~repro.api.specs.EstimatorConfig` or mapping form, labelled
    by their ``name``); *extra_estimators* appends explicitly labelled
    instances.  *clip* is
    forwarded to the named estimators that support it (configs carry
    their own options instead).  *policy* accepts the same spec forms as
    :func:`evaluate`, and *diagnostics* behaves as there.

    The panel is one :class:`~repro.store.streaming.PanelPass`: each
    chunk (an in-memory trace is one) is read once for every member and
    the overlap columns, through one fork pool when
    ``REPRO_STREAM_WORKERS`` asks for one on a chunked trace, and the
    report is byte-identical for every chunking.
    """
    registry = registry or default_registry
    if len(trace) == 0:
        raise EstimatorError("cannot evaluate on an empty trace")
    policy = _resolve_policy(policy, registry)
    old_policy, propensity_model = _split_propensities(propensities, registry)

    # Registry-built members share one default model: fit once, reused.
    shared_model = model if model is not None else registry.default_model()
    panel: Dict[str, OffPolicyEstimator] = {}
    for entry in estimators:
        if isinstance(entry, OffPolicyEstimator):
            panel[entry.name] = entry
            continue
        if isinstance(entry, (EstimatorConfig, Mapping)):
            built_entry = resolve_estimator_config(entry, registry=registry)
            panel[built_entry.name] = built_entry
            continue
        spec = registry.estimator_spec(entry)
        panel[entry] = _adapt_estimator(
            registry.build_estimator(
                entry,
                model=shared_model if spec.needs_model else None,
                clip=clip if spec.supports_clip else None,
            )
        )
    panel.update(extra_estimators or {})

    with span("api.compare", estimators=",".join(panel)):
        return _panel_report(
            trace,
            policy,
            panel,
            old_policy=old_policy,
            propensity_model=propensity_model,
            diagnostics=diagnostics,
            bootstrap_replicates=bootstrap_replicates,
            rng=rng,
            isolate=True,
        )


def _panel_report(
    trace: Trace,
    policy: Policy,
    panel: Dict[str, OffPolicyEstimator],
    *,
    old_policy: Optional[Policy],
    propensity_model: Optional[PropensityModel],
    propensity_floor: Optional[float] = None,
    diagnostics: bool,
    bootstrap_replicates: int,
    rng,
    isolate: bool = False,
) -> EvaluationReport:
    """Estimate every *panel* member, then the overlap and bootstrap
    sections, inside one :class:`~repro.store.streaming.PanelPass`.

    With *isolate*, a member's :class:`~repro.errors.EstimatorError`
    lands in ``failed`` instead of propagating.
    """
    # Only evaluate() passes a floor; a compare panel may hold estimators
    # (the state-aware ones) whose estimate() takes no propensity_floor.
    floor = {} if propensity_floor is None else {"propensity_floor": propensity_floor}
    estimates: Dict[str, EstimateResult] = {}
    failed: Dict[str, str] = {}
    with PanelPass(
        policy,
        trace,
        panel.values(),
        old_policy=old_policy,
        propensity_model=propensity_model,
        propensity_floor=propensity_floor,
        overlap=diagnostics,
    ):
        for label, built in panel.items():
            try:
                estimates[label] = built.estimate(
                    policy,
                    trace,
                    old_policy=old_policy,
                    propensity_model=propensity_model,
                    **floor,
                )
            except EstimatorError as failure:
                if not isolate:
                    raise
                failed[label] = str(failure)
        if not estimates:
            raise EstimatorError(
                "every estimator failed; see the individual errors: "
                + repr(failed)
            )
        overlap = (
            overlap_report(
                policy,
                trace,
                old_policy=old_policy,
                propensity_model=propensity_model,
            )
            if diagnostics
            else None
        )
        recommended = "dr" if "dr" in estimates else next(iter(estimates))
        bootstrap: Optional[BootstrapResult] = None
        if bootstrap_replicates > 0:
            bootstrap = bootstrap_ci(
                panel[recommended],
                policy,
                trace,
                old_policy=old_policy,
                propensity_model=propensity_model,
                replicates=bootstrap_replicates,
                rng=rng,
            )
    return EvaluationReport(
        estimates=estimates,
        overlap=overlap,
        bootstrap=bootstrap,
        recommended=recommended,
        failed=failed,
    )
