"""String-keyed estimator and reward-model registry behind :mod:`repro.api`.

The facade accepts estimator *names* (``"dr"``, ``"snips"``, ...) so that
callers never import estimator classes for the common paths.  The mapping
from name to constructor lives here, together with two capability flags
the facade needs to build each estimator correctly:

* ``needs_model`` — the constructor takes a ``model=`` reward model
  (DM/DR-family); when the caller supplies none, the facade builds
  :meth:`Registry.default_model` (a fresh
  :class:`~repro.core.models.tabular.TabularMeanModel`), one per
  ``evaluate`` and one shared by a ``compare`` panel.
* ``supports_clip`` — the constructor takes the canonical ``clip=``
  weight threshold (clipped IPS, DR-family, SWITCH-DR).

Because every estimator constructor speaks the canonical keyword
vocabulary (``model=``, ``clip=``, ``fit_on_trace=`` — enforced by lint
rule REP003), the classes themselves serve as factories; no adapter
lambdas are needed.  The module-level :data:`default_registry` carries
the built-in estimators and models; tests or extensions may register
additional names on their own :class:`Registry` (or, sparingly, on the
default one).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.estimators import (
    IPS,
    ClippedIPS,
    DirectMethod,
    DoublyRobust,
    MatchingEstimator,
    OffPolicyEstimator,
    ReplayDoublyRobust,
    SelfNormalizedDR,
    SelfNormalizedIPS,
    SwitchDR,
)
from repro.core.models import (
    DecisionTreeRewardModel,
    KernelRewardModel,
    KNNRewardModel,
    RewardModel,
    RidgeRewardModel,
    TabularMeanModel,
)
from repro.core.policy import Policy
from repro.errors import EstimatorError, PolicyError

#: A policy-kind builder: decoded spec options plus the registry (for
#: nested specs) in, a built :class:`Policy` out.
PolicyBuilder = Callable[[Dict[str, object], "Registry"], Policy]


@dataclass(frozen=True)
class EstimatorSpec:
    """How the facade builds one named estimator."""

    name: str
    factory: Callable[..., OffPolicyEstimator]
    needs_model: bool = False
    supports_clip: bool = False
    #: Whether the factory draws randomness and takes the caller's ``rng=``.
    takes_rng: bool = False


class Registry:
    """Mutable mapping of estimator/model names to their factories.

    Lookups raise :class:`~repro.errors.EstimatorError` naming the known
    keys, so a typo in ``repro.api.evaluate(..., estimator="drr")`` fails
    with an actionable message rather than a bare ``KeyError``.
    """

    def __init__(self) -> None:
        self._estimators: Dict[str, EstimatorSpec] = {}
        self._models: Dict[str, Callable[..., RewardModel]] = {}
        self._policies: Dict[str, PolicyBuilder] = {}

    # -- estimators -----------------------------------------------------

    def register_estimator(
        self,
        name: str,
        factory: Callable[..., OffPolicyEstimator],
        *,
        needs_model: bool = False,
        supports_clip: bool = False,
        takes_rng: bool = False,
        replace: bool = False,
    ) -> None:
        """Register *factory* under *name* (``replace=True`` to override)."""
        if not replace and name in self._estimators:
            raise EstimatorError(
                f"estimator {name!r} is already registered; pass replace=True "
                "to override it"
            )
        self._estimators[name] = EstimatorSpec(
            name=name,
            factory=factory,
            needs_model=needs_model,
            supports_clip=supports_clip,
            takes_rng=takes_rng,
        )

    def estimator_spec(self, name: str) -> EstimatorSpec:
        """The :class:`EstimatorSpec` registered under *name*."""
        try:
            return self._estimators[name]
        except KeyError:
            known = ", ".join(sorted(self._estimators))
            raise EstimatorError(
                f"unknown estimator {name!r}; registered estimators: {known}"
            ) from None

    def estimator_names(self) -> Tuple[str, ...]:
        """All registered estimator names, sorted."""
        return tuple(sorted(self._estimators))

    def build_estimator(
        self,
        name: str,
        model: Optional[RewardModel] = None,
        clip: Optional[float] = None,
        rng=None,
    ) -> OffPolicyEstimator:
        """Construct the estimator registered under *name*.

        Model-needing estimators get *model* when given and a fresh
        :class:`TabularMeanModel` otherwise; passing *model* or *clip* to
        an estimator that takes neither is an error (a silently ignored
        option would misreport what was evaluated).  *rng* seeds the
        estimators that draw randomness (``replay-dr``); the others
        ignore it.
        """
        spec = self.estimator_spec(name)
        options: Dict[str, object] = {}
        if spec.needs_model:
            options["model"] = model if model is not None else self.default_model()
        elif model is not None:
            raise EstimatorError(
                f"estimator {name!r} does not take a reward model"
            )
        if clip is not None:
            if not spec.supports_clip:
                raise EstimatorError(
                    f"estimator {name!r} does not support clip="
                )
            options["clip"] = clip
        if spec.takes_rng:
            options["rng"] = rng
        return spec.factory(**options)

    def default_model(self) -> RewardModel:
        """A fresh instance of the reward model model-needing estimators
        get when the caller supplies none."""
        return TabularMeanModel()

    # -- policy kinds ---------------------------------------------------

    def register_policy(
        self,
        kind: str,
        builder: PolicyBuilder,
        *,
        replace: bool = False,
    ) -> None:
        """Register a policy-kind *builder* under *kind*.

        Builders take ``(options, registry)`` — the registry parameter
        lets composite kinds (mixtures, epsilon-greedy) resolve nested
        policy specs through the same table.
        """
        if not replace and kind in self._policies:
            raise PolicyError(
                f"policy kind {kind!r} is already registered; pass "
                "replace=True to override it"
            )
        self._policies[kind] = builder

    def policy_kinds(self) -> Tuple[str, ...]:
        """All registered policy kinds, sorted."""
        return tuple(sorted(self._policies))

    def build_policy(self, kind: str, options: Dict[str, object]) -> Policy:
        """Construct the policy kind registered under *kind*.

        The built-in kinds are installed by importing
        :mod:`repro.api.specs` (automatic via ``import repro.api``);
        custom registries can borrow them with
        :func:`repro.api.specs.install_builtin_policies`.
        """
        try:
            builder = self._policies[kind]
        except KeyError:
            if not self._policies:
                raise PolicyError(
                    f"unknown policy kind {kind!r}; no policy kinds are "
                    "registered on this registry — call "
                    "repro.api.specs.install_builtin_policies(registry) "
                    "to install the built-in kinds"
                ) from None
            known = ", ".join(sorted(self._policies))
            raise PolicyError(
                f"unknown policy kind {kind!r}; registered kinds: {known}"
            ) from None
        return builder(dict(options), self)

    # -- reward models --------------------------------------------------

    def register_model(
        self,
        name: str,
        factory: Callable[..., RewardModel],
        *,
        replace: bool = False,
    ) -> None:
        """Register a reward-model *factory* under *name*."""
        if not replace and name in self._models:
            raise EstimatorError(
                f"model {name!r} is already registered; pass replace=True "
                "to override it"
            )
        self._models[name] = factory

    def model_names(self) -> Tuple[str, ...]:
        """All registered model names, sorted."""
        return tuple(sorted(self._models))

    def build_model(self, name: str, **options) -> RewardModel:
        """Construct the reward model registered under *name*.

        *options* are forwarded to the factory (e.g. ``k=`` for the kNN
        model), so ``registry.build_model("knn", k=7)`` mirrors
        ``KNNRewardModel(k=7)``.
        """
        try:
            factory = self._models[name]
        except KeyError:
            known = ", ".join(sorted(self._models))
            raise EstimatorError(
                f"unknown reward model {name!r}; registered models: {known}"
            ) from None
        signature = inspect.signature(factory)
        try:
            signature.bind(**options)
        except TypeError:
            accepted = ", ".join(signature.parameters) or "none"
            raise EstimatorError(
                f"reward model {name!r} does not take option(s) "
                f"{sorted(options)}; its keywords: {accepted}"
            ) from None
        return factory(**options)


def _populate(registry: Registry) -> Registry:
    """Install the built-in estimators and reward models."""
    registry.register_estimator("dm", DirectMethod, needs_model=True)
    registry.register_estimator("ips", IPS)
    registry.register_estimator("clipped-ips", ClippedIPS, supports_clip=True)
    registry.register_estimator("snips", SelfNormalizedIPS)
    registry.register_estimator("matching", MatchingEstimator)
    registry.register_estimator(
        "dr", DoublyRobust, needs_model=True, supports_clip=True
    )
    registry.register_estimator(
        "sndr", SelfNormalizedDR, needs_model=True, supports_clip=True
    )
    registry.register_estimator(
        "switch-dr", SwitchDR, needs_model=True, supports_clip=True
    )
    registry.register_estimator(
        "replay-dr", ReplayDoublyRobust, needs_model=True, takes_rng=True
    )
    registry.register_model("tabular", TabularMeanModel)
    registry.register_model("knn", KNNRewardModel)
    registry.register_model("ridge", RidgeRewardModel)
    registry.register_model("tree", DecisionTreeRewardModel)
    registry.register_model("kernel", KernelRewardModel)
    return registry


#: The registry :func:`repro.api.evaluate` / :func:`repro.api.compare`
#: consult by default.
default_registry = _populate(Registry())
