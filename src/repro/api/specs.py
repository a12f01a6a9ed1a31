"""Data-only specs for policies, estimators, and traces.

The service tier answers "what would policy B have done?" over HTTP, so
every request ingredient must be *data, not code*: a JSON-serialisable
spec with a stable sha256 fingerprint.  This module defines the three
spec classes and their resolvers:

* :class:`PolicySpec` — ``{"kind": "epsilon-greedy", "options": {...}}``,
  resolved to a :class:`~repro.core.policy.Policy` through the policy
  section of the :class:`~repro.api.registry.Registry`;
* :class:`EstimatorConfig` — ``{"name": "dr", "options": {"clip": 10}}``,
  resolved to an :class:`~repro.core.estimators.OffPolicyEstimator`;
* :class:`TraceRef` — ``{"name": "abr-2017q3"}``, resolved by the
  server's :class:`~repro.store.naming.TraceCatalog` (the library-side
  facade takes trace objects directly).

Resolution builds exactly the objects a direct caller would construct by
hand — same constructors, same argument values — so spec-driven calls
are bit-identical to object calls (pinned by ``tests/api``).

Each spec's fields are declared once (:mod:`repro.core.schema`); its
``from_dict``, ``to_dict`` and ``fingerprint`` derive from them.  The
fingerprint hashes the canonical JSON of the decoded content
(:func:`repro.core.serialize.fingerprint`), so two specs share a
fingerprint iff they serialise identically; served responses echo it.

Importing this module installs the built-in policy kinds (``uniform``,
``constant``, ``tabular``, ``epsilon-greedy``, ``mixture``) into
:data:`~repro.api.registry.default_registry`;
:func:`install_builtin_policies` does the same for a custom registry.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import cache, cached_property, partial
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.api.registry import Registry, default_registry
from repro.core import schema
from repro.core.estimators import OffPolicyEstimator
from repro.core.models.base import RewardModel
from repro.core.policy import (
    DeterministicPolicy,
    EpsilonGreedyPolicy,
    MixturePolicy,
    Policy,
    TabularPolicy,
    UniformRandomPolicy,
)
from repro.core.schema import Field
from repro.core.serialize import decode_value, encode_value, fingerprint
from repro.core.spaces import DecisionSpace
from repro.errors import EstimatorError, PolicyError

__all__ = [
    "EstimatorConfig",
    "PolicySpec",
    "TraceRef",
    "install_builtin_policies",
    "resolve_estimator_config",
    "resolve_policy_spec",
]


def _checked(check, **options):
    """A dataclass field whose value passes *check*."""
    return field(metadata={"check": check}, **options)


class _Wire:
    """The wire form of a frozen spec dataclass, derived from its fields.

    Each field's ``metadata["check"]`` is its value check and a field
    with a default is optional on the wire; the class statement names
    how messages call the spec (``what``) and the error it raises.
    """

    def __init_subclass__(cls, what: str, error: type, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._what, cls._error = what, error
        # Each spec class owns its parser, so one class's from_dict can
        # be wrapped (timed, counted) without touching the others.
        cls.from_dict = classmethod(_Wire.from_dict.__func__)

    @classmethod
    @cache
    def _fields(cls) -> Tuple[Field, ...]:
        return tuple(
            Field(
                spec_field.name,
                spec_field.metadata["check"],
                schema.REQUIRED if spec_field.default_factory is MISSING else None,
            )
            for spec_field in fields(cls)
        )

    def __post_init__(self) -> None:
        for declared in self._fields():
            try:
                value = declared.check(getattr(self, declared.name))
            except ValueError as invalid:
                raise self._error(f"{self._what}: {declared.name} {invalid}") from None
            object.__setattr__(self, declared.name, value)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]):
        """Rebuild from :meth:`to_dict` output (or hand-written JSON);
        tagged wire values decode, so both paths give equal specs."""
        schema.check_keys(payload, cls._fields(), cls._what, cls._error)
        return cls(**{key: decode_value(value) for key, value in payload.items()})

    def content(self) -> Dict[str, Any]:
        """The decoded field values — what :attr:`fingerprint` hashes."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-serialisable form (tuples and friends tagged)."""
        return encode_value(self.content())

    @cached_property
    def fingerprint(self) -> str:
        """sha256 over the canonical JSON of this spec (computed once)."""
        return fingerprint(self.content())


@dataclass(frozen=True)
class PolicySpec(_Wire, what="policy spec", error=PolicyError):
    """A policy as data: a registered *kind* plus its *options*.

    ``options`` values are plain Python (tuples allowed — the JSON form
    tags them); :meth:`from_dict` decodes tagged wire payloads, so the
    two construction paths yield equal specs with equal fingerprints.
    """

    kind: str = _checked(schema.text)
    options: Dict[str, Any] = _checked(schema.mapping, default_factory=dict)


@dataclass(frozen=True)
class EstimatorConfig(_Wire, what="estimator config", error=EstimatorError):
    """An estimator as data: a registered *name* plus its *options*.

    Supported options are ``clip`` (canonical weight threshold, for
    estimators with ``supports_clip``) and ``model`` (a reward-model
    name or ``{"name": ..., "options": {...}}`` mapping, for estimators
    with ``needs_model``); :func:`resolve_estimator_config` rejects
    anything else by name.
    """

    name: str = _checked(schema.text)
    options: Dict[str, Any] = _checked(schema.mapping, default_factory=dict)


@dataclass(frozen=True)
class TraceRef(_Wire, what="trace ref", error=PolicyError):
    """A named trace, resolved server-side by the trace catalog."""

    name: str = _checked(schema.nonempty_text)


# -- built-in policy kinds ----------------------------------------------
#
# Each kind declares its option fields; the builder receives the checked
# values and makes exactly the constructor call a direct caller would
# write, so spec-built policies are the same objects (and produce
# bit-identical probabilities) as hand-built ones.


def _decision(value: Any) -> Any:
    """A hashable decision (a JSON list or object is not one)."""
    try:
        hash(value)
    except TypeError:
        raise ValueError(
            f"must be a decision (a string, number, or tagged tuple), got {value!r}"
        ) from None
    return value


def _space(value: Any) -> DecisionSpace:
    """A :class:`DecisionSpace` from a decision list (or pass one through)."""
    if isinstance(value, DecisionSpace):
        return value
    return DecisionSpace(schema.list_of(_decision)(value))


def _distribution(value: Any) -> Dict[Any, float]:
    """A decision→probability mapping with float probabilities."""
    if not isinstance(value, Mapping) or not all(
        isinstance(probability, (int, float)) and not isinstance(probability, bool)
        for probability in value.values()
    ):
        raise ValueError(f"must map decisions to probabilities, got {value!r}")
    return {_decision(decision): float(p) for decision, p in value.items()}


def _table(value: Any) -> Dict[tuple, Dict[Any, float]]:
    """Key tuples (tagged in JSON) → decision distributions."""
    if not isinstance(value, Mapping):
        raise ValueError(f"must map key tuples to distributions, got {value!r}")
    table = {}
    for key, row in value.items():
        try:
            table[key if isinstance(key, tuple) else (key,)] = _distribution(row)
        except ValueError as invalid:
            raise ValueError(f"row {key!r} {invalid}") from None
    return table


def _build_uniform(registry: Registry, space: DecisionSpace) -> Policy:
    return UniformRandomPolicy(space)


def _build_constant(registry: Registry, space: DecisionSpace, decision: Any) -> Policy:
    space.validate(decision)
    return DeterministicPolicy(space, lambda context: decision)


def _build_tabular(registry: Registry, space, key_features, table, default) -> Policy:
    return TabularPolicy(space, key_features=key_features, table=table, default=default)


def _build_epsilon_greedy(registry: Registry, base: Any, epsilon: float) -> Policy:
    base = resolve_policy_spec(base, registry=registry)
    return EpsilonGreedyPolicy(base, epsilon=epsilon)


def _build_mixture(registry: Registry, components: list, weights: list) -> Policy:
    return MixturePolicy(
        [resolve_policy_spec(entry, registry=registry) for entry in components],
        weights=weights,
    )


_SPACE = Field("space", _space)

#: kind -> (declared option fields, builder taking them as keywords).
#: ``base`` and ``components`` are nested policy specs.
_BUILTIN_KINDS = {
    "uniform": ((_SPACE,), _build_uniform),
    "constant": ((_SPACE, Field("decision", _decision)), _build_constant),
    "tabular": (
        (
            _SPACE,
            Field("key_features", schema.list_of(schema.text)),
            Field("table", _table),
            Field("default", _distribution, None),
        ),
        _build_tabular,
    ),
    "epsilon-greedy": (
        (Field("base"), Field("epsilon", schema.number)),
        _build_epsilon_greedy,
    ),
    "mixture": (
        (Field("components", schema.list_of(schema.anything)),
         Field("weights", schema.list_of(schema.number))),
        _build_mixture,
    ),
}


def _declared_kind(
    kind: str, option_fields, build, options: Dict[str, Any], registry: Registry
) -> Policy:
    """A registry policy builder ``(options, registry)`` for a declared kind."""
    values = schema.read(options, option_fields, f"{kind} policy options", PolicyError)
    return build(registry, **values)


def install_builtin_policies(registry: Registry) -> Registry:
    """Install the built-in policy kinds on *registry* (idempotent)."""
    for kind, (option_fields, build) in _BUILTIN_KINDS.items():
        if kind not in registry.policy_kinds():
            registry.register_policy(
                kind, partial(_declared_kind, kind, option_fields, build)
            )
    return registry


install_builtin_policies(default_registry)


# -- resolvers ----------------------------------------------------------


def resolve_policy_spec(
    spec: Union[Policy, PolicySpec, Mapping[str, Any]],
    registry: Optional[Registry] = None,
) -> Policy:
    """Resolve a policy spec (or pass a :class:`Policy` through).

    Accepts a :class:`Policy` instance, a :class:`PolicySpec`, or its
    mapping form; mapping options are decoded from the tagged wire
    encoding first, so JSON payloads and native Python options build
    identical policies.
    """
    if isinstance(spec, Policy):
        return spec
    registry = registry if registry is not None else default_registry
    if isinstance(spec, Mapping):
        spec = PolicySpec.from_dict(spec)
    if not isinstance(spec, PolicySpec):
        raise PolicyError(
            "policy spec must be a Policy, a PolicySpec, or a mapping like "
            '{"kind": "uniform", "options": {"space": [...]}}; got '
            f"{type(spec).__name__}"
        )
    return registry.build_policy(spec.kind, spec.options)


def _model(value: Any) -> Union[RewardModel, str, EstimatorConfig]:
    """The ``model`` estimator option: a model, a name, or ``{name, options}``."""
    if isinstance(value, (RewardModel, str)):
        return value
    if isinstance(value, Mapping):
        return EstimatorConfig.from_dict(value)
    raise ValueError(
        "must be a reward model, a registered model name, or a "
        f"{{'name': ..., 'options': ...}} mapping, got {type(value).__name__}"
    )


_ESTIMATOR_OPTIONS = (Field("clip", schema.number, None), Field("model", _model, None))


class _HistoryEstimatorAdapter:
    """Present the uniform ``estimate()`` signature over a history-
    dependent estimator (``replay-dr``), which lives outside the
    :class:`OffPolicyEstimator` hierarchy and takes no propensity model
    or floor.  The facade promises one calling convention for every
    registered name; this adapter keeps that promise and turns the
    unsupported arguments into actionable errors instead of
    ``TypeError``.
    """

    def __init__(self, inner):
        self._inner = inner

    @property
    def name(self) -> str:
        """The wrapped estimator's report name."""
        return self._inner.name

    @property
    def failure_modes(self):
        """The wrapped estimator's anticipated contract failures."""
        return getattr(self._inner, "failure_modes", ())

    def estimate(
        self,
        policy,
        trace,
        old_policy=None,
        propensity_model=None,
        propensity_floor=None,
    ):
        """Delegate, rejecting the arguments the inner class lacks."""
        if propensity_model is not None:
            raise EstimatorError(
                f"estimator {self.name!r} is history-dependent and takes "
                "no propensity model; pass the logging policy as "
                "propensities= or rely on logged per-record propensities"
            )
        if propensity_floor is not None:
            raise EstimatorError(
                f"estimator {self.name!r} does not support "
                "propensity_floor="
            )
        return self._inner.estimate(policy, trace, old_policy=old_policy)


def _adapt_estimator(built):
    """Wrap non-:class:`OffPolicyEstimator` builds (``replay-dr``) so
    every registered estimator answers the same ``estimate()`` call."""
    if isinstance(built, OffPolicyEstimator):
        return built
    return _HistoryEstimatorAdapter(built)


def resolve_estimator_config(
    config: Union[OffPolicyEstimator, EstimatorConfig, Mapping[str, Any], str],
    registry: Optional[Registry] = None,
) -> OffPolicyEstimator:
    """Resolve an estimator config to a built estimator.

    Accepts a pre-built estimator (passed through), a registry name, an
    :class:`EstimatorConfig`, or its mapping form.  Config options other
    than ``clip``/``model`` are rejected by name — a silently dropped
    option would misreport what was evaluated.
    """
    registry = registry if registry is not None else default_registry
    if isinstance(config, OffPolicyEstimator):
        return config
    if isinstance(config, str):
        return _adapt_estimator(registry.build_estimator(config))
    if isinstance(config, Mapping):
        config = EstimatorConfig.from_dict(config)
    if not isinstance(config, EstimatorConfig):
        known = ", ".join(registry.estimator_names())
        raise EstimatorError(
            "estimator must be a name, an estimator instance, an "
            'EstimatorConfig, or a mapping like {"name": "dr", "options": '
            f'{{"clip": 10.0}}}}; got {type(config).__name__}. '
            f"Registered estimators: {known}"
        )
    options = schema.read(
        config.options,
        _ESTIMATOR_OPTIONS,
        f"estimator {config.name!r} options (supported options: clip, model)",
        EstimatorError,
    )
    model = options["model"]
    if isinstance(model, str):
        model = registry.build_model(model)
    elif isinstance(model, EstimatorConfig):
        model = registry.build_model(model.name, **model.options)
    return _adapt_estimator(
        registry.build_estimator(config.name, model=model, clip=options["clip"])
    )
