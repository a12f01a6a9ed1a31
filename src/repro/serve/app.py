"""The evaluation service: request validation, caching, and compute.

This is the protocol-independent core of ``repro serve`` — the HTTP
layer (:mod:`repro.serve.server`) parses bytes and hands
:class:`~repro.serve.http.HttpRequest` objects to
:meth:`EvaluationService.handle`, which returns ``(status, payload)``.
All estimation goes through :mod:`repro.api` with spec-resolved
arguments, so a served response's ``report`` section is bit-identical
(after the JSON round trip) to the direct library call.

Request model (``POST /v1/evaluate``)::

    {
      "trace": {"name": "demo"},                      # TraceRef
      "policy": {"kind": "uniform", "options": ...},  # PolicySpec
      "estimator": {"name": "dr", "options": ...},    # or "dr"
      "propensities": <PolicySpec> | null,
      "propensity_floor": float | null,
      "diagnostics": true,
      "bootstrap_replicates": 0,
      "seed": int | null,                             # bootstrap rng
      "cache": "use" | "bypass"
    }

``POST /v1/compare`` replaces ``estimator`` with ``estimators`` (a list
of names/configs; default panel ``["dm", "snips", "dr"]``).  GET
endpoints: ``/v1/health``, ``/v1/registry``, ``/v1/telemetry``.

Concurrency model (single event loop + worker threads):

* estimation runs in a thread (``asyncio.to_thread``) so the loop keeps
  answering health checks and cache hits during a long query;
* per-trace ``asyncio.Lock`` serialises compute on one trace — the
  lazy shard/column caches inside trace readers are not thread-safe,
  and one trace's working set should be read once, not raced over;
* identical in-flight requests **coalesce**: the first starts the
  computation, later arrivals await the same task (``serve.coalesced``
  counts them) — a thundering herd of one hot what-if does one
  estimation;
* the result cache is only touched from the event loop, so it needs no
  locks; its key includes the trace's ``schema_hash``, which the
  catalog re-reads per request, so ``repro repair`` invalidates stale
  entries implicitly (DESIGN.md §13).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro import api
from repro.api.registry import Registry, default_registry
from repro.api.specs import EstimatorConfig, PolicySpec, TraceRef
from repro.core.serialize import fingerprint
from repro.errors import (
    EstimatorError,
    PolicyError,
    ServeError,
    StoreError,
    TraceError,
)
from repro.obs.spans import Recorder, increment, span
from repro.serve.cache import ResultCache
from repro.serve.http import HttpRequest
from repro.store.naming import ResolvedTrace, TraceCatalog

#: Response payload discriminator and version.
RESPONSE_KIND = "repro.serve.response"
RESPONSE_VERSION = 1

#: Default estimator panel for ``/v1/compare`` (matches ``api.compare``).
DEFAULT_PANEL = ("dm", "snips", "dr")

_EVALUATE_KEYS = frozenset(
    {
        "trace",
        "policy",
        "estimator",
        "propensities",
        "propensity_floor",
        "diagnostics",
        "bootstrap_replicates",
        "seed",
        "cache",
    }
)
# compare() takes no propensity_floor (the panel resolves propensities
# per estimator, as api.compare does).
_COMPARE_KEYS = (_EVALUATE_KEYS - {"estimator", "propensity_floor"}) | {
    "estimators"
}


def _json_body(request: HttpRequest) -> Dict[str, Any]:
    """The request body as a JSON object, or a 400."""
    if not request.body:
        raise ServeError("request body is empty; expected a JSON object")
    try:
        payload = json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServeError(f"request body is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ServeError(
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


def _check_body_keys(body: Mapping[str, Any], allowed: frozenset, what: str) -> None:
    """Reject unknown body keys by name (silent drops would lie)."""
    unknown = sorted(set(body) - allowed)
    if unknown:
        raise ServeError(
            f"{what}: unknown key(s) {unknown}; allowed keys: "
            f"{sorted(allowed)}"
        )


def _as_bool(value: Any, what: str, default: bool) -> bool:
    if value is None:
        return default
    if isinstance(value, bool):
        return value
    raise ServeError(f"{what} must be a boolean, got {value!r}")


def _as_int(value: Any, what: str, default: int) -> int:
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(f"{what} must be an integer, got {value!r}")
    return value


class _ParsedRequest:
    """One validated evaluate/compare request, specs and all."""

    def __init__(self, endpoint: str, body: Dict[str, Any]):
        allowed = _EVALUATE_KEYS if endpoint == "evaluate" else _COMPARE_KEYS
        _check_body_keys(body, allowed, f"{endpoint} request")
        if "trace" not in body:
            raise ServeError(
                f"{endpoint} request has no 'trace'; expected "
                '{"trace": {"name": ...}, "policy": {...}, ...}'
            )
        if "policy" not in body:
            raise ServeError(f"{endpoint} request has no 'policy'")
        self.endpoint = endpoint
        self.trace_ref = TraceRef.from_dict(body["trace"])
        self.policy_spec = PolicySpec.from_dict(body["policy"])
        self.estimator_configs: List[EstimatorConfig] = []
        if endpoint == "evaluate":
            self.estimator_configs = [
                _normalise_estimator(body.get("estimator", "dr"))
            ]
        else:
            entries = body.get("estimators", list(DEFAULT_PANEL))
            if not isinstance(entries, list) or not entries:
                raise ServeError(
                    "compare request 'estimators' must be a non-empty list "
                    "of estimator names or configs"
                )
            self.estimator_configs = [
                _normalise_estimator(entry) for entry in entries
            ]
        propensities = body.get("propensities")
        self.propensities_spec: Optional[PolicySpec] = (
            PolicySpec.from_dict(propensities) if propensities is not None else None
        )
        floor = body.get("propensity_floor") if endpoint == "evaluate" else None
        if floor is not None and (
            isinstance(floor, bool) or not isinstance(floor, (int, float))
        ):
            raise ServeError(
                f"propensity_floor must be a number, got {floor!r}"
            )
        self.propensity_floor: Optional[float] = (
            float(floor) if floor is not None else None
        )
        self.diagnostics = _as_bool(body.get("diagnostics"), "diagnostics", True)
        self.bootstrap_replicates = _as_int(
            body.get("bootstrap_replicates"), "bootstrap_replicates", 0
        )
        if self.bootstrap_replicates < 0:
            raise ServeError(
                f"bootstrap_replicates must be non-negative, got "
                f"{self.bootstrap_replicates}"
            )
        self.seed: Optional[int] = (
            _as_int(body.get("seed"), "seed", 0)
            if body.get("seed") is not None
            else None
        )
        cache_mode = body.get("cache", "use")
        if cache_mode not in ("use", "bypass"):
            raise ServeError(
                f'cache must be "use" or "bypass", got {cache_mode!r}'
            )
        self.bypass_cache = cache_mode == "bypass"

    def cache_key(self, resolved: ResolvedTrace) -> str:
        """The request fingerprint — the served cache key.

        Includes the trace's current ``schema_hash`` (not just its
        name): when ``repro repair`` rewrites a store, the hash moves
        and every stale entry silently misses.
        """
        return fingerprint(
            {
                "endpoint": self.endpoint,
                "trace": {"name": resolved.name, "schema_hash": resolved.schema_hash},
                "policy": self.policy_spec.fingerprint,
                "estimators": [
                    config.fingerprint for config in self.estimator_configs
                ],
                "propensities": (
                    self.propensities_spec.fingerprint
                    if self.propensities_spec is not None
                    else None
                ),
                "options": {
                    "propensity_floor": self.propensity_floor,
                    "diagnostics": self.diagnostics,
                    "bootstrap_replicates": self.bootstrap_replicates,
                    "seed": self.seed,
                },
            }
        )

    def fingerprints(self) -> Dict[str, Any]:
        """The spec fingerprints echoed in every response."""
        payload: Dict[str, Any] = {
            "policy": self.policy_spec.fingerprint,
            "trace": self.trace_ref.fingerprint,
        }
        if self.endpoint == "evaluate":
            payload["estimator"] = self.estimator_configs[0].fingerprint
        else:
            payload["estimators"] = [
                config.fingerprint for config in self.estimator_configs
            ]
        return payload


def _normalise_estimator(entry: Any) -> EstimatorConfig:
    """An estimator body entry (name or config mapping) as a config."""
    if isinstance(entry, str):
        return EstimatorConfig(name=entry)
    if isinstance(entry, Mapping):
        return EstimatorConfig.from_dict(entry)
    raise ServeError(
        "estimator entries must be registry names or "
        '{"name": ..., "options": ...} mappings, got '
        f"{type(entry).__name__}: {entry!r}"
    )


class EvaluationService:
    """The warm evaluation core behind the HTTP endpoints."""

    def __init__(
        self,
        catalog: TraceCatalog,
        registry: Optional[Registry] = None,
        cache: Optional[ResultCache] = None,
        recorder: Optional[Recorder] = None,
    ):
        self._catalog = catalog
        self._registry = registry if registry is not None else default_registry
        self._cache = cache if cache is not None else ResultCache()
        self._recorder = recorder
        self._inflight: Dict[str, asyncio.Task] = {}
        self._trace_locks: Dict[str, asyncio.Lock] = {}

    @property
    def cache(self) -> ResultCache:
        """The result cache (exposed for stats and tests)."""
        return self._cache

    @property
    def catalog(self) -> TraceCatalog:
        """The named-trace catalog this service resolves against."""
        return self._catalog

    # -- routing --------------------------------------------------------

    async def handle(
        self, request: HttpRequest
    ) -> Tuple[int, Union[Dict[str, Any], EncodedPayload]]:
        """Answer one parsed request with ``(status, payload)``.

        Evaluate/compare answers are :class:`EncodedPayload`; every
        other payload is a plain dict.

        Never raises for request-level problems: :class:`ServeError`
        and the library's resolution errors are mapped onto 4xx
        payloads; anything else escapes to the connection handler's
        500 (and its log line).
        """
        increment("serve.request")
        route = (request.method, request.path)
        try:
            if route == ("GET", "/v1/health"):
                return 200, self._health_payload()
            if route == ("GET", "/v1/registry"):
                return 200, self._registry_payload()
            if route == ("GET", "/v1/telemetry"):
                return 200, self._telemetry_payload()
            if route == ("POST", "/v1/evaluate"):
                return await self._answer("evaluate", request)
            if route == ("POST", "/v1/compare"):
                return await self._answer("compare", request)
        except ServeError as error:
            increment("serve.request.rejected")
            return error.status, _error_payload(error.status, str(error))
        except (PolicyError, EstimatorError, TraceError) as error:
            # Spec/estimation contract violations are the client's to
            # fix: bad options, unknown names, propensity-free traces.
            increment("serve.request.rejected")
            return 400, _error_payload(400, str(error))
        except StoreError as error:
            increment("serve.request.rejected")
            status = 404 if "unknown trace" in str(error) else 500
            return status, _error_payload(status, str(error))
        if request.path.startswith("/v1/") and request.method not in (
            "GET",
            "POST",
        ):
            return 405, _error_payload(
                405, f"method {request.method} is not supported"
            )
        return 404, _error_payload(
            404,
            f"no route for {request.method} {request.path}; endpoints: "
            "GET /v1/health, GET /v1/registry, GET /v1/telemetry, "
            "POST /v1/evaluate, POST /v1/compare",
        )

    # -- GET payloads ---------------------------------------------------

    def _health_payload(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "traces": list(self._catalog.names()),
            "cache": self._cache.stats().to_dict(),
        }

    def _registry_payload(self) -> Dict[str, Any]:
        return {
            "estimators": list(self._registry.estimator_names()),
            "models": list(self._registry.model_names()),
            "policy_kinds": list(self._registry.policy_kinds()),
            "traces": list(self._catalog.names()),
        }

    def _telemetry_payload(self) -> Dict[str, Any]:
        if self._recorder is None:
            return {"recording": False, "metrics": {}, "span_counts": {}}
        return {
            "recording": True,
            "metrics": self._recorder.metrics.snapshot(),
            "span_counts": self._recorder.span_counts(),
        }

    # -- evaluate/compare -----------------------------------------------

    async def _answer(
        self, endpoint: str, request: HttpRequest
    ) -> Tuple[int, EncodedPayload]:
        parsed = _ParsedRequest(endpoint, _json_body(request))
        increment(f"serve.request.{endpoint}")
        if parsed.trace_ref.name not in self._catalog:
            known = ", ".join(self._catalog.names())
            raise ServeError(
                f"unknown trace {parsed.trace_ref.name!r}; registered "
                f"traces: {known}",
                status=404,
            )
        resolved = self._catalog.resolve(parsed.trace_ref.name)
        key = parsed.cache_key(resolved)

        cached = None if parsed.bypass_cache else self._cache.get(key)
        if parsed.bypass_cache:
            increment("serve.cache.bypass")
        if cached is not None:
            increment("serve.cache.hit")
            return 200, EncodedPayload(cached, _cache_section(key, hit=True))
        if not parsed.bypass_cache:
            increment("serve.cache.miss")

        inflight = self._inflight.get(key)
        if inflight is not None:
            increment("serve.coalesced")
            # shield(): a joiner's cancellation must not kill the shared
            # computation out from under the original requester.
            head = await asyncio.shield(inflight)
            return 200, EncodedPayload(head, _cache_section(key, coalesced=True))

        task = asyncio.ensure_future(self._compute_payload(parsed, resolved))
        self._inflight[key] = task
        try:
            head = await asyncio.shield(task)
        finally:
            self._inflight.pop(key, None)
        self._cache.put(key, head)
        return 200, EncodedPayload(
            head, _cache_section(key, bypass=parsed.bypass_cache)
        )

    async def _compute_payload(
        self, parsed: _ParsedRequest, resolved: ResolvedTrace
    ) -> bytes:
        """Run the estimation in a worker thread; encode the payload once.

        Returns the payload's JSON without its closing ``}``, the head
        every answer to this request splices its cache section onto.
        """
        lock = self._trace_locks.setdefault(resolved.name, asyncio.Lock())
        async with lock:
            report = await asyncio.to_thread(self._estimate, parsed, resolved)
        increment(f"serve.{parsed.endpoint}.computed")
        payload = {
            "kind": RESPONSE_KIND,
            "version": RESPONSE_VERSION,
            "endpoint": parsed.endpoint,
            "trace": {
                "name": resolved.name,
                "kind": resolved.kind,
                "schema_hash": resolved.schema_hash,
                "records": resolved.records,
            },
            "fingerprints": parsed.fingerprints(),
            "report": report.to_json_dict(),
        }
        return json.dumps(payload, allow_nan=False).encode("utf-8")[:-1]

    def _estimate(self, parsed: _ParsedRequest, resolved: ResolvedTrace):
        """The blocking estimation call (worker thread)."""
        propensities = (
            api.resolve_policy_spec(parsed.propensities_spec, self._registry)
            if parsed.propensities_spec is not None
            else None
        )
        with span("serve.estimate", endpoint=parsed.endpoint, trace=resolved.name):
            if parsed.endpoint == "evaluate":
                return api.evaluate(
                    resolved.trace,
                    parsed.policy_spec,
                    estimator=parsed.estimator_configs[0],
                    propensities=propensities,
                    propensity_floor=parsed.propensity_floor,
                    diagnostics=parsed.diagnostics,
                    bootstrap_replicates=parsed.bootstrap_replicates,
                    rng=parsed.seed,
                    registry=self._registry,
                )
            # compare() takes no propensity_floor (request validation
            # already rejected it for this endpoint).
            return api.compare(
                resolved.trace,
                parsed.policy_spec,
                estimators=list(parsed.estimator_configs),
                propensities=propensities,
                diagnostics=parsed.diagnostics,
                bootstrap_replicates=parsed.bootstrap_replicates,
                rng=parsed.seed,
                registry=self._registry,
            )


class EncodedPayload(NamedTuple):
    """An evaluate/compare answer: the encoded head plus its cache section.

    ``head`` is the payload's JSON without the closing ``}``; the server
    appends ``, "cache": <section>}``, so the cache key stays last.
    """

    head: bytes
    cache: Dict[str, Any]


def _cache_section(
    key: str, hit: bool = False, coalesced: bool = False, bypass: bool = False
) -> Dict[str, Any]:
    """The per-request cache section of an evaluate/compare answer."""
    return {"hit": hit, "coalesced": coalesced, "bypass": bypass, "key": key}


def _error_payload(status: int, message: str) -> Dict[str, Any]:
    """The uniform error body."""
    return {"kind": "repro.serve.error", "status": status, "error": message}
