"""The evaluation service: request validation, caching, and compute.

This is the protocol-independent core of ``repro serve`` — the HTTP
layer (:mod:`repro.serve.server`) parses bytes and hands
:class:`~repro.serve.http.HttpRequest` objects to
:meth:`EvaluationService.handle`, which returns ``(status, payload)``.
All estimation goes through :mod:`repro.api` with spec-resolved
arguments, so a served response's ``report`` section is bit-identical
(after the JSON round trip) to the direct library call.

Request model: the ``POST /v1/evaluate`` body is declared once, as the
field table ``_EVALUATE_FIELDS`` — a trace ref, a policy spec, an
estimator config or name (default ``"dr"``), and the optional
``propensities`` spec, ``propensity_floor``, ``diagnostics``,
``bootstrap_replicates``, ``seed`` and ``cache`` (``"use"`` or
``"bypass"``).  ``POST /v1/compare`` swaps ``estimator`` and
``propensity_floor`` for ``estimators`` (a list of names/configs;
default panel ``["dm", "snips", "dr"]``).  Responses are declared the
same way (``HEAD_FIELDS`` and its sections), and
:mod:`repro.serve.validate` checks against those tables.  GET
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
from typing import Any, Dict, NamedTuple, Optional, Tuple, Union

from repro import api
from repro.api.registry import Registry, default_registry
from repro.api.specs import EstimatorConfig, PolicySpec, TraceRef
from repro.core import schema
from repro.core.schema import Field
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
ERROR_KIND = "repro.serve.error"

#: Default estimator panel for ``/v1/compare`` (matches ``api.compare``).
DEFAULT_PANEL = ("dm", "snips", "dr")


def _parsed_by(spec_class: type):
    """A field check parsing its value with *spec_class*'s ``from_dict``
    (looked up per call, so a wrapped parser sees every request)."""
    return lambda value: spec_class.from_dict(value)


def _estimator(entry: Any) -> EstimatorConfig:
    """An estimator body entry (name or config mapping) as a config."""
    if isinstance(entry, str):
        return EstimatorConfig(name=entry)
    if isinstance(entry, dict):
        return EstimatorConfig.from_dict(entry)
    raise ValueError(
        "must be a registry name or a {\"name\": ..., \"options\": ...} "
        f"mapping, got {entry!r}"
    )


# -- request and response declarations -----------------------------------

_EVALUATE_FIELDS = (
    Field("trace", _parsed_by(TraceRef)),
    Field("policy", _parsed_by(PolicySpec)),
    Field("estimator", _estimator, EstimatorConfig(name="dr")),
    Field("propensities", _parsed_by(PolicySpec), None),
    Field("propensity_floor", schema.number, None),
    Field("diagnostics", schema.boolean, True),
    Field("bootstrap_replicates", schema.count, 0),
    Field("seed", schema.count, None),
    Field("cache", schema.one_of("use", "bypass"), "use"),
)
# compare() takes no propensity_floor (the panel resolves propensities
# per estimator, as api.compare does).
_REQUEST_FIELDS = {
    "evaluate": _EVALUATE_FIELDS,
    "compare": tuple(
        declared
        for declared in _EVALUATE_FIELDS
        if declared.name not in ("estimator", "propensity_floor")
    )
    + (
        Field(
            "estimators",
            schema.list_of(_estimator, nonempty=True),
            tuple(EstimatorConfig(name=name) for name in DEFAULT_PANEL),
        ),
    ),
}


def _error_status(value: Any) -> int:
    if schema.integer(value) not in range(400, 600):
        raise ValueError(f"must be a 4xx/5xx integer, got {value!r}")
    return value


#: An evaluate/compare answer: the head is encoded once per computation,
#: the cache section is spliced on last per answer.
HEAD_FIELDS = (
    Field("kind", schema.one_of(RESPONSE_KIND)),
    Field("version", schema.one_of(RESPONSE_VERSION)),
    Field("endpoint", schema.one_of(*_REQUEST_FIELDS)),
    Field("trace"),
    Field("fingerprints"),
    Field("report"),
)
RESPONSE_FIELDS = HEAD_FIELDS + (Field("cache"),)
TRACE_FIELDS = (
    Field("name", schema.nonempty_text),
    Field("kind", schema.one_of("sharded", "jsonl")),
    Field("schema_hash", schema.nonempty_text),
    Field("records", schema.count),
)
#: The spec fingerprints echoed per endpoint, named like the request
#: fields they fingerprint.
FINGERPRINT_FIELDS = {
    "evaluate": (
        Field("policy", schema.sha256_hex),
        Field("trace", schema.sha256_hex),
        Field("estimator", schema.sha256_hex),
    ),
    "compare": (
        Field("policy", schema.sha256_hex),
        Field("trace", schema.sha256_hex),
        Field("estimators", schema.list_of(schema.sha256_hex, nonempty=True)),
    ),
}
CACHE_FIELDS = (
    Field("hit", schema.boolean),
    Field("coalesced", schema.boolean),
    Field("bypass", schema.boolean),
    Field("key", schema.sha256_hex),
)
ERROR_FIELDS = (
    Field("kind", schema.one_of(ERROR_KIND)),
    Field("status", _error_status),
    Field("error", schema.nonempty_text),
)


def _json_body(request: HttpRequest) -> Any:
    """The request body as parsed JSON, or a 400."""
    if not request.body:
        raise ServeError("request body is empty; expected a JSON object")
    try:
        return json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServeError(f"request body is not valid JSON: {error}") from None


def _wire_content(value: Any) -> Any:
    """A parsed request value as plain data: specs by their content."""
    if isinstance(value, (list, tuple)):
        return [_wire_content(item) for item in value]
    if isinstance(value, (PolicySpec, EstimatorConfig, TraceRef)):
        return value.content()
    return value


def _fingerprint_of(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return [item.fingerprint for item in value]
    return value.fingerprint


class _ParsedRequest:
    """One validated evaluate/compare request: its declared values."""

    def __init__(self, endpoint: str, body: Any):
        self.endpoint = endpoint
        self.values = schema.read(
            body, _REQUEST_FIELDS[endpoint], f"{endpoint} request", ServeError
        )
        self.bypass_cache = self.values["cache"] == "bypass"

    def cache_key(self, resolved: ResolvedTrace) -> str:
        """The request fingerprint — the served cache key.

        One canonical encoding of the endpoint, the trace's name and
        current ``schema_hash`` (when ``repro repair`` rewrites a store
        the hash moves and every stale entry silently misses), the
        decoded spec content and every option but ``cache``.
        """
        content = {
            name: _wire_content(value)
            for name, value in self.values.items()
            if name != "cache"
        }
        content["trace"] = {"name": resolved.name, "schema_hash": resolved.schema_hash}
        content["endpoint"] = self.endpoint
        return fingerprint(content)

    def fingerprints(self) -> Dict[str, Any]:
        """The spec fingerprints echoed in every response."""
        return {
            declared.name: _fingerprint_of(self.values[declared.name])
            for declared in FINGERPRINT_FIELDS[self.endpoint]
        }


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
        name = parsed.values["trace"].name
        if name not in self._catalog:
            known = ", ".join(self._catalog.names())
            raise ServeError(
                f"unknown trace {name!r}; registered traces: {known}", status=404
            )
        resolved = self._catalog.resolve(name)
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
        payload = schema.build(
            HEAD_FIELDS,
            kind=RESPONSE_KIND,
            version=RESPONSE_VERSION,
            endpoint=parsed.endpoint,
            trace=schema.build(
                TRACE_FIELDS,
                name=resolved.name,
                kind=resolved.kind,
                schema_hash=resolved.schema_hash,
                records=resolved.records,
            ),
            fingerprints=parsed.fingerprints(),
            report=report.to_json_dict(),
        )
        return json.dumps(payload, allow_nan=False).encode("utf-8")[:-1]

    def _estimate(self, parsed: _ParsedRequest, resolved: ResolvedTrace):
        """The blocking estimation call (worker thread)."""
        values = parsed.values
        common = dict(
            propensities=values["propensities"],
            diagnostics=values["diagnostics"],
            bootstrap_replicates=values["bootstrap_replicates"],
            rng=values["seed"],
            registry=self._registry,
        )
        with span("serve.estimate", endpoint=parsed.endpoint, trace=resolved.name):
            if parsed.endpoint == "evaluate":
                return api.evaluate(
                    resolved.trace,
                    values["policy"],
                    estimator=values["estimator"],
                    propensity_floor=values["propensity_floor"],
                    **common,
                )
            return api.compare(
                resolved.trace,
                values["policy"],
                estimators=list(values["estimators"]),
                **common,
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
    return schema.build(CACHE_FIELDS, hit=hit, coalesced=coalesced, bypass=bypass, key=key)


def _error_payload(status: int, message: str) -> Dict[str, Any]:
    """The uniform error body."""
    return schema.build(ERROR_FIELDS, kind=ERROR_KIND, status=status, error=message)
