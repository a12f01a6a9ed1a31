"""Served requests are read from one declared field table per endpoint.

Malformed option values must answer 400 naming the field (never a 500
that drops the keep-alive connection), and the cache key is one
canonical fingerprint of the parsed request.
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json

import numpy as np
import pytest

import repro.core.serialize as serialize
from repro import core
from repro.serve.app import EvaluationService, _ParsedRequest
from repro.serve.http import HttpRequest
from repro.serve.server import BackgroundServer
from repro.store.naming import ResolvedTrace, TraceCatalog
from repro.workloads import SyntheticWorkload

WORKLOAD = SyntheticWorkload()
DECISIONS = list(WORKLOAD.space().decisions)
CONSTANT = {"kind": "constant", "options": {"space": DECISIONS, "decision": DECISIONS[1]}}


def _epsilon_greedy(epsilon):
    return {"kind": "epsilon-greedy", "options": {"base": CONSTANT, "epsilon": epsilon}}


@pytest.fixture(scope="module")
def registry_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("fields")
    WORKLOAD.generate_to_shards(
        core.UniformRandomPolicy(WORKLOAD.space()),
        300,
        np.random.default_rng(3),
        root / "shards",
    )
    path = root / "registry.json"
    path.write_text(json.dumps({"traces": {"demo": str(root / "shards")}}))
    return path


@pytest.fixture
def service(registry_path):
    return EvaluationService(TraceCatalog.from_file(registry_path))


def _answer(service, body, endpoint="evaluate"):
    request = HttpRequest("POST", f"/v1/{endpoint}", body=json.dumps(body).encode())
    return asyncio.run(service.handle(request))


MALFORMED = {
    "epsilon-string": ({"policy": _epsilon_greedy("abc")}, "epsilon"),
    "epsilon-null": ({"policy": _epsilon_greedy(None)}, "epsilon"),
    "mixture-weight": (
        {"policy": {"kind": "mixture", "options": {"components": [CONSTANT], "weights": ["a"]}}},
        "weights",
    ),
    "tabular-key-features": (
        {
            "policy": {
                "kind": "tabular",
                "options": {"space": DECISIONS, "key_features": 5, "table": {}},
            }
        },
        "key_features",
    ),
    "distribution-probability": (
        {
            "policy": {
                "kind": "tabular",
                "options": {
                    "space": DECISIONS,
                    "key_features": ["x"],
                    "table": {},
                    "default": {DECISIONS[0]: "x"},
                },
            }
        },
        "default",
    ),
    "estimator-clip": (
        {"policy": CONSTANT, "estimator": {"name": "clipped-ips", "options": {"clip": "x"}}},
        "clip",
    ),
}


@pytest.mark.parametrize("body, field", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_option_value_is_a_400_naming_the_field(service, body, field):
    status, payload = _answer(service, {"trace": {"name": "demo"}, **body})
    assert status == 400
    assert field in payload["error"]


def test_malformed_wire_tags_are_400s(service):
    for space in ({"__pairs__": 5}, {"__ndarray__": [1], "dtype": "nope"}):
        policy = {"kind": "uniform", "options": {"space": space}}
        status, payload = _answer(service, {"trace": {"name": "demo"}, "policy": policy})
        assert status == 400
        assert "malformed tagged value" in payload["error"]


def test_negative_seed_is_a_400(service):
    body = {"trace": {"name": "demo"}, "policy": CONSTANT, "seed": -1, "bootstrap_replicates": 3}
    status, payload = _answer(service, body)
    assert status == 400
    assert "seed" in payload["error"]


def test_unknown_model_option_names_accepted_keywords(service):
    model = {"name": "tabular", "options": {"bogus": 1}}
    body = {
        "trace": {"name": "demo"},
        "policy": CONSTANT,
        "estimator": {"name": "dm", "options": {"model": model}},
    }
    status, payload = _answer(service, body)
    assert status == 400
    assert "bogus" in payload["error"] and "key_features" in payload["error"]


def test_400_keeps_the_connection_alive(service):
    good = {"trace": {"name": "demo"}, "policy": CONSTANT, "estimator": "ips"}
    bad = {"trace": {"name": "demo"}, "policy": _epsilon_greedy("abc")}
    with BackgroundServer(service) as (host, port):
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            answers = []
            for body in (bad, good):
                connection.request("POST", "/v1/evaluate", body=json.dumps(body))
                response = connection.getresponse()
                response.read()
                answers.append(
                    (response.status, response.getheader("Connection"), connection.sock.getsockname())
                )
        finally:
            connection.close()
    # Same local socket address: the 200 came over the 400's connection.
    assert answers[0][2] == answers[1][2]
    assert [answer[:2] for answer in answers] == [(400, "keep-alive"), (200, "keep-alive")]


# -- the request key --------------------------------------------------------

RESOLVED = ResolvedTrace(
    name="demo", path="demo", kind="sharded", trace=None, schema_hash="h1", records=1
)
BASE = {
    "trace": {"name": "demo"},
    "policy": {
        "kind": "constant",
        "options": {"space": [{"__tuple__": ["a", 1]}, "b"], "decision": "b"},
    },
}


def _key(body, endpoint="evaluate", resolved=RESOLVED):
    return _ParsedRequest(endpoint, body).cache_key(resolved)


def test_key_equal_for_tagged_and_native_options_and_estimator_spellings():
    native = {**BASE, "policy": {"kind": "constant", "options": {"space": [("a", 1), "b"], "decision": "b"}}}
    assert _key(native) == _key(BASE)
    assert _key({**BASE, "estimator": "dr"}) == _key({**BASE, "estimator": {"name": "dr"}})
    assert _key({**BASE, "estimator": "dr"}) == _key(BASE)
    assert _key({**BASE, "cache": "bypass"}) == _key(BASE)


@pytest.mark.parametrize(
    "change",
    [
        {"estimator": "ips"},
        {"estimator": {"name": "clipped-ips", "options": {"clip": 2.0}}},
        {"propensities": {"kind": "uniform", "options": {"space": ["b"]}}},
        {"propensity_floor": 0.01},
        {"diagnostics": False},
        {"bootstrap_replicates": 2},
        {"seed": 7},
        {"policy": {"kind": "constant", "options": {"space": ["a", "b"], "decision": "b"}}},
    ],
)
def test_key_differs_when_any_option_differs(change):
    assert _key({**BASE, **change}) != _key(BASE)


def test_key_differs_by_schema_hash_and_endpoint():
    moved = dataclasses.replace(RESOLVED, schema_hash="h2")
    assert _key(BASE, resolved=moved) != _key(BASE)
    assert _key(BASE, endpoint="compare") != _key(BASE)


def test_cache_hit_fingerprints_once(service, monkeypatch):
    body = {"trace": {"name": "demo"}, "policy": _epsilon_greedy(0.2), "estimator": "ips"}
    first_status, _ = _answer(service, body)
    calls = []
    original = serialize.fingerprint

    def counted(value):
        calls.append(value)
        return original(value)

    for module in ("repro.core.serialize", "repro.serve.app", "repro.api.specs"):
        monkeypatch.setattr(f"{module}.fingerprint", counted)
    status, payload = _answer(service, body)
    assert (first_status, status) == (200, 200)
    assert payload.cache["hit"] is True
    assert len(calls) == 1
