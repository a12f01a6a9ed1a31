"""End-to-end tests for the evaluation service over real HTTP.

One background server per module, talking to a real sharded store and a
flat jsonl trace.  The headline assertion is the PR's acceptance
criterion: for **every registered estimator**, the served report —
after its JSON round trip — is bit-identical to the direct
:func:`repro.api.evaluate` call on the same trace.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import api, core
from repro.api.registry import default_registry
from repro.core.reporting import EvaluationReport
from repro.errors import ServeError
from repro.obs.spans import disable, enable, set_gauge
from repro.serve.app import EvaluationService
from repro.serve.cache import ResultCache
from repro.serve.client import ServeClient
import repro.serve.server as server_module
from repro.serve.server import BackgroundServer
from repro.serve.validate import validate_response_payload
from repro.store.naming import TraceCatalog
from repro.workloads import SyntheticWorkload

from tests.conftest import make_uniform_trace

WORKLOAD = SyntheticWorkload()
DECISIONS = list(WORKLOAD.space().decisions)

POLICY = {
    "kind": "constant",
    "options": {"space": DECISIONS, "decision": DECISIONS[1]},
}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One live server over a sharded trace and a flat jsonl trace."""
    root = tmp_path_factory.mktemp("serve")
    shard_dir = root / "shards"
    sharded = WORKLOAD.generate_to_shards(
        core.UniformRandomPolicy(WORKLOAD.space()),
        1200,
        np.random.default_rng(11),
        shard_dir,
    )
    flat_path = root / "flat.jsonl"
    flat_trace = make_uniform_trace(
        core.DecisionSpace(["a", "b", "c"]),
        lambda c, d: {"a": 1.0, "b": 2.0, "c": 3.0}[d],
        np.random.default_rng(5),
        n=120,
    )
    flat_trace.to_jsonl(str(flat_path))
    registry_path = root / "registry.json"
    registry_path.write_text(
        json.dumps(
            {"traces": {"demo": str(shard_dir), "flat": {"path": str(flat_path)}}}
        )
    )
    recorder = enable()
    service = EvaluationService(
        TraceCatalog.from_file(registry_path),
        cache=ResultCache(max_entries=64),
        recorder=recorder,
    )
    background = BackgroundServer(service)
    background.start()
    host, port = background.address
    try:
        yield {
            "host": host,
            "port": port,
            "sharded": sharded,
            "flat_path": flat_path,
            "recorder": recorder,
            "service": service,
        }
    finally:
        background.stop()
        disable()


@pytest.fixture
def client(server):
    with ServeClient(server["host"], server["port"]) as live:
        yield live


def _counter(server, name: str) -> int:
    counters = server["recorder"].metrics.snapshot().get("counters", {})
    return int(counters.get(name, 0))


def _raw_post(server, path: str, body) -> bytes:
    """POST *body* on a fresh connection; the raw 200 response body."""
    connection = http.client.HTTPConnection(
        server["host"], server["port"], timeout=120
    )
    try:
        connection.request(
            "POST",
            path,
            body=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        raw = response.read()
        assert response.status == 200, raw[:200]
        return raw
    finally:
        connection.close()


def _wait_for(condition, what: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


class TestBitIdentity:
    """Served == direct, for every registered estimator (acceptance)."""

    @pytest.mark.parametrize("name", default_registry.estimator_names())
    def test_evaluate_every_estimator(self, name, client, server):
        payload = client.evaluate("demo", POLICY, estimator={"name": name})
        validate_response_payload(payload)
        served = EvaluationReport.from_json_dict(payload["report"])
        direct = api.evaluate(server["sharded"], POLICY, estimator=name)
        assert served.to_json() == direct.to_json()

    def test_compare_panel(self, client, server):
        payload = client.compare("demo", POLICY, estimators=["ips", "dr"])
        validate_response_payload(payload)
        served = EvaluationReport.from_json_dict(payload["report"])
        direct = api.compare(server["sharded"], POLICY, estimators=("ips", "dr"))
        assert served.to_json() == direct.to_json()

    def test_bootstrap_seed_reproducible(self, client, server):
        options = {"estimator": "snips", "bootstrap_replicates": 20, "seed": 9}
        payload = client.evaluate("demo", POLICY, **options)
        direct = api.evaluate(
            server["sharded"],
            POLICY,
            estimator="snips",
            bootstrap_replicates=20,
            rng=9,
        )
        served = EvaluationReport.from_json_dict(payload["report"])
        assert served.to_json() == direct.to_json()


class TestCaching:
    def test_repeat_hits_cache(self, client, server):
        body = {"estimator": "ips", "diagnostics": False}
        first = client.evaluate("flat", POLICY_FLAT, **body)
        hits_before = _counter(server, "serve.cache.hit")
        second = client.evaluate("flat", POLICY_FLAT, **body)
        assert second["cache"]["hit"] is True
        assert _counter(server, "serve.cache.hit") == hits_before + 1
        # The cached payload is the same computation, not a re-run.
        assert second["report"] == first["report"]

    def test_bypass_recomputes(self, client, server):
        body = {"estimator": "snips", "diagnostics": False}
        client.evaluate("flat", POLICY_FLAT, **body)
        computed_before = _counter(server, "serve.evaluate.computed")
        bypassed = client.evaluate("flat", POLICY_FLAT, cache="bypass", **body)
        assert bypassed["cache"]["hit"] is False
        assert bypassed["cache"]["bypass"] is True
        assert _counter(server, "serve.evaluate.computed") == computed_before + 1

    def test_distinct_options_distinct_entries(self, client):
        a = client.evaluate("flat", POLICY_FLAT, estimator="ips")
        b = client.evaluate(
            "flat", POLICY_FLAT, estimator={"name": "clipped-ips", "options": {"clip": 2.0}}
        )
        assert a["cache"]["key"] != b["cache"]["key"]

    def test_concurrent_identical_requests_coalesce(self, server):
        # A unique body nothing else uses: the herd must do ONE estimation.
        body = {
            "trace": {"name": "demo"},
            "policy": {
                "kind": "epsilon-greedy",
                "options": {"epsilon": 0.123, "base": POLICY},
            },
            "estimator": {"name": "dr"},
        }
        computed_before = _counter(server, "serve.evaluate.computed")

        def one(_index):
            with ServeClient(server["host"], server["port"]) as c:
                return c.request("POST", "/v1/evaluate", body=body)

        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = list(pool.map(one, range(8)))
        assert _counter(server, "serve.evaluate.computed") == computed_before + 1
        reports = {json.dumps(a["report"], sort_keys=True) for a in answers}
        assert len(reports) == 1
        assert sum(
            1
            for a in answers
            if a["cache"]["coalesced"] or a["cache"]["hit"]
        ) >= 7

    def test_schema_change_invalidates(self, client, server):
        body = {"estimator": "ips", "diagnostics": False}
        first = client.evaluate("flat", POLICY_FLAT, **body)
        again = client.evaluate("flat", POLICY_FLAT, **body)
        assert again["cache"]["hit"] is True
        # Rewrite the jsonl trace with an extra feature column: the
        # catalog re-stats the file, the schema hash moves, and the old
        # cache entry silently misses.
        flat_path = Path(server["flat_path"])
        space = core.DecisionSpace(["a", "b", "c"])
        old = core.UniformRandomPolicy(space)
        rng = np.random.default_rng(6)
        records = []
        for _ in range(100):
            context = core.ClientContext(x=1.0, y=2.0, isp="isp-0")
            decision = old.sample(context, rng)
            records.append(
                core.TraceRecord(
                    context=context,
                    decision=decision,
                    reward=1.0,
                    propensity=old.propensity(decision, context),
                )
            )
        time.sleep(0.01)  # ensure a fresh mtime even on coarse clocks
        core.Trace(records).to_jsonl(str(flat_path))
        after = client.evaluate("flat", POLICY_FLAT, **body)
        assert after["cache"]["hit"] is False
        assert after["cache"]["key"] != first["cache"]["key"]
        assert after["trace"]["schema_hash"] != first["trace"]["schema_hash"]


POLICY_FLAT = {
    "kind": "constant",
    "options": {"space": ["a", "b", "c"], "decision": "c"},
}


class TestWireBytes:
    """Evaluate/compare bodies are pinned byte for byte on the wire."""

    @staticmethod
    def _split(raw: bytes):
        """Check one raw body; return its head and decoded cache section."""
        decoded = json.loads(raw)
        assert raw == json.dumps(decoded, allow_nan=False).encode("utf-8")
        assert list(decoded)[-1] == "cache"
        section = (
            b', "cache": ' + json.dumps(decoded["cache"]).encode("utf-8") + b"}"
        )
        # Clients (and the benchmark's load generator) look for
        # '"hit": true' in the body's final 256 bytes.
        assert raw.endswith(section) and len(section) <= 256
        return raw[: -len(section)], decoded["cache"]

    @pytest.mark.parametrize("endpoint", ["evaluate", "compare"])
    def test_miss_coalesced_hit_bypass(self, endpoint, server, monkeypatch):
        service = server["service"]
        body = {
            "trace": {"name": "demo"},
            "policy": {
                "kind": "epsilon-greedy",
                "options": {"epsilon": 0.271, "base": POLICY},
            },
        }
        path = f"/v1/{endpoint}"
        # Hold the estimation until a second identical request has
        # joined it, so the coalesced answer is deterministic.
        entered, release = threading.Event(), threading.Event()
        estimate = service._estimate

        def gated(parsed, resolved):
            entered.set()
            assert release.wait(timeout=60)
            return estimate(parsed, resolved)

        monkeypatch.setattr(service, "_estimate", gated)
        coalesced_before = _counter(server, "serve.coalesced")
        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(_raw_post, server, path, body)
            assert entered.wait(timeout=60)
            joined = pool.submit(_raw_post, server, path, body)
            _wait_for(
                lambda: _counter(server, "serve.coalesced") > coalesced_before,
                "the second request to coalesce",
            )
            release.set()
            miss, coalesced = first.result(), joined.result()
        monkeypatch.undo()
        hit = _raw_post(server, path, body)
        bypass = _raw_post(server, path, dict(body, cache="bypass"))

        heads, keys = {}, set()
        for name, raw in [
            ("miss", miss),
            ("coalesced", coalesced),
            ("hit", hit),
            ("bypass", bypass),
        ]:
            heads[name], section = self._split(raw)
            assert section == {
                "hit": name == "hit",
                "coalesced": name == "coalesced",
                "bypass": name == "bypass",
                "key": section["key"],
            }
            keys.add(section["key"])
            validate_response_payload(json.loads(raw))
        assert len(set(heads.values())) == 1 and len(keys) == 1

    def test_hit_does_no_report_work(self, server, monkeypatch):
        body = {
            "trace": {"name": "demo"},
            "policy": {
                "kind": "epsilon-greedy",
                "options": {"epsilon": 0.314, "base": POLICY},
            },
            "estimator": {"name": "dr"},
        }
        _raw_post(server, "/v1/evaluate", body)  # the miss computes
        sizes, reports = [], []
        dumps = server_module.json.dumps
        to_json_dict = EvaluationReport.to_json_dict

        def counting_dumps(obj, *args, **kwargs):
            encoded = dumps(obj, *args, **kwargs)
            sizes.append(len(encoded))
            return encoded

        def counting_to_json_dict(self):
            reports.append(self)
            return to_json_dict(self)

        monkeypatch.setattr(server_module.json, "dumps", counting_dumps)
        monkeypatch.setattr(EvaluationReport, "to_json_dict", counting_to_json_dict)
        hits_before = _counter(server, "serve.cache.hit")
        repeats = 20
        for _ in range(repeats):
            raw = _raw_post(server, "/v1/evaluate", body)
            assert b'"hit": true' in raw[-256:]
        assert _counter(server, "serve.cache.hit") == hits_before + repeats
        assert reports == []
        assert len(sizes) >= repeats and max(sizes) <= 1024


class TestGetEndpoints:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert set(payload["traces"]) == {"demo", "flat"}
        assert "hits" in payload["cache"]

    def test_registry(self, client):
        payload = client.registry()
        assert "dr" in payload["estimators"]
        assert "uniform" in payload["policy_kinds"]
        assert set(payload["traces"]) == {"demo", "flat"}

    def test_telemetry(self, client):
        client.health()
        payload = client.telemetry()
        assert payload["recording"] is True
        assert payload["metrics"]["counters"]["serve.request"] >= 1


class TestErrors:
    def test_unknown_trace_404(self, client):
        payload = client.request(
            "POST",
            "/v1/evaluate",
            body={"trace": {"name": "ghost"}, "policy": POLICY},
            expect_errors=True,
        )
        assert payload["kind"] == "repro.serve.error"
        assert payload["status"] == 404
        assert "registered traces" in payload["error"]
        validate_response_payload(payload)

    def test_unknown_route_404(self, client):
        payload = client.request("GET", "/v2/nope", expect_errors=True)
        assert payload["status"] == 404
        assert "endpoints" in payload["error"]

    def test_malformed_json_400(self, server):
        with ServeClient(server["host"], server["port"]) as raw:
            with pytest.raises(ServeError) as info:
                raw.request("POST", "/v1/evaluate", body=None)
        assert info.value.status == 400

    def test_unknown_body_key_400(self, client):
        payload = client.request(
            "POST",
            "/v1/evaluate",
            body={"trace": {"name": "demo"}, "policy": POLICY, "oops": 1},
            expect_errors=True,
        )
        assert payload["status"] == 400
        assert "unknown key" in payload["error"]

    def test_compare_rejects_propensity_floor(self, client):
        payload = client.request(
            "POST",
            "/v1/compare",
            body={
                "trace": {"name": "demo"},
                "policy": POLICY,
                "propensity_floor": 0.01,
            },
            expect_errors=True,
        )
        assert payload["status"] == 400
        assert "propensity_floor" in payload["error"]

    def test_unknown_estimator_option_400(self, client):
        payload = client.request(
            "POST",
            "/v1/evaluate",
            body={
                "trace": {"name": "demo"},
                "policy": POLICY,
                "estimator": {"name": "dr", "options": {"bogus": 1}},
            },
            expect_errors=True,
        )
        assert payload["status"] == 400
        assert "supported options" in payload["error"]

    def test_unknown_policy_kind_400(self, client):
        payload = client.request(
            "POST",
            "/v1/evaluate",
            body={"trace": {"name": "demo"}, "policy": {"kind": "warp", "options": {}}},
            expect_errors=True,
        )
        assert payload["status"] == 400
        assert "registered kinds" in payload["error"]

    def test_unencodable_payload_answers_500(self, client, server):
        # A live confidence-sequence width starts at inf, which strict
        # JSON cannot encode: the answer is a 500, not a dropped
        # connection.
        before = _counter(server, "serve.http.internal_error")
        set_gauge("live.cs.width.dr", float("inf"))
        try:
            payload = client.request("GET", "/v1/telemetry", expect_errors=True)
        finally:
            set_gauge("live.cs.width.dr", 0.0)
        assert payload == {
            "kind": "repro.serve.error",
            "status": 500,
            "error": "internal error: ValueError",
        }
        assert _counter(server, "serve.http.internal_error") == before + 1
        assert client.telemetry()["recording"] is True

    def test_unencodable_report_is_not_cached(self, client, server, monkeypatch):
        body = {"estimator": "ips", "diagnostics": False, "seed": 404}
        monkeypatch.setattr(
            EvaluationReport, "to_json_dict", lambda self: {"estimate": float("nan")}
        )
        failed = client.request(
            "POST",
            "/v1/evaluate",
            body={"trace": {"name": "flat"}, "policy": POLICY_FLAT, **body},
            expect_errors=True,
        )
        assert failed["status"] == 500
        assert failed["error"] == "internal error: ValueError"
        monkeypatch.undo()
        computed_before = _counter(server, "serve.evaluate.computed")
        again = client.evaluate("flat", POLICY_FLAT, **body)
        assert again["cache"]["hit"] is False
        assert _counter(server, "serve.evaluate.computed") == computed_before + 1

    def test_rejected_requests_counted(self, client, server):
        before = _counter(server, "serve.request.rejected")
        client.request("POST", "/v1/evaluate", body={}, expect_errors=True)
        assert _counter(server, "serve.request.rejected") == before + 1
