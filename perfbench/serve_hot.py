"""``serve-hot``: ``repro serve`` answering cache hits.

Set-up generates a sharded trace, boots the evaluation service on an
ephemeral port (the stack ``repro serve`` runs, with its telemetry
recorder on) and warms the result cache with the 18 distinct evaluate
requests (6 policy specs × ips/snips/dr).  The measured phase starts
``loadgen.py`` in a separate process: a closed loop over ``nproc``
keep-alive connections that repeats the requests round-robin, so every
answer is a cache hit and no estimation runs.  This process is the
server, so its peak RSS and ledger are the server's.  In the ledger,
``serve.loop.wait_s`` is the event loop waiting on its sockets, the
server idle: it is reported but not attributed, and the attributed share
is of the server's busy time, the traced wall less that wait.

Checks: every answer is a 200 cache hit; sampled served reports equal
``api.evaluate`` on the same trace (``to_json()``); and the
``serve.evaluate.computed`` counter equals the number of distinct
requests.
"""

from __future__ import annotations

import asyncio
import json
import selectors
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np

from common import Phase, Workload, nproc
from ledger import ModuleProxy, counted, timed
from policies import ESTIMATORS, policy_specs

LOADGEN = Path(__file__).resolve().parent / "loadgen.py"

#: Served reports the load generator keeps for the identity check.
SAMPLES = 3

#: Width of the windows the load generator sends in; each window starts
#: with one reference run and is one rate sample.
BUCKET_SECONDS = 0.5


class ServeHot(Workload):
    name = "serve-hot"
    why = (
        "repro serve cache hits from a separate closed-loop client process: "
        "parse, fingerprint, resolve, cache, encode, write with no estimation"
    )
    named_metrics = {
        "requests_per_s": "throughput_per_s",
        "hit_p50_ms": "latency_p50_ms",
        "hit_p99_ms": "latency_p99_ms",
    }
    checks = (
        "every_answer_is_a_cache_hit",
        "served_report_equals_direct_evaluate",
        "computed_equals_distinct_requests",
    )
    layers = (
        "serve.app.handle_s",
        "serve.app.body_decode_s",
        "api.specs.parse_s",
        "core.serialize.fingerprint_s",
        "core.serialize.fingerprints",
        "store.naming.resolve_s",
        "serve.cache.get_s",
        "serve.cache.hit_ratio",
        "serve.cache.hit",
        "serve.server.encode_s",
        "serve.server.response_bytes",
        "serve.http.render_s",
        "serve.http.write_s",
        "serve.loop.wait_s",
        "loadgen.cpu_s",
    )
    idle_layers = ("serve.loop.wait_s",)

    def __init__(self, context):
        super().__init__(context)
        # 20k records give the ~400 KB hit bodies (per-record
        # contributions) the serving gap was measured with.
        self.records = 1_000 if context.tiny else 20_000
        self.connections = nproc()
        specs = policy_specs(6, context.seed)
        self.requests = [
            {"trace": {"name": "bench"}, "policy": spec, "estimator": {"name": estimator}}
            for spec in specs
            for estimator in ESTIMATORS
        ]
        rng = np.random.default_rng(context.seed)
        self.sampled = sorted(int(i) for i in rng.choice(len(self.requests), SAMPLES, replace=False))
        self.server = None
        self._setups = 0
        self._runs = 0

    def input_description(self):
        return {
            "records": self.records,
            "distinct_requests": len(self.requests),
            "connections": self.connections,
            "loop": "closed",
            "sampled_requests": self.sampled,
        }

    def setup(self) -> None:
        from repro.core.policy import UniformRandomPolicy
        from repro.obs.spans import disable, enable
        from repro.serve.app import EvaluationService
        from repro.serve.cache import ResultCache
        from repro.serve.client import ServeClient
        from repro.serve.server import BackgroundServer
        from repro.store.naming import TraceCatalog
        from repro.workloads import SyntheticWorkload

        self._setups += 1
        self.base = self.context.workdir / f"serve-{self._setups}"
        workload = SyntheticWorkload()
        workload.generate_to_shards(
            UniformRandomPolicy(workload.space()),
            self.records,
            np.random.default_rng(self.context.seed),
            self.base / "shards",
        )
        self.registry = self.base / "registry.json"
        self.registry.write_text(json.dumps({"traces": {"bench": str(self.base / "shards")}}))
        # A fresh process recorder per boot, as `repro serve` has.
        disable()
        self.recorder = enable()
        self.service = EvaluationService(
            TraceCatalog.from_file(self.registry),
            cache=ResultCache(max_entries=256),
            recorder=self.recorder,
        )
        self.server = BackgroundServer(self.service).start()
        with ServeClient(*self.server.address) as client:
            for request in self.requests:
                client.request("POST", "/v1/evaluate", body=request)

    def teardown(self) -> None:
        from repro.obs.spans import disable

        if self.server is not None:
            self.server.stop()
            self.server = None
        disable()
        shutil.rmtree(self.base, ignore_errors=True)

    def install(self, patches, ledger) -> None:
        import repro.core.serialize as serialize
        import repro.serve.app as app
        import repro.serve.http as http
        import repro.serve.server as server
        from repro.api.specs import EstimatorConfig, PolicySpec, TraceRef
        from repro.serve.app import EvaluationService
        from repro.serve.cache import ResultCache
        from repro.store.naming import TraceCatalog

        patches.method(EvaluationService, "handle", lambda f: timed(ledger, "serve.app.handle_s", f))
        patches.attribute(
            app, "json", ModuleProxy(json, loads=timed(ledger, "serve.app.body_decode_s", json.loads))
        )
        for spec_class in (PolicySpec, EstimatorConfig, TraceRef):
            patches.method(spec_class, "from_dict", lambda f: timed(ledger, "api.specs.parse_s", f))
        patches.function(
            serialize, "fingerprint", lambda f: timed(ledger, "core.serialize.fingerprint_s", f)
        )
        patches.method(TraceCatalog, "resolve", lambda f: timed(ledger, "store.naming.resolve_s", f))
        patches.method(ResultCache, "get", lambda f: timed(ledger, "serve.cache.get_s", f))
        patches.attribute(
            server, "json", ModuleProxy(json, dumps=timed(ledger, "serve.server.encode_s", json.dumps))
        )
        patches.function(
            http,
            "render_response",
            lambda f: counted(
                ledger, "serve.server.response_bytes", len, timed(ledger, "serve.http.render_s", f)
            ),
        )
        patches.method(
            asyncio.StreamWriter, "write", lambda f: timed(ledger, "serve.http.write_s", f)
        )
        # The event loop's wait for the next readable socket: the time the
        # server sat idle waiting for its client.
        selector = next(c for c in selectors.DefaultSelector.__mro__ if "select" in c.__dict__)
        patches.method(selector, "select", lambda f: timed(ledger, "serve.loop.wait_s", f))

    def run_phase(self, phase: Phase, seconds: float) -> None:
        self._runs += 1
        run_dir = self.base / f"loadgen-{self._runs}"
        run_dir.mkdir()
        host, port = self.server.address
        plan = {
            "host": host,
            "port": port,
            "connections": self.connections,
            "seconds": seconds,
            "bodies": [json.dumps(request) for request in self.requests],
            "sampled": self.sampled,
            "sample_dir": str(run_dir),
            "bucket_seconds": BUCKET_SECONDS,
        }
        (run_dir / "plan.json").write_text(json.dumps(plan))
        before = self._cache_counters()
        with open(run_dir / "out.json", "wb") as out, open(run_dir / "err.txt", "wb") as err:
            with phase.section():
                # Wake the event loop, so that its next wait on the sockets
                # starts inside the section, where the ledger times it.
                with socket.create_connection(self.server.address):
                    pass
                process = subprocess.Popen(
                    [sys.executable, str(LOADGEN), str(run_dir / "plan.json")],
                    stdout=out,
                    stderr=err,
                )
                try:
                    code = process.wait(timeout=seconds + 60)
                finally:
                    # On a timeout or any other way out, the client must
                    # not outlive the run.
                    if process.poll() is None:
                        process.kill()
                        process.wait()
        if code != 0:
            raise RuntimeError(
                f"load generator exited {code}: {(run_dir / 'err.txt').read_text()[-2000:]}"
            )
        result = json.loads((run_dir / "out.json").read_text())
        after = self._cache_counters()
        for rate, reference in result["windows"]:
            phase.add_rate(rate, reference)
        for latency, reference in result["latencies"]:
            phase.add_latency(latency, reference)
        phase.attempted += result["completed"]
        phase.failed += result["failed"]
        deltas = {name: after[name] - before[name] for name in after}
        deltas["loadgen.cpu_s"] = result["cpu_s"]
        for name, value in deltas.items():
            phase.counters[name] = phase.counters.get(name, 0) + value
        self.context.checks.record("every_answer_is_a_cache_hit", result["failed"] == 0)
        phase.failed += self._check_samples(run_dir)

    def _cache_counters(self):
        counters = self.recorder.metrics.snapshot().get("counters", {})
        return {name: counters.get(name, 0) for name in ("serve.cache.hit", "serve.cache.miss")}

    def prepare_checks(self) -> None:
        from repro import api
        from repro.store.naming import TraceCatalog

        trace = TraceCatalog.from_file(self.registry).resolve("bench").trace
        self.direct = {}
        for index in self.sampled:
            request = self.requests[index]
            report = api.evaluate(trace, request["policy"], estimator=request["estimator"])
            self.direct[index] = report.to_json()

    def _check_samples(self, run_dir: Path) -> int:
        """Check the sampled served reports; return how many differ."""
        from repro import api

        mismatched = 0
        for index in self.sampled:
            path = run_dir / f"sample-{index}.json"
            ok = path.exists()
            if ok:
                served = json.loads(path.read_bytes())
                rebuilt = api.EvaluationReport.from_json_dict(served["report"])
                ok = rebuilt.to_json() == self.direct[index]
            if not self.context.checks.record("served_report_equals_direct_evaluate", ok):
                mismatched += 1
        return mismatched

    def finish_checks(self) -> None:
        counters = self.recorder.metrics.snapshot().get("counters", {})
        computed = counters.get("serve.evaluate.computed", 0)
        self.context.checks.record("computed_equals_distinct_requests", computed == len(self.requests))

    def layer_extras(self, phase: Phase, seconds, counts):
        hits = phase.counters.get("serve.cache.hit", 0)
        misses = phase.counters.get("serve.cache.miss", 0)
        return {
            "core.serialize.fingerprints": counts.get("core.serialize.fingerprint_s", 0),
            "serve.cache.hit": hits,
            "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "loadgen.cpu_s": phase.counters.get("loadgen.cpu_s", 0.0),
        }
