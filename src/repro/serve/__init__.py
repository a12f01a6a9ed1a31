"""``repro.serve`` — OPE as a long-lived HTTP service.

The paper's pitch only pays off operationally if a counterfactual query
("what would policy B have done?") is as cheap as a dashboard lookup.
This package serves exactly that: a zero-dependency asyncio HTTP/1.1
server (in the spirit of the stdlib-only :mod:`repro.obs` tier) that
keeps named traces, the estimator registry, and recent results warm in
memory::

    repro serve registry.json --port 8321

    curl -s localhost:8321/v1/evaluate -d '{
      "trace": {"name": "demo"},
      "policy": {"kind": "uniform", "options": {"space": ["a", "b", "c"]}},
      "estimator": {"name": "dr"}
    }'

Layers, bottom up:

* :mod:`repro.serve.http` — minimal HTTP/1.1 request parsing and
  response rendering over asyncio streams;
* :mod:`repro.serve.cache` — the bounded-LRU result cache with TTL and
  per-request bypass;
* :mod:`repro.serve.app` — request validation, spec resolution,
  fingerprinting, in-flight coalescing, and the evaluate/compare
  endpoints (responses are bit-identical to direct :mod:`repro.api`
  calls — pinned by tests);
* :mod:`repro.serve.server` — the asyncio connection loop plus a
  background-thread harness for tests and perfbench;
* :mod:`repro.serve.client` — a small stdlib client;
* :mod:`repro.serve.validate` — the response-payload schema checker
  (``python -m repro.serve.validate``).

The load measurement lives outside the package: perfbench's
``serve-hot`` workload drives a server from a separate client process.

DESIGN.md §13 documents the request model, fingerprinting, and
cache-key derivation.
"""

from repro.serve.app import EvaluationService
from repro.serve.cache import CacheStats, ResultCache
from repro.serve.client import ServeClient
from repro.serve.server import BackgroundServer, run_server

__all__ = [
    "BackgroundServer",
    "CacheStats",
    "EvaluationService",
    "ResultCache",
    "ServeClient",
    "run_server",
]
